"""The unified fitness cache: one audited memo behind every evaluation path.

Before the staged fitness pipeline, three divergent fitness memos existed
side by side: the numpy engine's per-(store, reference, node) dict, the
compiled engine's copy of the same, and ``ArrayEvalContext``'s
genotype-keyed cache that silently disabled itself on fault-tainted
arrays.  This module replaces all three with two audited components:

* :class:`FitnessCache` — the in-process tier.  A bounded, scope-aware
  mapping from a caller-chosen key (a hash-consed node id inside a
  backend store, or a canonical candidate signature inside the
  pipeline) to an exact fitness value, with hit/miss/bypass telemetry.
  Caching is value-transparent by construction: an entry is only ever
  written with the exact value a full evaluation produced, so serving a
  hit cannot change any trajectory byte.
* :class:`PersistentFitnessCache` — the opt-in cross-run tier.  An
  append-only JSONL index of canonical fitness signatures
  (:func:`repro.backends.signature.fitness_key`) under the same
  fcntl/atomic-write discipline as the campaign store
  (:mod:`repro.runtime.store` — reimplemented here, not imported, so
  the backends layer stays below the runtime layer), safe to share
  between concurrent campaign workers.

Fault-tainted evaluations embed per-call random draws and are *never*
cached by either tier; they are counted as bypasses so the blindness the
old context cache suffered from is now visible telemetry
(``PlatformEvolutionResult.fitness_cache_stats``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Union

try:  # pragma: no cover - import guard exercised implicitly per platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["CacheStats", "FitnessCache", "PersistentFitnessCache"]


class CacheStats:
    """Hit/miss/bypass counters of one fitness-cache tier."""

    __slots__ = ("hits", "misses", "bypasses")

    def __init__(self, hits: int = 0, misses: int = 0, bypasses: int = 0) -> None:
        self.hits = int(hits)
        self.misses = int(misses)
        self.bypasses = int(bypasses)

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.bypasses += other.bypasses

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "bypasses": self.bypasses}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats(hits={self.hits}, misses={self.misses}, bypasses={self.bypasses})"


class FitnessCache:
    """In-process fitness memo: bounded, scope-aware, telemetry-counting.

    Parameters
    ----------
    max_entries:
        Entry budget; ``None`` leaves the cache unbounded (store-scoped
        tiers are bounded by their owning store's node budget instead).
        When bounded, the oldest entry is evicted first — deterministic,
        so two identical runs see identical hit sequences.

    A *scope* groups entries that are only comparable under one context
    (one reference image for the store-scoped tiers): :meth:`scope`
    clears the entries whenever the token changes, and ``scope_data``
    gives the owner a slot for derived per-scope scratch (the engines
    keep their pre-widened int16 reference there).
    """

    __slots__ = ("max_entries", "stats", "scope_data", "_entries", "_scope_token")

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.scope_data: Any = None
        self._entries: Dict[Hashable, float] = {}
        self._scope_token: Any = None

    def __len__(self) -> int:
        return len(self._entries)

    def scope(self, token: Hashable) -> bool:
        """Enter scope ``token``; returns True (and clears) on a change."""
        if token == self._scope_token:
            return False
        self._scope_token = token
        self._entries.clear()
        self.scope_data = None
        return True

    def get(self, key: Hashable) -> Optional[float]:
        """The cached exact fitness for ``key``, counting hit or miss."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[float]:
        """Like :meth:`get` without touching the telemetry counters."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: float) -> None:
        """Record the exact fitness of ``key`` (evicting oldest-first)."""
        entries = self._entries
        if self.max_entries is not None and key not in entries:
            while len(entries) >= self.max_entries:
                del entries[next(iter(entries))]
        entries[key] = value

    def bypass(self, count: int = 1) -> None:
        """Count evaluations that must not be cached (fault-tainted)."""
        self.stats.bypasses += count

    def clear(self) -> None:
        """Drop every entry (telemetry counters are preserved)."""
        self._entries.clear()
        self.scope_data = None
        self._scope_token = None


def _atomic_write_text(path: Path, text: str) -> None:
    """Atomic write (temp file + ``os.replace``), as in the campaign store."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def _file_lock(lock_path: Path):
    """Advisory exclusive ``fcntl`` lock (no-op where unavailable)."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(lock_path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def append_healed(path: Path, text: str) -> None:
    """Append ``text`` (whole newline-terminated lines) to ``path`` and fsync.

    Callers hold the file's advisory lock.  A writer killed mid-append
    leaves the file without a trailing newline; the append then starts a
    new line first, so the new lines never join the orphan fragment (which
    readers skip as unparseable).
    """
    with path.open("a+b") as handle:
        if handle.seek(0, os.SEEK_END) > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


class PersistentFitnessCache:
    """Cross-run fitness cache: one directory, shared between workers.

    Layout::

        <root>/
          meta.json       # format version + key-derivation version
          fitness.jsonl   # append-only {"key": <sha256 hex>, "fitness": <int>}
          fitness.lock    # advisory lock serialising appends

    Keys are canonical candidate fitness signatures
    (:func:`repro.backends.signature.fitness_key`); values are the exact
    integral SAE fitness.  Publishing is idempotent and first-write-wins:
    determinism guarantees any two publishers of one key computed the
    same value, and :meth:`verify` audits exactly that invariant.

    Thread-safe within a process; cross-process appends are serialised
    with the same advisory ``fcntl`` lock discipline as the campaign
    store, and the in-memory view refreshes by index size so concurrent
    workers observe each other's entries.
    """

    INDEX_FILE = "fitness.jsonl"
    LOCK_FILE = "fitness.lock"
    META_FILE = "meta.json"
    FORMAT = 1

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: Dict[str, float] = {}
        self._loaded_size = -1

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_FILE

    @property
    def lock_path(self) -> Path:
        return self.root / self.LOCK_FILE

    @property
    def meta_path(self) -> Path:
        return self.root / self.META_FILE

    # ------------------------------------------------------------------ #
    def _ensure_root(self) -> None:
        if self.meta_path.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        from repro.backends.signature import FITNESS_KEY_VERSION

        _atomic_write_text(
            self.meta_path,
            json.dumps(
                {"format": self.FORMAT, "key_version": FITNESS_KEY_VERSION},
                sort_keys=True,
            )
            + "\n",
        )

    def _refresh_locked(self) -> None:
        """Re-read the index if another process has grown it."""
        if not self.index_path.exists():
            return
        size = self.index_path.stat().st_size
        if size == self._loaded_size:
            return
        entries: Dict[str, float] = {}
        for line in self.index_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                entries[str(entry["key"])] = float(entry["fitness"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A publisher killed mid-append: drop the fragment; the
                # evaluation is simply recomputed until republished.
                continue
        self._entries = entries
        self._loaded_size = size

    # ------------------------------------------------------------------ #
    def lookup(self, keys: Iterable[str]) -> Dict[str, float]:
        """The cached fitness of every known key (hits/misses counted)."""
        keys = list(keys)
        with self._lock:
            self._refresh_locked()
            found = {key: self._entries[key] for key in keys if key in self._entries}
        self.stats.hits += len(found)
        self.stats.misses += len(keys) - len(found)
        return found

    def publish(self, values: Mapping[str, float]) -> int:
        """Append newly computed fitness values; returns how many were new.

        Idempotent: keys already present (locally or published by a
        concurrent worker) are skipped, keeping the index append-only and
        first-write-wins.
        """
        if not values:
            return 0
        self._ensure_root()
        with self._lock:
            with _file_lock(self.lock_path):
                self._refresh_locked()
                fresh = {
                    key: value
                    for key, value in values.items()
                    if key not in self._entries
                }
                if not fresh:
                    return 0
                lines = "".join(
                    json.dumps({"key": key, "fitness": value}, sort_keys=True) + "\n"
                    for key, value in fresh.items()
                )
                append_healed(self.index_path, lines)
                self._entries.update(fresh)
                self._loaded_size = self.index_path.stat().st_size
        return len(fresh)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Index statistics for the ``repro-ehw cache`` subcommand."""
        with self._lock:
            self._refresh_locked()
            entries = len(self._entries)
        size = self.index_path.stat().st_size if self.index_path.exists() else 0
        return {
            "root": str(self.root),
            "entries": entries,
            "index_bytes": int(size),
            "exists": self.meta_path.exists() or self.index_path.exists(),
        }

    def prune(self) -> Dict[str, int]:
        """Compact the index: drop duplicate/corrupt lines, keep first wins."""
        self._ensure_root()
        with self._lock:
            with _file_lock(self.lock_path):
                kept: Dict[str, float] = {}
                total = dropped = 0
                if self.index_path.exists():
                    for line in self.index_path.read_text(encoding="utf-8").splitlines():
                        line = line.strip()
                        if not line:
                            continue
                        total += 1
                        try:
                            entry = json.loads(line)
                            key = str(entry["key"])
                            value = float(entry["fitness"])
                        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                            dropped += 1
                            continue
                        if key in kept:
                            dropped += 1
                            continue
                        kept[key] = value
                _atomic_write_text(
                    self.index_path,
                    "".join(
                        json.dumps({"key": key, "fitness": value}, sort_keys=True) + "\n"
                        for key, value in kept.items()
                    ),
                )
                self._entries = kept
                self._loaded_size = self.index_path.stat().st_size
        return {"lines": total, "kept": len(kept), "dropped": dropped}

    def verify(self) -> List[str]:
        """Audit the index; returns human-readable problem descriptions.

        Checks the JSONL is parseable, keys look like SHA-256 hex, fitness
        values are non-negative and integral, and duplicate keys agree —
        the first-write-wins invariant determinism promises.
        """
        problems: List[str] = []
        seen: Dict[str, float] = {}
        if not self.index_path.exists():
            return problems
        for lineno, line in enumerate(
            self.index_path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = str(entry["key"])
                value = float(entry["fitness"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                problems.append(f"line {lineno}: unparseable index entry")
                continue
            if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
                problems.append(f"line {lineno}: malformed key {key!r}")
                continue
            if value < 0 or value != int(value):
                problems.append(f"line {lineno}: non-integral fitness {value!r}")
                continue
            if key in seen and seen[key] != value:
                problems.append(
                    f"line {lineno}: key {key[:12]}... republished with "
                    f"{value!r} != first-written {seen[key]!r}"
                )
                continue
            seen.setdefault(key, value)
        return problems
