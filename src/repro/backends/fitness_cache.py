"""The unified fitness cache: one audited memo behind every evaluation path.

Every evaluation path shares two audited fitness memos, in place of the
divergent per-engine dicts and the genotype-keyed context cache (which
silently disabled itself on fault-tainted arrays) that preceded the
staged fitness pipeline:

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
  between concurrent campaign workers.  The tier is *write-behind*:
  newly computed values are staged in the process-wide index view,
  where every lookup in the process sees them at once, and reach disk
  in one locked, fsynced append per :meth:`PersistentFitnessCache.publish`
  — once per driver run, before the maintenance calls, and at process
  exit.  A crash loses only the staged values of the process that died;
  nothing partial or wrong can reach the index.

Fault-tainted evaluations embed per-call random draws and are *never*
cached by either tier; they are counted as bypasses so the blindness the
old context cache suffered from is now visible telemetry
(``PlatformEvolutionResult.fitness_cache_stats``).
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, Union

try:  # pragma: no cover - import guard exercised implicitly per platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["CacheStats", "FitnessCache", "IndexView", "PersistentFitnessCache", "index_line"]


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
    gives the owner a slot for derived per-scope scratch (the numpy
    engine keeps its pre-widened int16 reference there).
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


def append_healed(path: Union[str, os.PathLike], text: str) -> int:
    """Append ``text`` (whole newline-terminated lines) to ``path`` and fsync.

    Callers hold the file's advisory lock.  A writer killed mid-append
    leaves the file without a trailing newline; the append then starts a
    new line first, so the new lines never join the orphan fragment (which
    readers skip as unparseable).  Returns the file's end offset after
    the write.
    """
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END) > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
        return handle.tell()


#: What a line that is not a well-formed index entry raises while parsing
#: (``ValueError`` covers ``JSONDecodeError`` and undecodable bytes).
_UNPARSEABLE = (KeyError, TypeError, ValueError)


def index_line(key: str, value: float) -> str:
    """One fitness index line, newline-terminated.

    Byte-identical to ``json.dumps({"key": key, "fitness": value},
    sort_keys=True) + "\n"`` for the hex keys and finite floats the tier
    stores, without the encoder's per-call overhead.
    """
    return f'{{"fitness": {value!r}, "key": "{key}"}}\n'


class IndexView:
    """Parsed, first-write-wins view of one append-only JSONL index.

    The view remembers how far it has parsed (:attr:`offset`, the end of
    the last complete line), which file it parsed (``(st_dev, st_ino)``
    and modification time) and the bytes of the last line it consumed.
    :meth:`refresh_locked` costs one ``os.stat`` while the file is
    unchanged.  When the file has grown it reads from the start of that
    last line, so one read both checks the line still sits where it was
    and fetches only the new lines.  The view reloads the whole file when
    the file shrank, its inode changed (an atomic replace such as
    ``prune``), or its last line no longer reads back (a directory
    deleted and recreated on a reused inode).  A rewrite that keeps the
    inode, the size and the modification time (possible only within one
    timestamp tick) is seen when the file next changes.

    Only newline-terminated lines are consumed: a torn fragment left by a
    killed writer is re-read until the next healed append finishes its
    line, which is then skipped as unparseable.  The first line for a key
    wins, as ``prune`` and ``verify`` assume.

    ``parse`` maps one decoded JSON line to its ``(key, value)``.  Every
    ``*_locked`` method requires :attr:`lock` to be held.

    :attr:`staged` holds values this process computed but has not yet
    appended (the write-behind of :class:`PersistentFitnessCache`); readers
    consult it after :attr:`entries`, and only a publish empties it.
    """

    __slots__ = (
        "path", "lock", "entries", "staged", "offset", "_parse", "_identity", "_mtime_ns",
        "_last_line",
    )

    def __init__(
        self, path: Union[str, os.PathLike], parse: Callable[[Any], Tuple[str, Any]]
    ) -> None:
        self.path = os.fspath(path)
        self.lock = threading.Lock()
        self.entries: Dict[str, Any] = {}
        self.staged: Dict[str, Any] = {}
        self.offset = 0
        self._parse = parse
        self._identity: Optional[Tuple[int, int]] = None
        # None after this process's own append: the next refresh adopts
        # whatever modification time the file then has.
        self._mtime_ns: Optional[int] = None
        self._last_line = b""

    def refresh_locked(self) -> None:
        """Catch up with lines other handles or processes appended."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            if self._identity is not None:
                self._clear_locked()
            return
        if (
            (stat.st_dev, stat.st_ino) == self._identity
            and stat.st_size == self.offset
            and self._mtime_ns in (None, stat.st_mtime_ns)
        ):
            self._mtime_ns = stat.st_mtime_ns
            return
        with open(self.path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            last = self._last_line
            if (stat.st_dev, stat.st_ino) == self._identity and stat.st_size >= self.offset:
                handle.seek(self.offset - len(last))
                data = handle.read()
                if data.startswith(last):
                    self._consume_locked(data[len(last) :])
                    self._mtime_ns = stat.st_mtime_ns
                    return
                handle.seek(0)
            self._clear_locked()
            self._identity = (stat.st_dev, stat.st_ino)
            self._mtime_ns = stat.st_mtime_ns
            self._consume_locked(handle.read())

    def append_locked(self, values: Mapping[str, Any], text: str) -> None:
        """Append ``text`` (the index lines of ``values``) and fold it in.

        The caller also holds the index's file lock and has just
        refreshed, so nothing but a torn fragment (unparseable by
        construction) lies between :attr:`offset` and the appended lines:
        the view advances to the end offset the append returns without
        re-reading the file.  Keys of ``values`` already in the view keep
        their first value (``text`` need not carry their lines).
        """
        end = append_healed(self.path, text)
        for key, value in values.items():
            self.entries.setdefault(key, value)
        self.offset = end
        self._mtime_ns = None
        self._last_line = text[text.rfind("\n", 0, -1) + 1 :].encode("utf-8")

    def _clear_locked(self) -> None:
        self.entries = {}
        self.offset = 0
        self._identity = None
        self._mtime_ns = None
        self._last_line = b""

    def _consume_locked(self, data: bytes) -> None:
        """Parse the complete lines of ``data``, which starts at :attr:`offset`."""
        end = data.rfind(b"\n") + 1
        if not end:
            return
        entries = self.entries
        parse = self._parse
        for line in data[:end].split(b"\n"):
            try:
                key, value = parse(json.loads(line))
            except _UNPARSEABLE:
                # Blank, a torn fragment or not an entry: skipped.  A killed
                # publisher's work is simply redone until republished.
                continue
            entries.setdefault(key, value)
        self.offset += end
        self._last_line = data[data.rfind(b"\n", 0, end - 1) + 1 : end]


def _parse_fitness_line(entry: Any) -> Tuple[str, float]:
    return str(entry["key"]), float(entry["fitness"])


#: Process-wide index views of :class:`PersistentFitnessCache`, keyed by
#: resolved index path: every handle on one index shares one view, so a
#: sweep's runs parse each line once instead of once per run.
_VIEWS: Dict[str, IndexView] = {}
#: Views holding staged values, each with a handle that can publish them.
#: It also reaches views the registry has since evicted, so the exit hook
#: publishes every one of them.
_PENDING: Dict[IndexView, "PersistentFitnessCache"] = {}
_VIEWS_LOCK = threading.Lock()
#: Registry bound.  Creating a view first drops views whose index file is
#: gone, then the least recently requested ones beyond this count; a view
#: holding staged values is never dropped, so every handle keeps seeing them.
_MAX_VIEWS = 4


def _shared_view(index_path: Path) -> IndexView:
    """The process-wide view of ``index_path``, created on first request."""
    key = os.path.realpath(index_path)
    with _VIEWS_LOCK:
        view = _VIEWS.pop(key, None)
        if view is None:
            evictable = [path for path, held in _VIEWS.items() if held not in _PENDING]
            for stale in [path for path in evictable if not os.path.exists(path)]:
                evictable.remove(stale)
                del _VIEWS[stale]
            while len(_VIEWS) >= _MAX_VIEWS and evictable:
                del _VIEWS[evictable.pop(0)]
            view = IndexView(key, _parse_fitness_line)
        _VIEWS[key] = view
        return view


def _forget_views_in_child() -> None:
    """Give a forked child an empty registry behind a fresh lock.

    A lock another parent thread held at fork time is never released in
    the child; views are rebuilt from disk on demand.  Staged values the
    child inherited are dropped: the parent publishes them.
    """
    global _VIEWS_LOCK
    _VIEWS_LOCK = threading.Lock()
    with _VIEWS_LOCK:
        _VIEWS.clear()
        for view in _PENDING:
            view.staged = {}
        _PENDING.clear()


if hasattr(os, "register_at_fork"):  # pragma: no cover - POSIX only
    os.register_at_fork(after_in_child=_forget_views_in_child)


def _publish_pending_at_exit() -> None:
    """Publish every view that still holds staged values (exit hook)."""
    with _VIEWS_LOCK:
        handles = list(_PENDING.values())
    for handle in handles:
        try:
            handle.publish()
        except OSError as error:
            warnings.warn(
                f"persistent fitness cache {handle.root}: staged values not "
                f"published at exit ({error})",
                RuntimeWarning,
            )


atexit.register(_publish_pending_at_exit)


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

    Writes are staged (:meth:`stage`) in the shared view, which every
    lookup in the process serves at once, and :meth:`publish` appends
    everything staged in one locked, fsynced write.  The drivers publish
    once at the end of each run, :meth:`summary`, :meth:`prune` and
    :meth:`verify` publish first, and an exit hook publishes what is
    left; a forked child drops the staged values it inherited.

    Thread-safe within a process; cross-process appends are serialised
    with the same advisory ``fcntl`` lock discipline as the campaign
    store.  Every handle on one index shares one process-wide
    :class:`IndexView`, which tail-reads what concurrent workers append;
    hit/miss telemetry (:attr:`stats`) stays per handle.
    """

    INDEX_FILE = "fitness.jsonl"
    LOCK_FILE = "fitness.lock"
    META_FILE = "meta.json"
    FORMAT = 1

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self._view = _shared_view(self.index_path)

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

    # ------------------------------------------------------------------ #
    def lookup(self, keys: Iterable[str]) -> Dict[str, float]:
        """The cached fitness of every known key (hits/misses counted).

        Served from the index first, then from the staged values.
        """
        keys = list(keys)
        view = self._view
        with view.lock:
            view.refresh_locked()
            entries = view.entries
            found = {key: entries[key] for key in keys if key in entries}
            staged = view.staged
            if staged and len(found) < len(keys):
                found.update((key, staged[key]) for key in keys if key in staged)
        self.stats.hits += len(found)
        self.stats.misses += len(keys) - len(found)
        return found

    def stage(self, values: Mapping[str, float]) -> None:
        """Stage newly computed fitness values for the next :meth:`publish`.

        No I/O: keys not yet in the index become visible to every lookup
        in the process at once (the first staged value of a key wins).
        """
        view = self._view
        with view.lock:
            self._stage_locked(values)

    def _stage_locked(self, values: Mapping[str, float]) -> None:
        view = self._view
        entries = view.entries
        staged = view.staged
        was_empty = not staged
        for key, value in values.items():
            if key not in entries:
                staged.setdefault(key, float(value))
        if was_empty and staged:
            with _VIEWS_LOCK:
                _PENDING[view] = self

    def publish(self, values: Optional[Mapping[str, float]] = None) -> int:
        """Stage ``values`` (if any), then append everything staged.

        One locked, fsynced append; returns how many lines it wrote.
        Idempotent and first-write-wins: staged keys that another handle
        or process has put on disk since are dropped, keeping the index
        append-only.  The staged values are cleared only once the append
        returns; on ``OSError`` they stay staged and the error propagates.
        """
        view = self._view
        with view.lock:
            if values:
                self._stage_locked(values)
            if not view.staged:
                return 0
            self._ensure_root()
            with _file_lock(self.lock_path):
                view.refresh_locked()
                entries = view.entries
                lines = [
                    index_line(key, value)
                    for key, value in view.staged.items()
                    if key not in entries
                ]
                if lines:
                    view.append_locked(view.staged, "".join(lines))
            view.staged = {}
            with _VIEWS_LOCK:
                _PENDING.pop(view, None)
        return len(lines)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Index statistics for the ``repro-ehw cache`` subcommand."""
        self.publish()
        with self._view.lock:
            self._view.refresh_locked()
            entries = len(self._view.entries)
        size = self.index_path.stat().st_size if self.index_path.exists() else 0
        return {
            "root": str(self.root),
            "entries": entries,
            "index_bytes": int(size),
            "exists": self.meta_path.exists() or self.index_path.exists(),
        }

    def prune(self) -> Dict[str, int]:
        """Compact the index: drop duplicate/corrupt lines, keep first wins."""
        self.publish()
        self._ensure_root()
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
                        key, value = _parse_fitness_line(json.loads(line))
                    except _UNPARSEABLE:
                        dropped += 1
                        continue
                    if key in kept:
                        dropped += 1
                        continue
                    kept[key] = value
            _atomic_write_text(
                self.index_path,
                "".join(index_line(key, value) for key, value in kept.items()),
            )
        return {"lines": total, "kept": len(kept), "dropped": dropped}

    def verify(self) -> List[str]:
        """Audit the index; returns human-readable problem descriptions.

        Checks the JSONL is parseable, keys look like SHA-256 hex, fitness
        values are non-negative and integral, and duplicate keys agree —
        the first-write-wins invariant determinism promises.  Staged
        values are published first, so the audit covers them.
        """
        self.publish()
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
                key, value = _parse_fitness_line(json.loads(line))
            except _UNPARSEABLE:
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
