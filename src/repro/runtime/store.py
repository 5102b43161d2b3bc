"""Resumable on-disk storage for campaign results.

A :class:`CampaignStore` is one directory per campaign::

    <root>/
      campaign.json        # the CampaignSpec + its content digest
      index.lock           # advisory lock serialising index appends
      runs.jsonl           # append-only run index, one JSON object per line
      runs/<run_id>.json   # one RunArtifact file per completed run

The JSONL index is append-only and last-write-wins per ``run_id``, so a
campaign that crashes mid-sweep (or is deliberately re-run with more
grid points) resumes by skipping every run already marked completed.
The per-run artifact files are exactly what
:meth:`~repro.api.artifact.RunArtifact.save` writes, so any downstream
tool that understands run artifacts understands a campaign store.

Two properties make the store safe to share between concurrent writers
(multiple local workers, or service workers reporting through one
server):

* artifact files are written atomically (temp file + ``os.replace``), so
  a killed worker can never leave a half-written artifact behind that a
  later resume would trust;
* index appends are serialised with an advisory ``fcntl`` file lock
  (where available), so two processes appending at once cannot
  interleave partial lines — the newline-healing in :meth:`record` and
  the corrupt-line tolerance in :meth:`index` remain as crash recovery,
  not as a substitute for mutual exclusion.

Index entries carry each run's content :meth:`~repro.runtime.campaign.RunSpec.signature`,
which is what the service layer's :class:`DedupeCache` keys on: a run
whose signature is already present (in this store or in the shared
cache) is recorded with ``status: "cached"`` and served from the stored
artifact instead of being re-evolved.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.api.artifact import RunArtifact
from repro.backends.fitness_cache import IndexView, _atomic_write_text, _file_lock, append_healed
from repro.runtime.campaign import CampaignSpec, RunSpec

__all__ = ["CampaignStore", "DedupeCache"]

SPEC_FILE = "campaign.json"
INDEX_FILE = "runs.jsonl"
LOCK_FILE = "index.lock"
RUNS_DIR = "runs"

#: Index statuses that carry a loadable artifact (and are skipped on resume).
ARTIFACT_STATUSES = ("completed", "cached")


class CampaignStore:
    """Directory-backed, resumable result store for one campaign."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    @property
    def spec_path(self) -> Path:
        return self.root / SPEC_FILE

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_FILE

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_FILE

    @property
    def runs_dir(self) -> Path:
        return self.root / RUNS_DIR

    def artifact_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.json"

    @property
    def fitness_cache_dir(self) -> Path:
        return self.root / "fitness_cache"

    def fitness_cache(self):
        """The store's persistent cross-run fitness cache.

        A :class:`~repro.backends.fitness_cache.PersistentFitnessCache`
        rooted inside this campaign store (``<root>/fitness_cache/``),
        sharing the store's durability conventions: append-only JSONL
        index, ``fcntl`` lock file, atomically replaced metadata.  Pass
        its root (or the instance) as the ``fitness_cache`` knob of an
        :class:`~repro.api.config.EvolutionConfig` so every run of the
        campaign — and every rerun against the same store — reuses
        already-computed fitnesses.
        """
        from repro.backends.fitness_cache import PersistentFitnessCache

        return PersistentFitnessCache(self.fitness_cache_dir)

    # ------------------------------------------------------------------ #
    def initialise(self, spec: CampaignSpec) -> None:
        """Create the store layout (or attach to an existing one).

        Attaching to a directory initialised for a *different* spec is an
        error: silently mixing two campaigns' runs in one index would make
        resume-by-run-id meaningless.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(exist_ok=True)
        digest = spec.digest()
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text(encoding="utf-8"))
            if existing.get("digest") != digest:
                raise ValueError(
                    f"store at {self.root} was initialised for campaign "
                    f"{existing.get('spec', {}).get('name')!r} with a different "
                    "spec; use a fresh directory (or delete the store) to run "
                    "a changed campaign"
                )
            return
        payload = {"digest": digest, "spec": spec.to_dict()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _atomic_write_text(self.spec_path, text)

    def load_spec(self) -> CampaignSpec:
        """The spec this store was initialised for."""
        payload = json.loads(self.spec_path.read_text(encoding="utf-8"))
        return CampaignSpec.from_dict(payload["spec"])

    # ------------------------------------------------------------------ #
    def index(self) -> List[Dict[str, Any]]:
        """The run index, deduplicated by ``run_id`` (last write wins).

        Deduplication is what keeps retried runs honest: a failed run
        that is re-executed on resume appends a *second* JSONL line for
        the same ``run_id``, and counting both would over-report
        ``n_failed``/completed in :meth:`summary` (the raw file is
        append-only by design, so duplicates are expected there).

        Malformed lines are dropped with a warning instead of raising:
        the engine appends one line per finished run, so a campaign
        killed mid-write leaves a truncated line behind, and refusing to
        parse the file would make the store — whose whole purpose is
        crash resume — unresumable.  The interrupted run is simply not
        recorded, so the next resume re-executes it.
        """
        if not self.index_path.exists():
            return []
        by_run_id: Dict[str, Dict[str, Any]] = {}
        lines = self.index_path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    f"dropping corrupt line {lineno + 1} of campaign index "
                    f"{self.index_path} (interrupted write?); the affected "
                    "run will be re-executed on resume",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            by_run_id[entry["run_id"]] = entry
        return sorted(by_run_id.values(), key=lambda entry: entry["index"])

    def completed_run_ids(self) -> Set[str]:
        """Run ids recorded with a loadable artifact (the ones a rerun skips).

        Covers both computed (``completed``) and dedupe-served
        (``cached``) runs — each has its own artifact file either way.
        """
        return {
            entry["run_id"]
            for entry in self.index()
            if entry["status"] in ARTIFACT_STATUSES
        }

    def signature_index(self) -> Dict[str, Dict[str, Any]]:
        """Map of content signature -> index entry for artifact-bearing runs.

        The within-store half of the dedupe contract: a new run whose
        signature appears here can be served from the recorded artifact
        instead of being re-executed.
        """
        return {
            entry["signature"]: entry
            for entry in self.index()
            if entry["status"] in ARTIFACT_STATUSES and entry.get("signature")
        }

    # ------------------------------------------------------------------ #
    def record(
        self,
        run: RunSpec,
        status: str,
        artifact: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        source_run_id: Optional[str] = None,
    ) -> None:
        """Persist one run outcome: its artifact file plus an index line.

        ``status`` is ``completed`` (a freshly computed artifact),
        ``cached`` (an artifact served from the dedupe cache — recorded
        with its own artifact file so the store stays self-contained, and
        optionally the ``source_run_id`` it was copied from) or
        ``failed`` (with ``error``).
        """
        if status in ARTIFACT_STATUSES:
            if artifact is None:
                raise ValueError(f"a {status} run must provide its artifact")
            path = self.artifact_path(run.run_id)
            _atomic_write_text(
                path, json.dumps(artifact, indent=2, sort_keys=True) + "\n"
            )
        entry: Dict[str, Any] = {
            "run_id": run.run_id,
            "index": run.index,
            "status": status,
            "runner": run.runner,
            "seed": run.seed,
            "signature": run.signature(),
            "overrides": dict(run.overrides),
        }
        if status in ARTIFACT_STATUSES:
            entry["artifact"] = f"{RUNS_DIR}/{run.run_id}.json"
            results = (artifact or {}).get("results", {})
            if "overall_best_fitness" in results:
                entry["overall_best_fitness"] = results["overall_best_fitness"]
        if source_run_id is not None:
            entry["source_run_id"] = source_run_id
        if error is not None:
            entry["error"] = error
        # The lock serialises concurrent appenders (workers sharing one
        # store); the healed append keeps a crashed writer's fragment from
        # swallowing this line (the fragment is dropped by index()).
        self.root.mkdir(parents=True, exist_ok=True)
        with _file_lock(self.lock_path):
            append_healed(self.index_path, json.dumps(entry, sort_keys=True) + "\n")

    def load_artifact(self, run_id: str) -> RunArtifact:
        """Load one completed run's artifact back from disk."""
        return RunArtifact.from_json(self.artifact_path(run_id).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Aggregate view of the store: counts plus one row per run.

        Dedupe-served runs are reported distinctly (``n_cached``, rows
        with ``status: "cached"``) so cache behaviour is observable, but
        they carry real artifacts and count towards the fitness
        aggregates like any computed run.
        """
        rows = self.index()
        completed = [entry for entry in rows if entry["status"] == "completed"]
        cached = [entry for entry in rows if entry["status"] == "cached"]
        fitnesses = [
            entry["overall_best_fitness"]
            for entry in completed + cached
            if isinstance(entry.get("overall_best_fitness"), (int, float))
        ]
        summary: Dict[str, Any] = {
            "n_runs": len(rows),
            "n_completed": len(completed),
            "n_cached": len(cached),
            "n_failed": sum(1 for entry in rows if entry["status"] == "failed"),
            "rows": rows,
        }
        if fitnesses:
            summary["best_fitness"] = min(fitnesses)
            summary["mean_fitness"] = sum(fitnesses) / len(fitnesses)
        return summary


def _parse_dedupe_line(entry: Any) -> Tuple[str, Dict[str, Any]]:
    return str(entry["signature"]), entry


class DedupeCache:
    """Content-addressed artifact cache shared *across* campaign stores.

    The cache maps run signatures (see
    :meth:`~repro.runtime.campaign.RunSpec.signature`) to stored
    :class:`~repro.api.artifact.RunArtifact` payloads::

        <root>/
          signatures.jsonl         # append-only {signature, artifact, ...} index
          artifacts/<sig>.json     # one artifact file per unique signature

    A :class:`CampaignStore` dedupes within one campaign directory; the
    cache sits *in front of* stores and dedupes across submissions — the
    ``repro-ehw serve`` front-end consults it before enqueueing any run,
    and ``run_campaign(cache=...)`` does the same locally.  Publishing is
    idempotent and first-write-wins: determinism guarantees any two
    publishers of one signature hold byte-identical artifacts.

    Thread-safe within a process; cross-process appends are serialised
    with the same advisory ``fcntl`` lock the store index uses.
    """

    INDEX_FILE = "signatures.jsonl"
    LOCK_FILE = "signatures.lock"
    ARTIFACTS_DIR = "artifacts"

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        # Owned, not shared: one long-lived instance serves the service.
        self._view = IndexView(self.index_path, _parse_dedupe_line)

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_FILE

    @property
    def lock_path(self) -> Path:
        return self.root / self.LOCK_FILE

    @property
    def artifacts_dir(self) -> Path:
        return self.root / self.ARTIFACTS_DIR

    def artifact_path(self, signature: str) -> Path:
        return self.artifacts_dir / f"{signature}.json"

    # ------------------------------------------------------------------ #
    def signatures(self) -> Set[str]:
        """All signatures currently published."""
        with self._view.lock:
            self._view.refresh_locked()
            return set(self._view.entries)

    def __len__(self) -> int:
        return len(self.signatures())

    def __contains__(self, signature: object) -> bool:
        return signature in self.signatures()

    # ------------------------------------------------------------------ #
    def lookup(self, signature: str) -> Optional[Dict[str, Any]]:
        """The stored artifact dict for ``signature``, or ``None``."""
        with self._view.lock:
            self._view.refresh_locked()
            if signature not in self._view.entries:
                return None
        path = self.artifact_path(signature)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def publish(
        self,
        signature: str,
        artifact: Dict[str, Any],
        **meta: Any,
    ) -> bool:
        """Publish ``artifact`` under ``signature`` (first write wins).

        Returns ``True`` if the signature was newly added, ``False`` if
        it was already present (the existing artifact is kept — by the
        determinism contract the two are byte-identical anyway).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(exist_ok=True)
        view = self._view
        with view.lock:
            with _file_lock(self.lock_path):
                view.refresh_locked()
                if signature in view.entries:
                    return False
                _atomic_write_text(
                    self.artifact_path(signature),
                    json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                )
                entry: Dict[str, Any] = {
                    "signature": signature,
                    "artifact": f"{self.ARTIFACTS_DIR}/{signature}.json",
                    **meta,
                }
                view.append_locked({signature: entry}, json.dumps(entry, sort_keys=True) + "\n")
        return True
