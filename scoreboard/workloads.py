"""The scoreboard's three workloads, each a closed loop over public API ops.

A workload draws its ops from a fixed pool of op ids.  Everything an op
does is a pure function of its op id, so the goldens in ``goldens/``
(made on the ``reference`` backend by ``goldens.py``) cover every op any
seed can ask for; the run seed chooses which ops run and in what order
(see :func:`op_order`).

Each ``run_op`` returns an :class:`OpResult`: latency samples by kind,
the work counts the end-to-end metrics divide by, and one digest per
checked op.  The module imports ``repro`` lazily (inside ``setup``), so
the worker can time the imports as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Mutation rates of the Fig. 12 sweep, cycled by op id.
MUTATION_RATES = (1, 3, 5)

#: Cost groups :func:`op_order` balances every run over (pools divide by it).
STRATA = 8


def derive(*parts: Any) -> int:
    """A 31-bit seed derived from ``parts`` (stable across processes)."""
    text = ":".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) & 0x7FFFFFFF


def digest(payload: Any) -> str:
    """Short content digest of a JSON-serialisable result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def evolution_fields(artifact) -> Dict[str, Any]:
    """The fields of an evolution artifact its digest covers (simulated statistics too)."""
    fields = {key: artifact.results[key] for key in (
        "best_fitness", "fitness_history", "best_genotypes", "n_reconfigurations")}
    fields["platform_time_s"] = artifact.timing["platform_time_s"]
    return fields


def op_order(seed: int, costs: Sequence[float]) -> Iterator[int]:
    """The op ids a run with ``seed`` executes, cycling through the pool.

    ``costs`` gives each op id's time (measured when the goldens were
    made).  The pool is split into :data:`STRATA` equal groups by cost,
    each shuffled by the seed, and every round of ``STRATA`` ops takes one op
    from each group in a seeded order: any prefix of a run holds the same
    mix of quick and slow ops whatever the seed, so the seed changes the
    inputs without changing how much work they are.
    """
    rng = random.Random(seed)
    ranked = sorted(range(len(costs)), key=lambda op_id: (costs[op_id], op_id))
    size = len(ranked) // STRATA
    groups = [ranked[index * size:(index + 1) * size] for index in range(STRATA)]
    while True:
        for group in groups:
            rng.shuffle(group)
        for position in range(size):
            for group in rng.sample(groups, STRATA):
                yield group[position]


@dataclass
class OpResult:
    """What one op produced: latency samples, work counts and digests."""

    wall_s: float = 0.0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    evals: int = 0
    cycles: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    #: Checks the op made against itself (a warm run against its cold twin).
    self_checks: int = 0
    self_failures: int = 0

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)


class Workload:
    """Base class: ``setup`` once, ``warmup`` once, then ``run_op`` per op id."""

    name = ""
    pool = 0
    #: Op pairs (untraced + traced) a ``--trace 1`` run executes.
    trace_ops = 0

    def __init__(self, backend: str = "numpy", scratch: Optional[Path] = None,
                 perturb_every: int = 0) -> None:
        self.backend = backend
        self.scratch = scratch
        self.perturb_every = perturb_every
        self._n_run = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_op(self, op_id: int) -> OpResult:
        raise NotImplementedError

    def _perturb(self) -> bool:
        """Whether this op's result is deliberately corrupted (self-check only)."""
        self._n_run += 1
        return bool(self.perturb_every) and self._n_run % self.perturb_every == 0


# ---------------------------------------------------------------------- #
class EvolveFig12(Workload):
    """Fig. 12: parallel (1+9) evolution on 3 arrays, 128x128 salt-and-pepper."""

    name = "evolve-fig12"
    pool = 1024
    trace_ops = 48
    image_side = 128
    generations = 40

    def setup(self) -> None:
        from repro.api import TaskSpec

        self.pair = TaskSpec(
            task="salt_pepper_denoise", image_side=self.image_side,
            noise_level=0.1, seed=derive(self.name, "task"),
        ).build()

    def _evolve(self, op_id: int):
        from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig

        session = EvolutionSession(
            PlatformConfig(n_arrays=3, seed=derive(self.name, op_id, "platform"),
                           backend=self.backend),
            EvolutionConfig(
                strategy="parallel", n_generations=self.generations, n_offspring=9,
                mutation_rate=MUTATION_RATES[op_id % len(MUTATION_RATES)],
                seed=derive(self.name, op_id, "evolution"),
            ),
        )
        return session.evolve(self.pair)

    def warmup(self) -> None:
        self._evolve(self.pool)

    def run_op(self, op_id: int) -> OpResult:
        started = time.perf_counter()
        artifact = self._evolve(op_id)
        elapsed = time.perf_counter() - started
        out = OpResult(wall_s=elapsed, evals=artifact.results["n_evaluations"],
                       cycles=artifact.results["n_generations"])
        out.add("run", elapsed)
        checked = evolution_fields(artifact)
        if self._perturb():
            checked["fitness_history"]["0"][-1] += 1.0
        out.digests[str(op_id)] = digest(checked)
        return out


# ---------------------------------------------------------------------- #
class HealMission(Workload):
    """§V.A: scrub-classify-evolve monitoring under a fault-dense timeline."""

    name = "heal-mission"
    pool = 256
    trace_ops = 10
    image_side = 64
    cycles = 40
    reference_key = "scoreboard-reference"
    #: Poisson SEUs every cycle plus LPD onsets (cycle, count); no background scrub.
    scenario = {
        "name": "scoreboard-dense",
        "seu_rate": 0.4,
        "lpd_onsets": [[5, 3], [25, 3]],
    }
    repair_generations = 40

    def setup(self) -> None:
        from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec
        from repro.scenarios import FaultScenario

        self.pair = TaskSpec(
            task="salt_pepper_denoise", image_side=self.image_side,
            noise_level=0.1, seed=derive(self.name, "task"),
        ).build()
        # The working circuit every mission starts from, evolved once.
        working = EvolutionSession(
            PlatformConfig(n_arrays=3, seed=derive(self.name, "working"),
                           backend=self.backend),
            EvolutionConfig(strategy="parallel", n_generations=100,
                            seed=derive(self.name, "working")),
        ).evolve(self.pair).raw
        self.working = working.best_genotypes[0]
        self.fault_scenario = FaultScenario(**self.scenario)

    def warmup(self) -> None:
        self._mission(self.pool, OpResult())

    def _mission(self, op_id: int, out: OpResult) -> Dict[str, Any]:
        from repro.api import PlatformConfig, SelfHealingConfig
        from repro.imaging.metrics import sae
        from repro.scenarios import ScenarioRunner, compile_schedule

        training, reference = self.pair.training, self.pair.reference
        platform = PlatformConfig(
            n_arrays=3, seed=derive(self.name, op_id, "platform"), backend=self.backend
        ).build()
        platform.configure_all(self.working)
        platform.store_image(self.reference_key, reference)
        healer = SelfHealingConfig(
            strategy="cascaded", reference_image_key=self.reference_key,
            imitation_generations=self.repair_generations,
            seed=derive(self.name, op_id, "healing"),
        ).build(platform, training, reference)
        healer.initialize()
        geometry = platform.geometry
        runner = ScenarioRunner(platform, compile_schedule(
            self.fault_scenario, self.cycles, n_arrays=platform.n_arrays,
            rows=geometry.rows, cols=geometry.cols, seed=platform.fabric.seed,
        ))
        classes: List[str] = []
        for _ in range(self.cycles):
            started = time.perf_counter()
            runner.advance()
            report = healer.check_and_heal(training)
            elapsed = time.perf_counter() - started
            fault_class = report.fault_class.value
            classes.append(fault_class)
            if fault_class != "none":
                out.add("repair", elapsed)
            if report.recovery_result is not None:
                out.evals += report.recovery_result.n_evaluations
        out.cycles += self.cycles
        final = {
            str(index): sae(platform.acb(index).shadow_process(training), reference)
            for index in range(platform.n_arrays)
        }
        return {"fault_classes": classes, "final_fitness": final}

    def run_op(self, op_id: int) -> OpResult:
        out = OpResult()
        started = time.perf_counter()
        checked = self._mission(op_id, out)
        out.wall_s = time.perf_counter() - started
        out.add("run", out.wall_s)
        if self._perturb():
            checked["final_fitness"]["0"] += 1.0
        out.digests[str(op_id)] = digest(checked)
        return out


# ---------------------------------------------------------------------- #
class CampaignRerun(Workload):
    """A serial evolve sweep run twice against one persistent fitness cache.

    One op is one round: the cold half runs the grid into an empty cache
    and a fresh store (writes), the warm half reruns the identical grid
    under a second campaign name with a fresh store (reads).
    """

    name = "campaign-rerun"
    pool = 48
    trace_ops = 2
    image_side = 32
    generations = 40
    repeats = 6

    def setup(self) -> None:
        from repro.api import TaskSpec

        # Each campaign run builds the task itself, from this spec.
        self.task = TaskSpec(
            task="salt_pepper_denoise", image_side=self.image_side,
            noise_level=0.1, seed=derive(self.name, "task"),
        )
        self._rounds = 0

    def _spec(self, op_id: int, cache_dir: Path, repeats: int):
        from repro.api import EvolutionConfig, PlatformConfig
        from repro.runtime import CampaignSpec

        return CampaignSpec(
            name=f"rerun-{op_id}-cold",
            runner="evolve",
            platform=PlatformConfig(n_arrays=3, backend=self.backend),
            evolution=EvolutionConfig(
                strategy="parallel", n_generations=self.generations,
                fitness_cache=str(cache_dir),
            ),
            task=self.task,
            grid={"evolution.mutation_rate": list(MUTATION_RATES)},
            repeats=repeats,
            seed=derive(self.name, op_id, "campaign"),
        )

    def _half(self, spec, store: Path, kind: str, out: OpResult) -> List[Dict[str, Any]]:
        from repro.runtime import run_campaign

        marks: List[float] = []
        started = time.perf_counter()
        result = run_campaign(
            spec, executor="serial", store=str(store),
            progress=lambda run, status: marks.append(time.perf_counter()),
        )
        previous = started
        for mark in marks:
            out.add(kind, mark - previous)
            out.add("run", mark - previous)
            previous = mark
        if result.n_failed:
            raise RuntimeError(f"campaign {spec.name!r}: {result.n_failed} run(s) failed")
        artifacts = result.ordered_artifacts()
        for artifact in artifacts:
            out.evals += artifact.results["n_evaluations"]
            out.cycles += artifact.results["n_generations"]
        return [evolution_fields(artifact) for artifact in artifacts]

    def _round(self, op_id: int, repeats: int) -> OpResult:
        out = OpResult()
        self._rounds += 1
        root = self.scratch / f"round-{self._rounds}"
        cold = self._spec(op_id, root / "fitness-cache", repeats)
        warm = dataclasses.replace(cold, name=f"rerun-{op_id}-warm")
        started = time.perf_counter()
        try:
            cold_results = self._half(cold, root / "cold", "cold", out)
            warm_results = self._half(warm, root / "warm", "warm", out)
        finally:
            out.wall_s = time.perf_counter() - started
            shutil.rmtree(root, ignore_errors=True)
        perturb = self._perturb()
        for index, (cold_run, warm_run) in enumerate(zip(cold_results, warm_results)):
            if perturb and index == 0:
                warm_run["fitness_history"]["0"][-1] += 1.0
            out.digests[f"{op_id}/{index}"] = digest(cold_run)
            out.self_checks += 1
            out.self_failures += digest(warm_run) != digest(cold_run)
        return out

    def warmup(self) -> None:
        self._round(self.pool, repeats=1)

    def run_op(self, op_id: int) -> OpResult:
        return self._round(op_id, self.repeats)


WORKLOADS = {cls.name: cls for cls in (EvolveFig12, HealMission, CampaignRerun)}
