"""Systematic fault analysis of the multi-array platform.

The paper's self-healing section builds on the single-array systematic
fault analysis ("injecting faults in each position of a single 4x4
processing array", §V) and lists a platform-wide criticality assessment as
future work (§VII).  This experiment performs that assessment on the
reproduced platform: it evolves a working circuit, sweeps a PE-level fault
over every position of every array, and reports how many positions are
benign, how many are critical, and how well the structural activity
analysis predicts the measured impact — the quantitative backing for the
claim that faults in unused PEs do not need healing at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.criticality import CriticalityReport, fault_sweep
from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    add_executor_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.api.session import EvolutionSession
from repro.array.genotype import Genotype, GenotypeSpec
from repro.imaging.images import ImagePair, make_training_pair
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.runtime.runners import register_runner

__all__ = [
    "FaultSweepSummary",
    "build_fault_sweep_campaign",
    "systematic_fault_analysis",
]


@dataclass(frozen=True)
class FaultSweepSummary:
    """Aggregate view of a platform-wide fault sweep."""

    array_index: int
    n_positions: int
    n_benign: int
    n_critical: int
    max_degradation: float
    mean_degradation: float
    structurally_inactive_but_critical: int
    structurally_active_but_benign: int


def summarise(report: CriticalityReport) -> FaultSweepSummary:
    """Reduce a per-position criticality report to its headline numbers."""
    degradations = [entry.degradation for entry in report.positions]
    inactive_but_critical = sum(
        1 for entry in report.positions
        if not entry.structurally_active and entry.degradation > 0
    )
    active_but_benign = sum(
        1 for entry in report.positions
        if entry.structurally_active and entry.degradation == 0
    )
    return FaultSweepSummary(
        array_index=report.array_index if report.array_index is not None else -1,
        n_positions=len(report.positions),
        n_benign=report.n_benign,
        n_critical=report.n_critical,
        max_degradation=max(degradations) if degradations else 0.0,
        mean_degradation=(sum(degradations) / len(degradations)) if degradations else 0.0,
        structurally_inactive_but_critical=inactive_but_critical,
        structurally_active_but_benign=active_but_benign,
    )


@register_runner("fault-sweep-array")
def run_fault_sweep_array(run) -> RunArtifact:
    """Campaign runner: sweep a PE-level fault over one array's circuit.

    Everything arrives JSON-serialised in ``run.params``: the flat gene
    vector of the configured circuit, the workload images (with their
    dtype, so the round trip is lossless) and the sweep parameters.  The
    runner reproduces exactly what
    :func:`repro.analysis.criticality.platform_fault_sweep` computes for
    one array — same per-position fault seeds, same report — just as an
    independent, schedulable unit of work.
    """
    params = run.params
    array_index = int(params["array_index"])
    spec = GenotypeSpec(rows=int(params["rows"]), cols=int(params["cols"]))
    genotype = Genotype.from_flat(spec, params["genotype"])
    dtype = np.dtype(params["image_dtype"])
    training = np.asarray(params["training"], dtype=dtype)
    reference = np.asarray(params["reference"], dtype=dtype)
    report = fault_sweep(
        genotype,
        training,
        reference,
        n_repeats=int(params["n_repeats"]),
        seed=int(params["sweep_seed"]) + array_index,
        array_index=array_index,
        backend=str(params.get("backend", "reference")),
    )
    return RunArtifact(
        kind="fault-sweep-array",
        config={"array_index": array_index, "n_repeats": int(params["n_repeats"])},
        results={
            "summary": asdict(summarise(report)),
            "baseline_fitness": report.baseline_fitness,
            "positions": report.as_rows(),
        },
    )


def build_fault_sweep_campaign(
    genotypes: Dict[int, Genotype],
    pair: ImagePair,
    n_repeats: int = 3,
    seed: int = 2013,
    name: str = "fault-sweep",
    backend: str = "reference",
) -> CampaignSpec:
    """One campaign run per configured array, sweeping that array's circuit.

    ``genotypes`` maps array indices to the circuits to assess (typically
    ``platform.acb(i).genotype`` after an evolution run).  The genotype of
    each array rides along its ``array_index`` as a paired axis, so the
    expansion stays a flat list of independent, JSON-shippable runs.
    """
    indices = sorted(genotypes)
    if not indices:
        raise ValueError("fault-sweep campaign needs at least one configured array")
    spec = genotypes[indices[0]].spec
    return CampaignSpec(
        name=name,
        runner="fault-sweep-array",
        paired={
            "array_index": [int(index) for index in indices],
            "genotype": [genotypes[index].to_flat().tolist() for index in indices],
        },
        params={
            "rows": spec.rows,
            "cols": spec.cols,
            "n_repeats": int(n_repeats),
            "sweep_seed": int(seed),
            "backend": str(backend),
            "image_dtype": str(pair.training.dtype),
            "training": pair.training.tolist(),
            "reference": pair.reference.tolist(),
        },
        seed=seed,
    )


def systematic_fault_analysis(
    image_side: int = 32,
    noise_level: float = 0.15,
    n_generations: int = 200,
    n_repeats: int = 3,
    n_arrays: int = 3,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    seed: int = 2013,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
    scenario=None,
) -> List[FaultSweepSummary]:
    """Evolve a working circuit, then fault-sweep every PE of every array.

    The initial evolution runs once in this process; the per-array sweeps
    are independent, so they fan out as a campaign on the selected
    executor.  Returns one :class:`FaultSweepSummary` per array, identical
    for every executor (and to the legacy serial
    :func:`repro.analysis.criticality.platform_fault_sweep` path).
    """
    pair = make_training_pair(
        "salt_pepper_denoise", size=image_side, seed=seed, noise_level=noise_level
    )
    session = EvolutionSession(
        PlatformConfig(n_arrays=n_arrays, seed=seed, backend=backend),
        EvolutionConfig(
            strategy="parallel",
            n_generations=n_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=seed,
            fitness_cache=fitness_cache,
            scenario=scenario,
        ),
    )
    session.evolve(pair)

    genotypes = {
        index: session.platform.acb(index).genotype
        for index in range(session.platform.n_arrays)
        if session.platform.acb(index).genotype is not None
    }
    spec = build_fault_sweep_campaign(
        genotypes, pair, n_repeats=n_repeats, seed=seed, backend=backend
    )
    campaign = run_campaign(spec, executor=executor, max_workers=max_workers)
    return [
        FaultSweepSummary(**campaign.artifact_for(run).results["summary"])
        for run in campaign.runs
    ]


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    add_common_options(parser, generations=150)
    add_executor_options(parser)


def _run(args) -> RunArtifact:
    summaries = systematic_fault_analysis(
        image_side=args.image_side,
        n_generations=args.generations,
        seed=args.seed,
        executor=args.executor,
        max_workers=args.workers,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
        scenario=scenario_from_args(args),
    )
    rows = [
        {"array": s.array_index, "benign": s.n_benign, "critical": s.n_critical,
         "max_degradation": s.max_degradation,
         "inactive_but_critical": s.structurally_inactive_but_critical}
        for s in summaries
    ]
    return RunArtifact(
        kind="fault-sweep",
        config={"args": {"generations": args.generations,
                         "image_side": args.image_side, "seed": args.seed,
                         "backend": args.backend}},
        results={"rows": rows},
    )


def _render(artifact: RunArtifact) -> None:
    print_table("Systematic PE-level fault sweep", artifact.results["rows"],
                ["array", "benign", "critical", "max_degradation",
                 "inactive_but_critical"])


register_experiment(ExperimentSpec(
    name="fault-sweep",
    help="systematic PE-level fault sweep (extension)",
    configure=_configure,
    run=_run,
    render=_render,
))
