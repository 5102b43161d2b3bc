"""Scenario sweep: the §V.A scrub-classify-evolve lifecycle under fault timelines.

The paper's cascaded self-healing strategy (§V.A) is a *loop*, not a
one-shot: calibrate, detect a fitness divergence, scrub the faulty array,
classify the fault by whether scrubbing restored the baseline (steps f-h),
and launch evolutionary repair only for permanent damage (step i).  This
experiment runs that loop against the built-in fault-scenario timelines —
``single-seu``, ``seu-storm``, ``creeping-permanent``, ``scrub-race``,
``mixed-burst`` — and reports, per scenario, how the platform's decisions
and calibration fitness evolve as faults keep arriving.

Each scenario is one campaign run (runner ``scenario-lifecycle``), so the
sweep fans out over the ``serial``/``thread``/``process`` executors and
persists into a resumable :class:`~repro.runtime.store.CampaignStore`
like every other campaign::

    repro-ehw scenario-sweep --scenario seu-storm --json
    repro-ehw scenario-sweep --executor process --store out/scenarios

One run's lifecycle:

1. evolve a working circuit on the clean platform (no scenario) and
   record the per-array calibration baseline (§V.A steps a-b);
2. advance the compiled scenario one step at a time — SEUs, bursts,
   permanent damage and the scenario's own background scrub cadence all
   fire between monitoring cycles;
3. after each step, run one §V.A check-and-heal cycle and record the
   detection outcome (``none``/``transient``/``permanent``), the scrub
   classification (see :attr:`~repro.fpga.scrubbing.ScrubReport.fully_repaired`)
   and whether recovery succeeded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, SelfHealingConfig, TaskSpec
from repro.api.experiment import (
    ExperimentSpec,
    add_common_options,
    add_executor_options,
    print_table,
    register_experiment,
    scenario_from_args,
)
from repro.api.session import EvolutionSession
from repro.imaging.metrics import sae
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.runtime.runners import register_runner
from repro.scenarios import (
    HAND_WRITTEN_SCENARIOS,
    ScenarioRunner,
    compile_schedule,
    resolve_scenario,
)

__all__ = ["build_scenario_sweep_campaign", "scenario_lifecycle_sweep"]

#: Flash key the lifecycle stores the reference image under, so §V.A
#: recovery re-evolves against the stored reference (the paper's primary
#: path; erase it to exercise the imitation fallback).
_REFERENCE_KEY = "scenario-reference"


@register_runner("scenario-lifecycle")
def run_scenario_lifecycle(run) -> RunArtifact:
    """Campaign runner: one scenario's full §V.A lifecycle.

    Everything arrives in the JSON-shipped :class:`RunSpec`: the fault
    timeline in ``run.evolution.scenario`` (or ``run.healing.scenario``,
    which wins when both are set), the mission length in
    ``run.params["mission_steps"]`` and the healing budgets in
    ``run.healing``.  Results are byte-identical across executors — the
    whole lifecycle is driven by derived seeds.
    """
    healing = run.healing if run.healing is not None else SelfHealingConfig(
        strategy="cascaded", seed=run.seed
    )
    scenario = resolve_scenario(
        healing.scenario if healing.scenario is not None else run.evolution.scenario
    )
    if scenario is None:
        raise ValueError(
            "the scenario-lifecycle runner needs a fault scenario in "
            "evolution.scenario (or healing.scenario)"
        )
    mission_steps = int(run.params.get("mission_steps", 12))

    # Steps (a)-(b): evolve a working circuit on the *clean* platform and
    # record the calibration baseline the detector compares against.
    platform = run.platform.build()
    session = EvolutionSession(platform, run.evolution.replace(scenario=None))
    pair = run.task.build()
    initial = session.evolve(pair)
    platform.store_image(_REFERENCE_KEY, pair.reference)
    baseline = platform.calibrate(pair.training, pair.reference)
    healer = healing.replace(reference_image_key=_REFERENCE_KEY).build(
        platform, pair.training, pair.reference
    )

    # The mission timeline: one compiled schedule step per monitoring
    # cycle, seeded from the platform's fabric seed (tagged stream).
    schedule = compile_schedule(
        scenario,
        n_generations=mission_steps,
        n_arrays=platform.n_arrays,
        rows=platform.geometry.rows,
        cols=platform.geometry.cols,
        seed=platform.fabric.seed,
    )
    runner = ScenarioRunner(platform, schedule)

    rows: List[Dict[str, Any]] = []
    counts = {"transient": 0, "permanent": 0, "recovered": 0}
    for step in range(mission_steps):
        events = runner.advance()
        report = healer.check_and_heal(pair.training)
        fault_class = report.fault_class.value
        if fault_class in counts:
            counts[fault_class] += 1
        if report.recovered and fault_class != "none":
            counts["recovered"] += 1
        rows.append({
            "step": step,
            "events": events,
            "n_events": len(events),
            "fault_class": fault_class,
            "faulty_array": report.faulty_array,
            "recovered": bool(report.recovered),
            "worst_fitness": max(report.fitness_after.values())
            if report.fitness_after else None,
        })

    final_fitness = {
        index: sae(platform.acb(index).shadow_process(pair.training), pair.reference)
        for index in range(platform.n_arrays)
    }
    event_counts = schedule.counts()
    return RunArtifact(
        kind="scenario-lifecycle",
        config={
            "scenario": scenario.to_dict(),
            "mission_steps": mission_steps,
            "platform": run.platform.to_dict(),
            "evolution": run.evolution.to_dict(),
            "healing": healing.to_dict(),
        },
        results={
            "scenario": scenario.name,
            "schedule_signature": schedule.signature(),
            "baseline_fitness": {str(k): v for k, v in sorted(baseline.items())},
            "final_fitness": {str(k): v for k, v in sorted(final_fitness.items())},
            "initial_best_fitness": initial.results["overall_best_fitness"],
            "n_seus": event_counts["seu"],
            "n_lpds": event_counts["lpd"],
            "n_scrubs": event_counts["scrub"],
            "n_transient": counts["transient"],
            "n_permanent": counts["permanent"],
            "n_recovered": counts["recovered"],
            "rows": rows,
        },
    )


def build_scenario_sweep_campaign(
    scenarios=HAND_WRITTEN_SCENARIOS,
    image_side: int = 24,
    n_generations: int = 40,
    mission_steps: int = 12,
    healing_generations: int = 40,
    n_runs: int = 1,
    n_offspring: int = 9,
    mutation_rate: int = 3,
    noise_level: float = 0.1,
    seed: int = 2013,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
) -> CampaignSpec:
    """One campaign run per (scenario, repetition), sweeping ``evolution.scenario``.

    ``scenarios`` may mix registered names and inline scenario dicts —
    both JSON round-trip through the grid axis unchanged.  With
    ``n_runs > 1`` the platform/evolution/healing seeds are left unset so
    each replicate derives distinct-but-reproducible streams from the
    campaign seed (the standard ``repeats`` semantics); with a single run
    they stay pinned to ``seed``.
    """
    replicated = n_runs > 1
    return CampaignSpec(
        name="scenario-sweep",
        runner="scenario-lifecycle",
        platform=PlatformConfig(
            n_arrays=3, seed=None if replicated else seed, backend=backend
        ),
        evolution=EvolutionConfig(
            strategy="parallel",
            n_generations=n_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=None if replicated else seed,
            fitness_cache=fitness_cache,
        ),
        task=TaskSpec(
            task="salt_pepper_denoise",
            image_side=image_side,
            noise_level=noise_level,
            seed=seed,
        ),
        healing=SelfHealingConfig(
            strategy="cascaded",
            imitation_generations=healing_generations,
            n_offspring=n_offspring,
            mutation_rate=mutation_rate,
            seed=None if replicated else seed,
        ),
        grid={"evolution.scenario": list(scenarios)},
        params={"mission_steps": int(mission_steps)},
        seed=seed,
        repeats=int(n_runs),
    )


def scenario_lifecycle_sweep(
    scenarios=HAND_WRITTEN_SCENARIOS,
    image_side: int = 24,
    n_generations: int = 40,
    mission_steps: int = 12,
    healing_generations: int = 40,
    n_runs: int = 1,
    seed: int = 2013,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    store=None,
    backend: str = "reference",
    fitness_cache: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run the sweep; one summary row per (scenario, repetition)."""
    spec = build_scenario_sweep_campaign(
        scenarios=scenarios,
        image_side=image_side,
        n_generations=n_generations,
        mission_steps=mission_steps,
        healing_generations=healing_generations,
        n_runs=n_runs,
        seed=seed,
        backend=backend,
        fitness_cache=fitness_cache,
    )
    campaign = run_campaign(spec, executor=executor, max_workers=max_workers, store=store)
    rows: List[Dict[str, Any]] = []
    for run in campaign.runs:
        results = campaign.artifact_for(run).results
        rows.append({
            "scenario": results["scenario"],
            "run": int(run.params.get("repeat", 0)),
            "seus": results["n_seus"],
            "lpds": results["n_lpds"],
            "scrubs": results["n_scrubs"],
            "transient": results["n_transient"],
            "permanent": results["n_permanent"],
            "recovered": results["n_recovered"],
            "final_worst_fitness": max(results["final_fitness"].values()),
        })
    return rows


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser) -> None:
    add_common_options(parser, generations=40, image_side=24, runs=1)
    add_executor_options(parser)
    parser.add_argument("--mission-steps", type=int, default=12,
                        help="monitoring cycles per scenario (one scenario "
                             "timeline step each)")
    parser.add_argument("--healing-generations", type=int, default=40,
                        help="generation budget of each §V.A recovery evolution")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="resumable campaign store directory")


def _run(args) -> RunArtifact:
    scenario = scenario_from_args(args)
    scenarios = [scenario] if scenario is not None else list(HAND_WRITTEN_SCENARIOS)
    rows = scenario_lifecycle_sweep(
        scenarios=scenarios,
        image_side=args.image_side,
        n_generations=args.generations,
        mission_steps=args.mission_steps,
        healing_generations=args.healing_generations,
        n_runs=args.runs,
        seed=args.seed,
        executor=args.executor,
        max_workers=args.workers,
        store=args.store,
        backend=args.backend,
        fitness_cache=args.fitness_cache,
    )
    return RunArtifact(
        kind="scenario-sweep",
        config={"args": {
            "scenarios": scenarios,
            "runs": args.runs,
            "generations": args.generations,
            "mission_steps": args.mission_steps,
            "healing_generations": args.healing_generations,
            "image_side": args.image_side,
            "seed": args.seed,
            "backend": args.backend,
        }},
        results={"rows": rows},
    )


def _render(artifact: RunArtifact) -> None:
    print_table(
        "Scenario sweep: §V.A scrub-classify-evolve lifecycle",
        artifact.results["rows"],
        ["scenario", "run", "seus", "lpds", "scrubs", "transient", "permanent",
         "recovered", "final_worst_fitness"],
    )


register_experiment(ExperimentSpec(
    name="scenario-sweep",
    help="§V.A lifecycle across fault-scenario timelines (extension)",
    configure=_configure,
    run=_run,
    render=_render,
))
