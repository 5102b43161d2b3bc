"""The ``repro-ehw campaign`` subcommand: declarative sweeps from the CLI.

A campaign can be given as a JSON spec file (``--spec``) or assembled
inline from axis flags::

    repro-ehw campaign \\
        --grid "evolution.mutation_rate=[1,3]" \\
        --grid "task.noise_level=[0.05,0.1]" \\
        --executor process --store out/campaign --json out/campaign.json

Axis values are parsed as JSON (falling back to comma-separated
strings), so grids can sweep numbers, strings or whole option objects.
The subcommand registers through the same experiment registry as the
paper-figure runners, so ``--json`` artifact output works unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Tuple

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, TaskSpec
from repro.api.experiment import ExperimentSpec, print_table, register_experiment
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.runtime.executors import EXECUTORS

__all__ = ["build_spec_from_args"]


def _parse_values(text: str) -> List[Any]:
    """Parse an axis value list: JSON first, comma-separated strings second."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        return [item.strip() for item in text.split(",") if item.strip()]
    return values if isinstance(values, list) else [values]


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _split_assignment(item: str, flag: str) -> Tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep or not key.strip():
        raise SystemExit(f"{flag} expects KEY=VALUE, got {item!r}")
    return key.strip(), value


def build_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the campaign spec from ``--spec`` or the inline axis flags."""
    if args.spec_file:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            spec = CampaignSpec.from_json(handle.read())
        if args.grid or args.pair or args.set:
            raise SystemExit("--grid/--pair/--set cannot be combined with --spec")
        return spec

    grid: Dict[str, List[Any]] = {}
    for item in args.grid or []:
        key, value = _split_assignment(item, "--grid")
        grid[key] = _parse_values(value)
    paired: Dict[str, List[Any]] = {}
    for item in args.pair or []:
        key, value = _split_assignment(item, "--pair")
        paired[key] = _parse_values(value)
    params: Dict[str, Any] = {}
    for item in args.set or []:
        key, value = _split_assignment(item, "--set")
        params[key] = _parse_scalar(value)
    if not grid and not paired and args.repeats == 1:
        raise SystemExit(
            "a campaign needs at least one sweep axis (--grid/--pair), "
            "--repeats > 1, or a --spec file"
        )
    # --scenario pins the campaign's *base* fault timeline: it seeds the
    # scenario.* axes and is injected into every run's evolution config
    # (an evolution.scenario axis still overrides it per grid point).
    from repro.scenarios import resolve_scenario, scenario_from_cli_arg

    scenario = resolve_scenario(scenario_from_cli_arg(getattr(args, "scenario", None)))
    return CampaignSpec(
        name=args.name,
        runner=args.runner,
        platform=PlatformConfig(seed=args.seed, backend=args.backend),
        evolution=EvolutionConfig(
            n_generations=args.generations,
            seed=args.seed,
            fitness_cache=args.fitness_cache,
        ),
        scenario=scenario,
        task=TaskSpec(image_side=args.image_side, seed=args.seed),
        grid=grid,
        paired=paired,
        params=params,
        seed=args.campaign_seed if args.campaign_seed is not None else args.seed,
        repeats=args.repeats,
    )


# --------------------------------------------------------------------------- #
# CLI registration
# --------------------------------------------------------------------------- #
def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", dest="spec_file", metavar="FILE",
                        help="JSON CampaignSpec file (overrides the inline flags)")
    parser.add_argument("--grid", action="append", metavar="KEY=VALUES",
                        help="cartesian sweep axis, e.g. "
                             "--grid 'evolution.mutation_rate=[1,3,5]' (repeatable)")
    parser.add_argument("--pair", action="append", metavar="KEY=VALUES",
                        help="zipped sweep axis; all --pair axes advance together")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="constant runner parameter for every run")
    parser.add_argument("--name", default="cli-campaign", help="campaign name")
    parser.add_argument("--runner", default="evolve",
                        help="registered campaign runner (default: evolve)")
    parser.add_argument("--executor", default="serial", choices=sorted(EXECUTORS.names()),
                        help="execution backend")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker cap for the thread/process executors")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="resumable campaign store directory")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-execute runs already completed in the store")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed dedupe cache directory: runs "
                             "whose (resolved config, derived seed) signature "
                             "is already published are served from the cache "
                             "instead of re-evolved")
    parser.add_argument("--server", metavar="URL", default=None,
                        help="submit the campaign to a running `repro-ehw "
                             "serve` instance instead of executing locally "
                             "(streams per-run progress until done)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="replicates per grid point")
    parser.add_argument("--campaign-seed", type=int, default=None,
                        help="campaign seed (default: --seed)")
    parser.add_argument("--seed", type=int, default=2013, help="base config seed")
    parser.add_argument("--generations", type=int, default=100,
                        help="generation budget of the base evolution config")
    parser.add_argument("--image-side", type=int, default=32,
                        help="test image side of the base task config")
    from repro.backends import BACKENDS

    parser.add_argument(
        "--backend",
        default="reference",
        choices=sorted(BACKENDS.names()),
        help="array evaluation backend of the base platform config "
             "(bit-exact; sweepable as a 'platform.backend' axis too)",
    )
    parser.add_argument(
        "--fitness-cache",
        metavar="DIR",
        default=None,
        help="persistent cross-run fitness cache of the base evolution "
             "config (value-transparent; sweepable as an "
             "'evolution.fitness_cache' axis too)",
    )


def _run_remote(args: argparse.Namespace, spec: CampaignSpec) -> RunArtifact:
    """Submit the spec to a ``repro-ehw serve`` instance and stream progress."""
    import time

    from repro.service.client import ServiceClient
    from repro.service.protocol import RUN_CACHED, RUN_COMPLETED, RUN_FAILED

    if args.store:
        raise SystemExit(
            "--store cannot be combined with --server: the server manages "
            "its own per-campaign stores under its --root"
        )
    client = ServiceClient(args.server)
    # Telemetry only: artifact timing never feeds results or signatures.
    # repro-lint: disable=RNG004
    started = time.perf_counter()
    receipt = client.submit(spec.to_dict())
    campaign_id = receipt["campaign_id"]
    print(
        f"[campaign {spec.name}] submitted to {args.server} as {campaign_id} "
        f"({receipt['n_cached']} cached, {receipt['n_enqueued']} enqueued)",
        file=sys.stderr,
    )
    for event in client.iter_events(campaign_id, wait=5.0):
        print(
            f"[campaign {spec.name}] {event['run_id']}: {event['status']}",
            file=sys.stderr,
        )
    summary = client.summary(campaign_id)
    n_failed = sum(1 for row in summary["rows"] if row["status"] == RUN_FAILED)
    return RunArtifact(
        kind="campaign",
        config={"campaign": spec.to_dict()},
        results={
            "n_runs": summary["n_runs"],
            "n_completed": sum(
                1 for row in summary["rows"] if row["status"] == RUN_COMPLETED
            ),
            "n_failed": n_failed,
            "n_resumed": 0,
            "n_cached": sum(
                1 for row in summary["rows"] if row["status"] == RUN_CACHED
            ),
            "executor": f"server:{args.server}",
            "rows": summary["rows"],
        },
        # repro-lint: disable=RNG004 -- telemetry-only artifact timing
        timing={"wall_time_s": time.perf_counter() - started},
        provenance={
            "store": summary.get("store"),
            "server": args.server,
            "campaign_id": campaign_id,
        },
    )


def _run(args: argparse.Namespace) -> RunArtifact:
    spec = build_spec_from_args(args)
    if args.server:
        return _run_remote(args, spec)

    def progress(run, status):
        # Progress goes to stderr so `--json` stdout stays machine-readable.
        print(
            f"[campaign {spec.name}] {run.run_id} ({dict(run.overrides)}): {status}",
            file=sys.stderr,
        )

    result = run_campaign(
        spec,
        executor=args.executor,
        max_workers=args.workers,
        store=args.store,
        resume=not args.no_resume,
        cache=args.cache,
        progress=progress,
    )
    return result.artifact()


def _render(artifact: RunArtifact) -> None:
    results = artifact.results
    rows = [
        {
            "run_id": row["run_id"],
            "status": row["status"],
            "overrides": json.dumps(row.get("overrides", {}), sort_keys=True),
            "best_fitness": row.get("overall_best_fitness"),
        }
        for row in results["rows"]
    ]
    print_table(
        f"Campaign {artifact.config['campaign']['name']} "
        f"({results['executor']} executor, "
        f"{results['n_completed']}/{results['n_runs']} completed, "
        f"{results['n_resumed']} resumed, {results.get('n_cached', 0)} cached, "
        f"{results['n_failed']} failed)",
        rows,
        ["run_id", "status", "overrides", "best_fitness"],
    )
    if artifact.provenance.get("store"):
        print(f"\nstore: {artifact.provenance['store']}")


register_experiment(ExperimentSpec(
    name="campaign",
    help="run a declarative parameter-sweep campaign "
         "(serial/thread/process/distributed, or submit to a server)",
    configure=_configure,
    run=_run,
    render=_render,
))
