"""Experiment registration: how paper-figure runners plug into the CLI.

Each module in :mod:`repro.experiments` registers an
:class:`ExperimentSpec` describing its CLI subcommand — name, help text,
argument configuration, the runner producing a
:class:`~repro.api.artifact.RunArtifact`, and the table renderer.  The
CLI iterates the ``experiment`` registry instead of hard-wiring one
function per figure, so new experiments (including third-party plugins)
appear as subcommands simply by registering.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.api.artifact import RunArtifact
from repro.api.registry import register

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "add_common_options",
    "add_executor_options",
    "scenario_from_args",
    "print_table",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One CLI-exposed experiment.

    Attributes
    ----------
    name:
        Subcommand name (e.g. ``new-ea``).
    help:
        One-line help shown in ``repro-ehw --help``.
    configure:
        Adds the experiment's arguments to its subparser.
    run:
        Executes the experiment from parsed arguments and returns a
        :class:`RunArtifact`.
    render:
        Prints the artifact as the human-readable tables the benchmark
        harness and the paper comparison expect.
    """

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], RunArtifact]
    render: Callable[[RunArtifact], None]


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` in the ``experiment`` registry and return it."""
    return register("experiment", spec.name, spec)


def add_common_options(
    parser: argparse.ArgumentParser,
    generations: int,
    image_side: int = 32,
    runs: int = 3,
) -> None:
    """Add the budget options every experiment subcommand shares."""
    from repro.backends import BACKENDS

    parser.add_argument("--seed", type=int, default=2013, help="random seed")
    parser.add_argument("--generations", type=int, default=generations,
                        help="generation budget")
    parser.add_argument("--image-side", type=int, default=image_side,
                        help="test image side in pixels")
    parser.add_argument("--runs", type=int, default=runs, help="repetitions")
    parser.add_argument(
        "--backend",
        default="reference",
        choices=sorted(BACKENDS.names()),
        help="array evaluation backend (bit-exact; changes wall-clock "
             "time only)",
    )
    parser.add_argument(
        "--fitness-cache",
        metavar="DIR",
        default=None,
        help="persist evaluated fitnesses under DIR and reuse them across "
             "runs (opt-in; value-transparent — cached values are exactly "
             "what a full evaluation would produce)",
    )


def scenario_from_args(args: argparse.Namespace):
    """Resolve the CLI-level ``--scenario`` value of an experiment run.

    The flag is added centrally by :func:`repro.cli.build_parser` (every
    subcommand accepts it); experiments whose workload evolves call this
    helper and thread the result into their
    :class:`~repro.api.config.EvolutionConfig`.  Returns ``None``, a
    registered scenario name, or an inline scenario dict loaded from a
    ``FaultScenario`` JSON file.
    """
    from repro.scenarios import scenario_from_cli_arg

    return scenario_from_cli_arg(getattr(args, "scenario", None))


def add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Add the campaign-executor options of embarrassingly parallel experiments."""
    # Imported lazily: the api layer sits below repro.runtime, and the
    # registry keeps the choices in sync with pluggable executors.
    from repro.runtime.executors import EXECUTORS

    parser.add_argument(
        "--executor",
        default="serial",
        choices=sorted(EXECUTORS.names()),
        help="campaign execution backend for the experiment's scenario grid",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker cap for the thread/process executors",
    )


def print_table(title: str, rows: Iterable[Mapping], columns: Sequence[str]) -> None:
    """Print experiment rows as a fixed-width table."""
    rows = list(rows)
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    widths = {c: max(len(c), *(len(fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns))
