"""Human-readable circuit descriptions and phenotype graph export.

Evolved circuits are opaque gene vectors; these helpers turn them into
something an engineer can read or plot:

* :func:`describe_genotype` — a multi-line text description listing, per PE,
  its configured function, whether it is active, and the window pixels the
  array inputs select;
* :func:`phenotype_graph` — the circuit's data-flow graph as a
  :class:`networkx.DiGraph`, with array inputs, PEs and the output node, so
  standard graph tooling (drawing, path analysis, dominators) can be applied.

:mod:`networkx` is imported inside :func:`phenotype_graph`, so ``import repro``
does not load it (pinned by ``tests/test_import_budget.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.activity import active_pes
from repro.array.genotype import Genotype
from repro.array.pe_library import FUNCTION_ARITY, PEFunction
from repro.array.window import window_offsets

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["describe_genotype", "phenotype_graph"]


def _window_name(index: int) -> str:
    dy, dx = window_offsets()[index]
    return f"window({dy:+d},{dx:+d})"


def describe_genotype(genotype: Genotype) -> str:
    """Return a multi-line, human-readable description of a candidate circuit."""
    spec = genotype.spec
    active = active_pes(genotype)
    lines = [
        f"{spec.rows}x{spec.cols} evolvable array circuit",
        f"  output: east output of row {genotype.output_select}",
        f"  active PEs: {len(active)}/{spec.n_pes}",
        "  west inputs (per row):",
    ]
    for row, gene in enumerate(genotype.west_mux):
        lines.append(f"    row {row}: {_window_name(int(gene))}")
    lines.append("  north inputs (per column):")
    for col, gene in enumerate(genotype.north_mux):
        lines.append(f"    col {col}: {_window_name(int(gene))}")
    lines.append("  processing elements:")
    for row in range(spec.rows):
        cells = []
        for col in range(spec.cols):
            function = PEFunction(int(genotype.function_genes[row, col]))
            marker = "*" if (row, col) in active else " "
            cells.append(f"{function.name:>14s}{marker}")
        lines.append("    " + " ".join(cells))
    lines.append("  (* = on the path to the selected output)")
    return "\n".join(lines)


def phenotype_graph(genotype: Genotype) -> "nx.DiGraph":
    """Build the data-flow graph of a candidate circuit.

    Nodes
    -----
    ``("west_in", row)`` / ``("north_in", col)``
        Array inputs with a ``window`` attribute naming the selected pixel.
    ``("pe", row, col)``
        Processing elements with ``function`` and ``active`` attributes.
    ``"output"``
        The array output (east output selected by the output multiplexer).

    Edges carry a ``port`` attribute (``"west"`` or ``"north"``) naming the
    consuming input; only inputs the configured function actually uses are
    present.
    """
    import networkx as nx

    spec = genotype.spec
    graph = nx.DiGraph()
    active = active_pes(genotype)

    for row in range(spec.rows):
        graph.add_node(("west_in", row), window=_window_name(int(genotype.west_mux[row])))
    for col in range(spec.cols):
        graph.add_node(("north_in", col), window=_window_name(int(genotype.north_mux[col])))

    for row in range(spec.rows):
        for col in range(spec.cols):
            function = PEFunction(int(genotype.function_genes[row, col]))
            graph.add_node(
                ("pe", row, col),
                function=function.name,
                active=(row, col) in active,
            )
            uses_west = function != PEFunction.IDENTITY_N and FUNCTION_ARITY[function] >= 1
            uses_north = function == PEFunction.IDENTITY_N or FUNCTION_ARITY[function] >= 2
            if uses_west:
                source = ("pe", row, col - 1) if col > 0 else ("west_in", row)
                graph.add_edge(source, ("pe", row, col), port="west")
            if uses_north:
                source = ("pe", row - 1, col) if row > 0 else ("north_in", col)
                graph.add_edge(source, ("pe", row, col), port="north")

    graph.add_node("output")
    graph.add_edge(("pe", int(genotype.output_select), spec.cols - 1), "output", port="east")
    return graph
