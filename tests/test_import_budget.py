"""Import budget: ``import repro`` must not load scipy or networkx.

Every CLI invocation, campaign run, service worker and scoreboard op starts
with ``import repro``; the evolution, healing and campaign paths never call
scipy or networkx, so the baseline filters (:mod:`repro.imaging.filters`)
and :func:`repro.analysis.phenotype_graph` import them on first use.  Each
test runs a fresh interpreter, because this process has long since loaded
both libraries through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC_DIR))

#: Modules that only the baseline filters and the graph export need
#: (``numpy.f2py`` comes in through scipy).
HEAVY = ("scipy", "networkx", "numpy.f2py")


def _run(source: str):
    """Run ``source`` in a fresh interpreter; its last stdout line is JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", source],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_source(body: str) -> str:
    return (
        "import json, sys\n"
        f"{body}\n"
        f"print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))\n"
    )


def test_entry_points_do_not_import_scipy_or_networkx():
    entry_points = "import repro, repro.api, repro.runtime, repro.scenarios, repro.cli"
    assert _run(_loaded_source(entry_points)) == []


def test_training_pair_loads_scipy_on_demand():
    source = _loaded_source(
        "from repro.imaging import make_training_pair\n"
        "pair = make_training_pair('edge_detect', size=16, seed=1)\n"
        "assert pair.reference.shape == (16, 16) and pair.reference.any()"
    )
    assert "scipy" in _run(source)


def test_phenotype_graph_loads_networkx_on_demand():
    source = (
        "import json, networkx\n"
        "from repro.analysis import phenotype_graph\n"
        "from repro.array import Genotype\n"
        "graph = phenotype_graph(Genotype.identity())\n"
        "print(json.dumps([isinstance(graph, networkx.DiGraph), graph.has_node('output')]))\n"
    )
    assert _run(source) == [True, True]
