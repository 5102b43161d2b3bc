"""Smoke test of the interleaved scoreboard A/B tool (``tools/ab_ops.py``).

Both sides are this checkout, so the tool must run one evolve-fig12 op in
each of two worker processes, find every digest equal to the goldens and
exit 0.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("ab_ops", REPO_ROOT / "tools" / "ab_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_op_against_the_same_checkout(capsys):
    tool = _tool()
    argv = ["--base", str(REPO_ROOT), "--change", str(REPO_ROOT), "--workload", "evolve-fig12"]
    code = tool.main(argv + ["--seed", "1", "--pairs", "1", "--ops", "1", "--json"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0, out
    result = json.loads(out[-1])
    assert result["mismatches"] == {"base": 0, "change": 0}
    assert len(result["pairs"]) == 1
    assert result["median_ms"]["base"] > 0 and result["median_ms"]["change"] > 0
    assert out[0].startswith("pair 0: base ")


def test_a_digest_mismatch_fails(monkeypatch):
    """A side whose ops disagree with its goldens makes the tool exit 1."""
    tool = _tool()
    outcome = {
        "base": {"cpu_ms": [1.0], "mismatches": []},
        "change": {"cpu_ms": [1.0], "mismatches": ["7"]},
    }
    monkeypatch.setattr(tool, "run_pair", lambda *args: outcome)
    argv = ["--base", str(REPO_ROOT), "--change", str(REPO_ROOT), "--pairs", "1", "--ops", "1"]
    assert tool.main(argv) == 1


def test_headline_is_the_median_per_pair_ratio(monkeypatch, capsys):
    """Host drift between pairs must not flip the headline.

    The change wins two of three pairs by 1%, but its per-side median
    comes from the one pair it loses, so comparing per-side medians would
    read +33%.
    """
    tool = _tool()
    pairs = iter([(10.0, 9.9), (30.0, 40.0), (50.0, 49.5)])

    def run_pair(*args):
        base, change = next(pairs)
        return {
            "base": {"cpu_ms": [base], "mismatches": []},
            "change": {"cpu_ms": [change], "mismatches": []},
        }

    monkeypatch.setattr(tool, "run_pair", run_pair)
    argv = ["--base", str(REPO_ROOT), "--change", str(REPO_ROOT), "--pairs", "3", "--json"]
    assert tool.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["median_ratio"] == 0.99
    assert result["change_faster"] == 2
    assert result["median_ms"] == {"base": 30.0, "change": 40.0}
    assert "median per-pair change/base: -1.0%" in out[-2]
