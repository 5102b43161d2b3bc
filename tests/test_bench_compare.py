"""The benchmark-regression gate (``tools/bench_compare.py``).

CI's ``benchmark-regression`` job compares each run's pytest-benchmark
JSON against the committed ``benchmarks/baseline.json`` with this tool;
these tests pin its verdicts — most importantly that a synthetic >20%
geomean slowdown fails — so the CI gate is itself tested logic, not a
shell one-liner.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "tools" / "bench_compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pytest_benchmark_doc(means):
    """The shape pytest-benchmark writes with ``--benchmark-json``."""
    return {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}} for name, mean in means.items()
        ]
    }


def test_extract_means_accepts_both_layouts():
    tool = _tool()
    full = _pytest_benchmark_doc({"bench_a": 1.5, "bench_b": 0.25})
    trimmed = {"means": {"bench_a": 1.5, "bench_b": 0.25}}
    assert tool.extract_means(full) == {"bench_a": 1.5, "bench_b": 0.25}
    assert tool.extract_means(trimmed) == {"bench_a": 1.5, "bench_b": 0.25}


def test_within_tolerance_passes():
    tool = _tool()
    baseline = {"bench_a": 1.0, "bench_b": 2.0}
    current = {"bench_a": 1.1, "bench_b": 2.1}  # ~7.6% geomean slowdown
    report = tool.compare_means(current, baseline, max_regression=0.20)
    assert report["ok"], report["reason"]
    assert report["geomean"] < 1.20


def test_synthetic_regression_over_20_percent_fails():
    """The acceptance case: a >20% geomean slowdown must fail the gate."""
    tool = _tool()
    baseline = {"bench_a": 1.0, "bench_b": 2.0}
    current = {"bench_a": 1.3, "bench_b": 2.6}  # uniform 30% slowdown
    report = tool.compare_means(current, baseline, max_regression=0.20)
    assert not report["ok"]
    assert report["geomean"] > 1.20


def test_one_noisy_benchmark_cannot_sink_the_geomean():
    """A single outlier amid stable benchmarks stays within the gate."""
    tool = _tool()
    baseline = {f"bench_{i}": 1.0 for i in range(8)}
    current = dict(baseline, bench_0=1.8)  # one 80% outlier, seven stable
    report = tool.compare_means(current, baseline, max_regression=0.20)
    assert report["ok"], report["reason"]


def test_disjoint_benchmark_sets_fail_rather_than_pass_vacuously():
    tool = _tool()
    report = tool.compare_means({"new": 1.0}, {"old": 1.0}, max_regression=0.20)
    assert not report["ok"]
    assert report["missing"] == ["old"]
    assert report["added"] == ["new"]


def test_cli_exit_codes_and_refresh(tmp_path):
    tool = _tool()
    current = tmp_path / "current.json"
    baseline = tmp_path / "baseline.json"
    current.write_text(json.dumps(_pytest_benchmark_doc({"bench_a": 1.3})))
    baseline.write_text(json.dumps({"means": {"bench_a": 1.0}}))

    assert tool.main([str(current), str(baseline)]) == 1  # 30% > 20%
    assert (
        tool.main([str(current), str(baseline), "--max-regression", "0.5"]) == 0
    )

    # --refresh rewrites the baseline from the current run, after which
    # the same comparison passes.
    assert tool.main([str(current), str(baseline), "--refresh"]) == 0
    refreshed = json.loads(baseline.read_text())
    assert refreshed["means"] == {"bench_a": 1.3}
    assert tool.main([str(current), str(baseline)]) == 0


def test_committed_baseline_is_valid_and_covers_the_gated_benchmarks():
    """The baseline CI compares against must parse and name the suites."""
    tool = _tool()
    doc = json.loads(
        (REPO_ROOT / "benchmarks" / "baseline.json").read_text(encoding="utf-8")
    )
    means = tool.extract_means(doc)
    assert means, "committed baseline is empty"
    for name, mean in means.items():
        assert mean > 0, f"non-positive baseline mean for {name}"
    expected = {
        "test_numpy_backend_speedup_on_evolution_workload",
    }
    assert expected <= set(means), sorted(means)
