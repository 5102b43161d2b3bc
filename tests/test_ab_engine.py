"""Smoke tests of the in-process engine A/B tool (``tools/ab_engine.py``).

Each records one evolve-fig12 op from this checkout and replays it twice
per rep on two engines: this checkout's against itself must agree
(exit 0), an engine that adds 1 to every fitness must not (exit 1), and
a tree that differs outside the engine is refused before recording
(exit 2).
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ENGINE = Path("src") / "repro" / "backends" / "numpy_engine.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ab_engine", REPO_ROOT / "tools" / "ab_engine.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _restore_sys_path(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))


def _copy_src(tmp_path: Path) -> Path:
    shutil.copytree(
        REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path


def _run(change: Path, *extra: str) -> int:
    argv = ["--base", str(REPO_ROOT), "--change", str(change), "--workload", "evolve-fig12"]
    return _tool().main(argv + ["--seed", "1", "--ops", "1", "--reps", "2", *extra])


def test_same_tree_on_both_sides(capsys):
    assert _run(REPO_ROOT, "--json") == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["mismatches"] == 0
    assert result["calls"] > 0
    assert len(result["ratios"]) == 2
    assert len(result["cpu_ms"]["base"]) == len(result["cpu_ms"]["change"]) == 4
    assert out[0].startswith("evolve-fig12: ")


def test_an_engine_with_other_fitness_fails(tmp_path):
    change = _copy_src(tmp_path)
    engine = change / ENGINE
    source = engine.read_text(encoding="utf-8")
    scored = "        self._release_over_budget(planes)\n        return fits\n"
    assert source.count(scored) == 1
    engine.write_text(source.replace(scored, scored.replace("fits", "fits + 1")), encoding="utf-8")
    assert _run(change) == 1


def test_another_changed_src_file_is_refused(tmp_path, capsys):
    change = _copy_src(tmp_path)
    other = change / "src" / "repro" / "__init__.py"
    other.write_text(other.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8")
    assert _run(change) == 2
    assert "src/repro/__init__.py" in capsys.readouterr().out
