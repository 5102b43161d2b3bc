"""Positive/negative coverage for every contract rule.

Positives run over the committed fixture files in
``fixtures/violations/`` (the same files the CI job feeds the linter to
prove a seeded violation fails the build); negatives are inline sources
exercising the documented exemptions.
"""

import textwrap

import pytest


def rules_fired(report):
    return sorted({finding.rule for finding in report.findings})


# --------------------------------------------------------------------------- #
# RNG001 — unseeded default_rng / RandomState
# --------------------------------------------------------------------------- #
class TestUnseededDefaultRng:
    def test_aliased_import_evasion_is_caught(self, lint, violations_dir):
        report = lint(violations_dir / "bad_rng_unseeded.py", rules=["RNG001"])
        assert rules_fired(report) == ["RNG001"]
        (finding,) = report.findings
        assert finding.symbol == "numpy.random.default_rng"

    def test_module_alias_evasion_is_caught(self, lint_source):
        report = lint_source(
            "import numpy.random as npr\nGEN = npr.default_rng()\n", rules=["RNG001"]
        )
        assert len(report.findings) == 1

    def test_randomstate_counts(self, lint_source):
        report = lint_source(
            "import numpy as np\nLEGACY = np.random.RandomState()\n", rules=["RNG001"]
        )
        assert len(report.findings) == 1

    def test_seeded_calls_pass(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                from numpy.random import default_rng

                def make(seed):
                    return default_rng(seed)

                GEN = default_rng(2013)
                """
            ),
            rules=["RNG001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RNG002 — global numpy draws
# --------------------------------------------------------------------------- #
class TestGlobalNumpyDraw:
    def test_fixture_fires(self, lint, violations_dir):
        report = lint(violations_dir / "bad_rng_global_draw.py", rules=["RNG002"])
        assert rules_fired(report) == ["RNG002"]

    def test_generator_methods_pass(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                import numpy as np

                def draw(rng: np.random.Generator):
                    return rng.integers(0, 10)
                """
            ),
            rules=["RNG002"],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RNG003 — stdlib random
# --------------------------------------------------------------------------- #
class TestStdlibRandom:
    def test_fixture_fires_for_draw_and_unseeded_instance(self, lint, violations_dir):
        report = lint(violations_dir / "bad_rng_stdlib.py", rules=["RNG003"])
        assert len(report.findings) == 2

    def test_seeded_random_instance_passes(self, lint_source):
        report = lint_source(
            "import random\nSTREAM = random.Random(42)\n", rules=["RNG003"]
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RNG004 — wall-clock reads
# --------------------------------------------------------------------------- #
class TestWallClock:
    def test_fixture_fires(self, lint, violations_dir):
        report = lint(violations_dir / "bad_rng_wall_clock.py", rules=["RNG004"])
        assert len(report.findings) == 2

    def test_service_files_are_allowlisted(self, lint_source):
        report = lint_source(
            "import time\nDEADLINE = time.monotonic() + 5.0\n",
            rules=["RNG004"],
            rel="repro/service/queue.py",
        )
        assert report.findings == []

    def test_clock_reference_without_call_passes(self, lint_source):
        # Injectable clocks (`clock=time.monotonic`) are the sanctioned
        # pattern: the reference is not a read.
        report = lint_source(
            "import time\n\ndef make(clock=time.monotonic):\n    return clock\n",
            rules=["RNG004"],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# FRZ001 — frozen-config mutation
# --------------------------------------------------------------------------- #
class TestFrozenConfigMutation:
    def test_fixture_fires_for_assignment_and_setattr(self, lint, violations_dir):
        report = lint(violations_dir / "bad_frozen_mutation.py", rules=["FRZ001"])
        assert len(report.findings) == 2
        assert {f.line for f in report.findings} == {11, 15}

    def test_post_init_escape_hatch_is_allowed(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Config:
                    value: int

                    def __post_init__(self):
                        object.__setattr__(self, "value", int(self.value))
                """
            ),
            rules=["FRZ001"],
        )
        assert report.findings == []

    def test_dataclasses_replace_passes(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                import dataclasses
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Config:
                    value: int = 0

                def tweak(config: Config) -> Config:
                    return dataclasses.replace(config, value=1)
                """
            ),
            rules=["FRZ001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# LCK001 — lock discipline
# --------------------------------------------------------------------------- #
class TestLockDiscipline:
    def test_fixture_fires_on_the_unlocked_write(self, lint, violations_dir):
        report = lint(violations_dir / "bad_lock_discipline.py", rules=["LCK001"])
        (finding,) = report.findings
        assert finding.symbol == "Store._items"
        assert finding.line == 16

    def test_locked_suffix_convention_is_honoured(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = {}

                    def put(self, key, value):
                        with self._lock:
                            self._put_locked(key, value)

                    def _put_locked(self, key, value):
                        self._items[key] = value
                """
            ),
            rules=["LCK001"],
        )
        assert report.findings == []

    def test_designated_globals_fire_without_any_lock(self, lint_source):
        # The inference-proof case: the store has no lock at all, so
        # nothing is ever "written under a lock" — only the designation
        # catches it (this is how unguarded process-global caches are found).
        report = lint_source(
            "_VIEWS = {}\n\ndef put(key, value):\n    _VIEWS[key] = value\n",
            rules=["LCK001"],
            rel="repro/backends/fitness_cache.py",
        )
        (finding,) = report.findings
        assert finding.symbol == "_VIEWS"

    def test_fitness_cache_view_registry_is_designated(self, lint_source):
        source = textwrap.dedent(
            """
            import threading

            _VIEWS = {}
            _VIEWS_LOCK = threading.Lock()

            def register(path, view):
                with _VIEWS_LOCK:
                    _VIEWS[path] = view

            def forget(path):
                del _VIEWS[path]
            """
        )
        report = lint_source(source, rules=["LCK001"], rel="repro/backends/fitness_cache.py")
        (finding,) = report.findings
        assert finding.symbol == "_VIEWS"
        assert finding.line == 12

    def test_index_view_state_is_designated(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                class IndexView:
                    def __init__(self):
                        self.offset = 0

                    def skip(self, count):
                        self.offset += count
                """
            ),
            rules=["LCK001"],
        )
        (finding,) = report.findings
        assert finding.symbol == "IndexView.offset"

    def test_module_global_guarded_by_module_lock(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                import threading

                _CACHE = {}
                _LOCK = threading.RLock()

                def put(key, value):
                    with _LOCK:
                        _CACHE[key] = value

                def get(key):
                    return _CACHE.get(key)
                """
            ),
            rules=["LCK001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# ORD001 — unsorted set iteration
# --------------------------------------------------------------------------- #
class TestUnsortedSetIteration:
    def test_fixture_fires_for_list_and_join(self, lint, violations_dir):
        report = lint(violations_dir / "bad_ordering.py", rules=["ORD001"])
        assert len(report.findings) == 2

    def test_sorted_wrapper_passes(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                NAMES = {"beta", "alpha"}
                ORDERED = sorted(NAMES)
                ROWS = [name.upper() for name in sorted(NAMES)]
                """
            ),
            rules=["ORD001"],
        )
        assert report.findings == []

    def test_membership_and_len_pass(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                NAMES = {"beta", "alpha"}
                HAS = "alpha" in NAMES
                COUNT = len(NAMES)
                """
            ),
            rules=["ORD001"],
        )
        assert report.findings == []

    def test_set_returning_annotation_is_tracked(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                from typing import Set, Tuple

                def active_pes() -> Set[Tuple[int, int]]:
                    return {(0, 0)}

                def rows():
                    return [pos for pos in active_pes()]
                """
            ),
            rules=["ORD001"],
        )
        assert len(report.findings) == 1


# --------------------------------------------------------------------------- #
# REG001/REG002 — registry naming and duplicates
# --------------------------------------------------------------------------- #
class TestRegistryHygiene:
    def test_fixture_fires_for_name_and_duplicate(self, lint, violations_dir):
        report = lint(violations_dir / "bad_registry_name.py")
        assert rules_fired(report) == ["REG001", "REG002"]
        reg002 = [f for f in report.findings if f.rule == "REG002"]
        assert len(reg002) == 1  # only the second site is blamed

    def test_replace_true_excludes_duplicate(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                from repro.api.registry import register

                register("task", "fine-name", object())
                register("task", "fine-name", object(), replace=True)
                """
            ),
            rules=["REG002"],
        )
        assert report.findings == []

    def test_loop_literal_expansion_catches_loop_registrations(self, lint_source):
        report = lint_source(
            textwrap.dedent(
                """
                from repro.api.registry import register

                for _name in ("good-name", "Bad_Name"):
                    register("task", _name, object())
                """
            ),
            rules=["REG001"],
        )
        (finding,) = report.findings
        assert finding.symbol == "task:Bad_Name"


# --------------------------------------------------------------------------- #
# REG003 — unwired registration modules
# --------------------------------------------------------------------------- #
SPEC_MODULE = """
from repro.api.experiment import ExperimentSpec, register_experiment

register_experiment(ExperimentSpec(
    name="lonely",
    help="h",
    configure=lambda p: None,
    run=lambda a: None,
    render=lambda a: None,
))
"""


class TestUnwiredModule:
    def _tree(self, tmp_path, cli_body, init_body):
        (tmp_path / "src" / "repro" / "experiments").mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
        (tmp_path / "src" / "repro" / "cli.py").write_text(cli_body, encoding="utf-8")
        (tmp_path / "src" / "repro" / "experiments" / "__init__.py").write_text(
            init_body, encoding="utf-8"
        )
        (tmp_path / "src" / "repro" / "experiments" / "lonely.py").write_text(
            SPEC_MODULE, encoding="utf-8"
        )
        return tmp_path / "src"

    def test_unwired_experiment_module_is_flagged(self, tmp_path, lint):
        src = self._tree(tmp_path, "import repro.experiments\n", "")
        report = lint(src, rules=["REG003"], root=tmp_path)
        (finding,) = report.findings
        assert finding.path == "src/repro/experiments/lonely.py"

    def test_wired_through_package_init_passes(self, tmp_path, lint):
        src = self._tree(
            tmp_path,
            "import repro.experiments\n",
            "from repro.experiments.lonely import *  # noqa\n",
        )
        report = lint(src, rules=["REG003"], root=tmp_path)
        assert report.findings == []

    def test_directly_wired_module_passes(self, tmp_path, lint):
        src = self._tree(tmp_path, "import repro.experiments.lonely\n", "")
        report = lint(src, rules=["REG003"], root=tmp_path)
        assert report.findings == []

    def test_rule_is_silent_when_wiring_module_not_linted(self, tmp_path, lint):
        src = self._tree(tmp_path, "import repro.experiments\n", "")
        report = lint(
            src / "repro" / "experiments" / "lonely.py", rules=["REG003"], root=tmp_path
        )
        assert report.findings == []
