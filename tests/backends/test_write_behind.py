"""Durability of the write-behind persistent fitness tier.

Newly computed fitnesses are staged in the process-wide index view and
reach disk in one locked, fsynced append when the tier is published: at
the end of a driver run, before the maintenance calls and at process
exit.  These tests kill, fail, tear, race and fork that write site and
check that the index never holds a wrong or partial entry, that a rerun
recomputes exactly what a crash lost, and that staging changes no
telemetry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backends import fitness_cache
from repro.backends.fitness_cache import PersistentFitnessCache
from repro.core.evolution import ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.imaging.images import make_training_pair

SRC_DIR = Path(repro.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC_DIR))

#: One small session run, shared by the tests and their subprocess scripts.
RUN_SOURCE = (
    "from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec\n"
    "def run(cache_dir, mutation_rate=3):\n"
    "    session = EvolutionSession(\n"
    "        PlatformConfig(n_arrays=3, seed=1),\n"
    "        EvolutionConfig(strategy='parallel', n_generations=6, seed=7,\n"
    "                        mutation_rate=mutation_rate, fitness_cache=cache_dir),\n"
    "    )\n"
    "    return session.evolve(TaskSpec(image_side=16, seed=5, noise_level=0.1))\n"
)

#: Runs once with ``publish`` replaced by a kill at the write site: the
#: staged keys are printed, then the process dies without writing them.
KILLED_RUN = RUN_SOURCE + (
    "import json, os, sys\n"
    "from repro.backends.fitness_cache import PersistentFitnessCache\n"
    "def killed(self, values=None):\n"
    "    print(json.dumps(sorted(self._view.staged)), flush=True)\n"
    "    os._exit(3)\n"
    "PersistentFitnessCache.publish = killed\n"
    "run(sys.argv[1])\n"
)

#: A line-driven handle: ``stage <json>`` and ``publish`` commands on stdin.
WORKER = (
    "import json, sys\n"
    "from repro.backends.fitness_cache import PersistentFitnessCache\n"
    "cache = PersistentFitnessCache(sys.argv[1])\n"
    "for line in sys.stdin:\n"
    "    command, _, payload = line.strip().partition(' ')\n"
    "    if command == 'stage':\n"
    "        cache.stage(json.loads(payload))\n"
    "        print('staged', flush=True)\n"
    "    else:\n"
    "        print(cache.publish(), flush=True)\n"
)

#: Stages on one view, then opens more handles than the registry holds.
REGISTRY = (
    "import sys\n"
    "from pathlib import Path\n"
    "from repro.backends import fitness_cache\n"
    "from repro.backends.fitness_cache import PersistentFitnessCache\n"
    "root = Path(sys.argv[1])\n"
    "held = PersistentFitnessCache(root / 'held')\n"
    "held.stage({'a' * 64: 1.0})\n"
    "late = PersistentFitnessCache(root / 'late')\n"
    "for index in range(fitness_cache._MAX_VIEWS + 3):\n"
    "    PersistentFitnessCache(root / f'other-{index}').publish({'%064x' % index: 2.0})\n"
    "again = PersistentFitnessCache(root / 'held')\n"
    "assert again._view is held._view\n"
    "assert again.lookup(['a' * 64]) == {'a' * 64: 1.0}\n"
    "assert all(view is not late._view for view in fitness_cache._VIEWS.values())\n"
    "late.stage({'b' * 64: 3.0})\n"
)


def run(cache_dir, mutation_rate=3):
    namespace = {}
    exec(RUN_SOURCE, namespace)
    return namespace["run"](cache_dir, mutation_rate)


def results_json(artifact):
    return json.dumps(artifact.results, sort_keys=True)


def oracle(index_path):
    """First-write-wins parse of the index's complete lines, from scratch."""
    try:
        data = Path(index_path).read_bytes()
    except FileNotFoundError:
        return {}
    entries = {}
    for line in data[: data.rfind(b"\n") + 1].split(b"\n"):
        try:
            entry = json.loads(line)
            key, value = str(entry["key"]), float(entry["fitness"])
        except (KeyError, TypeError, ValueError):
            continue
        entries.setdefault(key, value)
    return entries


def index_keys(index_path):
    """Every key the index's lines carry, duplicates included."""
    return [json.loads(line)["key"] for line in Path(index_path).read_text().splitlines()]


def clear_registry():
    with fitness_cache._VIEWS_LOCK:
        fitness_cache._VIEWS.clear()


@pytest.fixture(autouse=True)
def empty_registry():
    clear_registry()
    yield
    clear_registry()


class TestStaging:
    def test_staged_values_serve_lookups_without_io(self, tmp_path):
        root = tmp_path / "fcache"
        cache = PersistentFitnessCache(root)
        values = {"a" * 64: 10.0, "b" * 64: 20.0}
        cache.stage(values)
        assert not root.exists()
        assert PersistentFitnessCache(root).lookup(values) == values
        assert cache.publish() == 2
        assert oracle(cache.index_path) == values
        assert cache.publish() == 0

    def test_a_driver_run_publishes_once(self, tmp_path, monkeypatch):
        calls = []
        real = PersistentFitnessCache.publish

        def counting(self, values=None):
            calls.append(values)
            return real(self, values)

        monkeypatch.setattr(PersistentFitnessCache, "publish", counting)
        artifact = run(str(tmp_path / "fcache"))
        assert calls == [None]
        stats = artifact.raw.fitness_cache_stats
        entries = oracle(tmp_path / "fcache" / PersistentFitnessCache.INDEX_FILE)
        assert len(entries) == stats["persistent_misses"] > 0


class TestCrash:
    def test_killed_before_publishing_loses_only_its_own_run(self, tmp_path):
        root = tmp_path / "fcache"
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_RUN, str(root)],
            capture_output=True, text=True, env=ENV, timeout=120,
        )
        assert killed.returncode == 3, killed.stderr
        staged = json.loads(killed.stdout)
        assert staged
        cache = PersistentFitnessCache(root)
        assert not cache.index_path.exists() or cache.verify() == []

        rerun = run(str(root))
        assert results_json(rerun) == results_json(run(None))
        assert cache.verify() == []
        assert set(staged) <= set(oracle(cache.index_path))

    def test_failed_append_keeps_the_staged_values(self, tmp_path, monkeypatch):
        cache = PersistentFitnessCache(tmp_path / "fcache")
        values = {"%064x" % index: float(index) for index in range(5)}
        cache.stage(values)
        failures = []
        real = fitness_cache.append_healed

        def fail_once(path, text):
            if not failures:
                failures.append(text)
                raise OSError("no space left on device")
            return real(path, text)

        monkeypatch.setattr(fitness_cache, "append_healed", fail_once)
        with pytest.raises(OSError):
            cache.publish()
        assert cache._view.staged == values
        assert cache.lookup(values) == values
        assert cache.publish() == len(values)
        assert sorted(index_keys(cache.index_path)) == sorted(values)
        assert cache.publish() == 0

    def test_the_run_end_append_heals_a_torn_line(self, tmp_path):
        root = tmp_path / "fcache"
        run(str(root), mutation_rate=1)
        cache = PersistentFitnessCache(root)
        n_lines = len(index_keys(cache.index_path))
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"fitness": 30.0, "key": "' + "2" * 32)  # killed mid-line
        cold = run(str(root), mutation_rate=3)
        assert cache.verify() == [f"line {n_lines + 1}: unparseable index entry"]
        clear_registry()  # the warm run reads everything back from disk
        warm = run(str(root), mutation_rate=3)
        assert results_json(warm) == results_json(cold)
        assert warm.raw.fitness_cache_stats["full_evaluations"] == 0


class TestConcurrency:
    def test_two_processes_publish_overlapping_keys_once_first_write_wins(self, tmp_path):
        root = str(tmp_path / "fcache")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER, root], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, env=ENV,
            )
            for _ in range(2)
        ]

        def send(worker, line):
            worker.stdin.write(line + "\n")
            worker.stdin.flush()
            return worker.stdout.readline().strip()

        first, second = workers
        try:
            a, b, c = "a" * 64, "b" * 64, "c" * 64
            assert send(first, "stage " + json.dumps({a: 1.0, b: 2.0})) == "staged"
            assert send(second, "stage " + json.dumps({b: 102.0, c: 103.0})) == "staged"
            assert send(second, "publish") == "2"
            assert send(first, "publish") == "1"
        finally:
            for worker in workers:
                worker.stdin.close()
                worker.wait(timeout=60)
        index = Path(root) / PersistentFitnessCache.INDEX_FILE
        assert sorted(index_keys(index)) == [a, b, c]
        assert oracle(index) == {a: 1.0, b: 102.0, c: 103.0}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_does_not_republish_its_parents_staged_values(self, tmp_path):
        root = tmp_path / "fcache"
        cache = PersistentFitnessCache(root)
        cache.publish({"0" * 64: 1.0})
        cache.stage({"1" * 64: 2.0})
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                child = PersistentFitnessCache(root)
                if cache.publish() == 0 and child.publish({"2" * 64: 3.0}) == 1:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert oracle(cache.index_path) == {"0" * 64: 1.0, "2" * 64: 3.0}
        assert cache.publish() == 1
        assert index_keys(cache.index_path) == ["0" * 64, "2" * 64, "1" * 64]


class TestRegistry:
    def test_staged_views_outlive_eviction_and_reach_disk_at_exit(self, tmp_path):
        subprocess.run(
            [sys.executable, "-c", REGISTRY, str(tmp_path)], check=True, env=ENV, timeout=120
        )
        index = PersistentFitnessCache.INDEX_FILE
        assert oracle(tmp_path / "held" / index) == {"a" * 64: 1.0}
        assert oracle(tmp_path / "late" / index) == {"b" * 64: 3.0}


class TestCounters:
    def test_cold_and_warm_counters_with_one_faulty_array(self, tmp_path):
        """Pinned from the per-generation publishing tier: staging changes
        no hit, miss, bypass or evaluation count."""
        pair = make_training_pair("salt_pepper_denoise", size=24, seed=7, noise_level=0.1)
        root = str(tmp_path / "fcache")
        counters = []
        for _ in ("cold", "warm"):
            platform = EvolvableHardwarePlatform(n_arrays=3, seed=5, backend="numpy")
            platform.inject_permanent_fault(1, 2, 0)
            driver = ParallelEvolution(
                platform, n_offspring=9, mutation_rate=1, rng=11, fitness_cache=root
            )
            counters.append(driver.run(pair.training, pair.reference, 40).fitness_cache_stats)
        assert counters == [
            {"bypasses": 120, "full_evaluations": 361, "hits": 0, "misses": 241,
             "persistent_hits": 0, "persistent_misses": 241},
            {"bypasses": 120, "full_evaluations": 120, "hits": 0, "misses": 241,
             "persistent_hits": 241, "persistent_misses": 0},
        ]
