"""The tail-read index view behind the persistent fitness cache.

Every :class:`PersistentFitnessCache` handle on one index shares one
process-wide :class:`IndexView` that grows by reading only what other
handles and processes appended.  These tests hold it to a from-scratch
parse of the file across appends, crashes, compaction, truncation and
recreation, and check that sharing it changes no telemetry.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec
from repro.backends import fitness_cache
from repro.backends.fitness_cache import PersistentFitnessCache, _file_lock, append_healed

SRC_DIR = Path(repro.__file__).resolve().parents[1]

PUBLISH_SCRIPT = (
    "import json, sys\n"
    "from repro.backends.fitness_cache import PersistentFitnessCache\n"
    "PersistentFitnessCache(sys.argv[1]).publish(json.loads(sys.argv[2]))\n"
)


TELEMETRY = ("persistent_hits", "persistent_misses", "full_evaluations")

ROTATE_HEX = bytes.maketrans(b"0123456789abcdef", b"123456789abcdef0")


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


def index_line(key, value):
    return json.dumps({"key": key, "fitness": value}, sort_keys=True) + "\n"


def clear_registry():
    with fitness_cache._VIEWS_LOCK:
        fitness_cache._VIEWS.clear()


@pytest.fixture(autouse=True)
def empty_registry():
    clear_registry()
    yield
    clear_registry()


class OracleSequence:
    """One long-lived handle checked against the oracle after every step."""

    def __init__(self, root, seed):
        self.root = root
        self.rng = random.Random(seed)
        self.handle = PersistentFitnessCache(root)
        self.second = PersistentFitnessCache(root)
        self.keys = []

    @property
    def index_path(self):
        return self.handle.index_path

    def new_values(self, count):
        values = {}
        for _ in range(count):
            key = "%064x" % self.rng.getrandbits(256)
            self.keys.append(key)
            values[key] = float(self.rng.randrange(10_000))
        return values

    def foreign_append(self, text):
        """What another process's publish writes (locked, healed)."""
        self.root.mkdir(parents=True, exist_ok=True)
        with _file_lock(self.handle.lock_path):
            append_healed(self.index_path, text)

    def check(self, step):
        found = self.handle.lookup(self.keys)
        assert found == oracle(self.index_path), step

    # ---------------------------------------------------------------- #
    def own_publish(self):
        self.handle.publish(self.new_values(self.rng.randrange(1, 5)))

    def second_handle_publish(self):
        self.second.publish(self.new_values(self.rng.randrange(1, 5)))

    def foreign_lines(self):
        self.foreign_append("".join(index_line(k, v) for k, v in self.new_values(3).items()))

    def foreign_duplicate(self):
        # A republished key with a different value: the first line wins.
        if self.keys:
            key = self.rng.choice(self.keys)
            self.foreign_append(index_line(key, 1e6 + self.rng.randrange(100)))

    def subprocess_publish(self):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        subprocess.run(
            [sys.executable, "-c", PUBLISH_SCRIPT, str(self.root), json.dumps(self.new_values(2))],
            check=True,
            env=env,
        )

    def torn_tail_then_healed_append(self):
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "ab") as handle:
            handle.write(index_line("f" * 64, 7.0)[:40].encode())  # killed mid-line
        self.check("torn tail")
        self.second.publish(self.new_values(2))

    def prune(self):
        self.second.prune()

    def truncate(self):
        if self.index_path.exists():
            size = self.index_path.stat().st_size
            os.truncate(self.index_path, self.rng.randrange(size + 1))

    def delete_directory(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def recreate(self, extra_lines):
        """Delete the directory; recreate an index of equal or larger size."""
        if not self.index_path.exists():
            return
        # Same layout, every key rewritten: the same byte count, other content.
        swapped = re.sub(
            rb'"key": "([0-9a-f]{64})"',
            lambda match: b'"key": "%s"' % match.group(1).translate(ROTATE_HEX),
            self.index_path.read_bytes(),
        )
        shutil.rmtree(self.root)
        if not extra_lines:
            # The equal-size rewrite is told apart by its modification
            # time: let it fall in a later timestamp tick.
            time.sleep(0.02)
        self.root.mkdir()
        tail = "".join(index_line(k, v) for k, v in self.new_values(extra_lines).items())
        self.index_path.write_bytes(swapped + tail.encode())
        self.keys.extend(oracle(self.index_path))

    def recreate_equal(self):
        self.recreate(0)

    def recreate_larger(self):
        self.recreate(2)


ORACLE_STEPS = (
    ["own_publish", "second_handle_publish", "foreign_lines", "foreign_duplicate"] * 4
    + ["subprocess_publish", "torn_tail_then_healed_append", "prune", "truncate"]
    + ["recreate_equal", "recreate_larger", "truncate", "foreign_duplicate", "delete_directory"]
)


class TestOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_lived_handle_matches_a_fresh_parse_after_every_step(self, tmp_path, seed):
        sequence = OracleSequence(tmp_path / "fcache", seed)
        sequence.own_publish()
        sequence.check("initial publish")
        steps = list(ORACLE_STEPS)
        sequence.rng.shuffle(steps)
        for step in steps:
            getattr(sequence, step)()
            sequence.check(step)

    def test_a_torn_fragment_is_reread_until_healed_then_skipped(self, tmp_path):
        sequence = OracleSequence(tmp_path / "fcache", 0)
        sequence.own_publish()
        sequence.torn_tail_then_healed_append()
        sequence.check("healed")
        view = sequence.handle._view
        assert view.offset == sequence.index_path.stat().st_size


class TestTailRead:
    def test_refresh_after_a_one_line_foreign_append_reads_only_that_line(
        self, tmp_path, monkeypatch
    ):
        sequence = OracleSequence(tmp_path / "fcache", 4)
        for _ in range(20):
            sequence.own_publish()
        sequence.check("warm")
        last_line = sequence.index_path.read_bytes().splitlines(keepends=True)[-1]
        new_line = index_line("e" * 64, 5.0)
        sequence.foreign_append(new_line)

        reads = []
        real_open = open

        class SpyFile:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def read(self, *args):
                data = self._handle.read(*args)
                reads.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self._handle, name)

        monkeypatch.setattr(
            fitness_cache, "open", lambda *a, **k: SpyFile(real_open(*a, **k)), raising=False
        )
        assert sequence.handle.lookup(["e" * 64]) == {"e" * 64: 5.0}
        assert reads == [len(last_line) + len(new_line)]
        # Unchanged since: the next refresh is one stat and no read.
        sequence.handle.lookup(["e" * 64])
        assert reads == [len(last_line) + len(new_line)]

    def test_handles_on_one_index_share_one_view(self, tmp_path):
        first = PersistentFitnessCache(tmp_path / "fcache")
        second = PersistentFitnessCache(tmp_path / "sub" / ".." / "fcache")
        assert first._view is second._view
        first.publish({"a" * 64: 1.0})
        assert second.lookup(["a" * 64]) == {"a" * 64: 1.0}
        assert (first.stats.hits, second.stats.hits) == (0, 1)

    def test_threads_publishing_through_two_handles_lose_no_entry(self, tmp_path):
        handles = [PersistentFitnessCache(tmp_path / "fcache") for _ in range(2)]
        n_threads, per_thread = 4, 100
        keys = [
            ["%064x" % (1000 * worker + i) for i in range(per_thread)]
            for worker in range(n_threads)
        ]

        def publish(worker):
            handle = handles[worker % 2]
            for start in range(0, per_thread, 5):
                batch = keys[worker][start : start + 5]
                handle.publish({key: float(worker) for key in batch})
                handle.lookup(batch)

        threads = [
            threading.Thread(target=publish, args=(worker,)) for worker in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        everything = [key for worker_keys in keys for key in worker_keys]
        on_disk = oracle(handles[0].index_path)
        assert sorted(on_disk) == sorted(everything)
        assert len(handles[0].index_path.read_bytes().splitlines()) == len(everything)
        for handle in handles:
            assert handle.lookup(everything) == on_disk


class TestRegistry:
    @staticmethod
    def run(cache_dir, mutation_rate=3):
        session = EvolutionSession(
            PlatformConfig(n_arrays=3, seed=1),
            EvolutionConfig(
                strategy="parallel",
                n_generations=4,
                seed=7,
                mutation_rate=mutation_rate,
                fitness_cache=str(cache_dir),
            ),
        )
        return session.evolve(TaskSpec(image_side=16, seed=5, noise_level=0.1))

    def test_views_of_deleted_cache_directories_are_dropped(self, tmp_path):
        deleted = []
        for index in range(3):
            cache_dir = tmp_path / f"deleted-{index}"
            self.run(cache_dir)
            shutil.rmtree(cache_dir)
            deleted.append(os.path.realpath(cache_dir / "fitness.jsonl"))
        self.run(tmp_path / "live")
        assert not set(deleted) & set(fitness_cache._VIEWS)
        live = os.path.realpath(tmp_path / "live" / "fitness.jsonl")
        assert list(fitness_cache._VIEWS) == [live]

    def test_registry_holds_at_most_a_fixed_number_of_live_views(self, tmp_path):
        for index in range(fitness_cache._MAX_VIEWS + 3):
            PersistentFitnessCache(tmp_path / f"live-{index}").publish({"%064x" % index: 1.0})
        assert len(fitness_cache._VIEWS) == fitness_cache._MAX_VIEWS
        # The least recently requested view is the one evicted.
        oldest, runner_up = list(fitness_cache._VIEWS)[:2]
        PersistentFitnessCache(Path(oldest).parent)
        PersistentFitnessCache(tmp_path / "one-more").publish({"f" * 64: 1.0})
        assert oldest in fitness_cache._VIEWS
        assert runner_up not in fitness_cache._VIEWS

    def test_shared_view_changes_no_telemetry_and_no_trajectory(self, tmp_path):
        """A serial 3-run sweep, cold then warm, with and without sharing."""

        def sweep(cache_dir, before_each_run):
            outcomes = []
            for _ in ("cold", "warm"):
                for mutation_rate in (1, 3, 5):
                    before_each_run()
                    artifact = self.run(cache_dir, mutation_rate)
                    stats = artifact.raw.fitness_cache_stats
                    telemetry = {key: stats[key] for key in TELEMETRY}
                    outcomes.append((telemetry, json.dumps(artifact.results, sort_keys=True)))
            return outcomes

        shared = sweep(tmp_path / "shared", lambda: None)
        fresh = sweep(tmp_path / "fresh", clear_registry)
        assert shared == fresh
        assert shared[0][0]["persistent_hits"] == 0
        assert all(telemetry["full_evaluations"] == 0 for telemetry, _ in shared[3:])
