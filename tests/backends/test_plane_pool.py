"""The numpy engine's process-wide pool of plane slabs.

Memoised node planes live in slots of pooled ``(planes, H, W)`` slabs; a
plane store hands its slabs back when it dies, and the pool keeps at most
the returning backend's ``max_cache_bytes`` of free slabs per shape.  Only
pages are shared across runs, never values: these tests pin that no plane
a caller receives lives in a slab, that every way a store dies returns
its slabs (within the bound), that a repeated run reuses them, and that
the pool is safe under garbage collection, threads and ``fork``.
"""

import gc
import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec
from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends import numpy_engine
from repro.backends.numpy_engine import NumpyBackend

SPEC = GenotypeSpec()


def _empty_the_pool():
    gc.collect()
    # Bounded wait: a pool lock left held by a deadlocked thread must fail
    # the test that caused it, not hang the suite here.
    assert numpy_engine._SLAB_LOCK.acquire(timeout=30), "the pool lock is stuck"
    try:
        numpy_engine._FREE_SLABS.clear()
    finally:
        numpy_engine._SLAB_LOCK.release()


@pytest.fixture(autouse=True)
def empty_pool():
    """Start and end every test with an empty pool (and no dead stores pending)."""
    _empty_the_pool()
    yield
    _empty_the_pool()


def _planes(side, seed=0):
    image = np.random.default_rng(seed).integers(0, 256, size=(side, side), dtype=np.uint8)
    return extract_windows(image)


def _population(seed, n=9):
    rng = np.random.default_rng(seed)
    return [Genotype.random(SPEC, rng) for _ in range(n)]


def _free(shape=None):
    """The pool's free slabs (of one slab shape, or all of them)."""
    with numpy_engine._SLAB_LOCK:
        if shape is not None:
            return list(numpy_engine._FREE_SLABS.get(shape, []))
        return [slab for free in numpy_engine._FREE_SLABS.values() for slab in free]


def _store_slabs(backend):
    return [slab for store in backend._stores.values() for slab in store.slabs]


def _all_in(slabs, held):
    """Every one of ``slabs`` is (by identity) one of ``held``."""
    return all(any(slab is kept for kept in held) for slab in slabs)


def _fill(backend, planes, seed=0, rounds=3):
    """Evaluate a few populations, so the store memoises planes in several slabs."""
    array = SystolicArray(backend=backend)
    reference = planes[4]
    for round_index in range(rounds):
        array.evaluate_population(planes, _population(seed + round_index), reference)


class TestReturnedPlanes:
    def test_planes_handed_out_never_share_a_slab_and_survive_reuse(self):
        planes = _planes(24)
        backend = NumpyBackend()
        healthy = SystolicArray(backend=backend)
        faulty = SystolicArray(backend=backend)
        faulty.inject_fault((0, 0), seed=7)
        faulty.inject_fault((1, 2), seed=8)
        # Output on the last row, so every fault-tainted output is computed
        # by kernels downstream of the draws, not handed over as a draw.
        genotypes = [
            Genotype(
                spec=SPEC,
                function_genes=genotype.function_genes,
                west_mux=genotype.west_mux,
                north_mux=genotype.north_mux,
                output_select=SPEC.rows - 1,
            )
            for genotype in _population(1)
        ]
        handed = [healthy.process_planes(planes, genotype) for genotype in genotypes]
        handed += [faulty.process_planes(planes, genotype) for genotype in genotypes]
        slabs = _store_slabs(backend)
        assert slabs, "the store memoised no planes"
        for plane in handed:
            assert not any(np.shares_memory(plane, slab) for slab in slabs)
        kept = [plane.copy() for plane in handed]

        del healthy, faulty, backend
        gc.collect()
        assert _all_in(slabs, _free())
        # A new backend takes the pooled slabs and overwrites every slot.
        other = NumpyBackend()
        _fill(other, _planes(24, seed=5), seed=50)
        for plane, copy in zip(handed, kept):
            assert np.array_equal(plane, copy)


class TestDropRoutes:
    @pytest.mark.parametrize(
        "route", ["lru_eviction", "budget_rebuild", "clear_cache", "over_budget", "drop", "gc"]
    )
    def test_every_route_returns_the_slabs_within_the_bound(self, route, monkeypatch):
        take = numpy_engine._take_slab
        taken = []

        def spy(shape):
            taken.append(take(shape))
            return taken[-1]

        monkeypatch.setattr(numpy_engine, "_take_slab", spy)
        planes = _planes(16)
        slab_bytes = 16 * 16 * 16
        budget = 3 * slab_bytes if route == "over_budget" else 1 << 20
        backend = NumpyBackend(max_cache_bytes=budget, max_stores=1)
        _fill(backend, planes, rounds=1 if route == "over_budget" else 3)
        assert len(taken) > 3
        if route == "over_budget":
            # The call outgrew the budget, so _release_over_budget dropped
            # the store at its end; the pool kept the budget's worth.
            assert backend._stores == {}
            free = _free()
            assert len(free) == 3 and _all_in(free, taken)
            return
        assert _free() == []
        if route == "lru_eviction":
            _fill(backend, _planes(16, seed=1), rounds=1)
        elif route == "budget_rebuild":
            monkeypatch.setattr(numpy_engine, "_MAX_NODES", 1)
            _fill(backend, planes, rounds=1)
        elif route == "clear_cache":
            backend.clear_cache()
        elif route == "drop":
            del backend
        else:
            backend.cycle = backend
            ref = weakref.ref(backend)
            del backend
            assert ref() is not None and _free() == []
            gc.collect()
            assert ref() is None
        # The replacement store (eviction, rebuild) draws from the pool first.
        held = _free()
        if route in ("lru_eviction", "budget_rebuild"):
            held += _store_slabs(backend)
        assert _all_in(taken, held)
        assert len(_free((16, 16, 16))) * slab_bytes <= budget

    def test_node_budget_drops_the_store_at_the_end_of_its_call(self, monkeypatch):
        take = numpy_engine._take_slab
        taken = []

        def spy(shape):
            taken.append(take(shape))
            return taken[-1]

        monkeypatch.setattr(numpy_engine, "_take_slab", spy)
        monkeypatch.setattr(numpy_engine, "_MAX_NODES", 1)
        planes = _planes(16)
        backend = NumpyBackend()
        SystolicArray(backend=backend).evaluate_population(planes, _population(0), planes[4])
        # The call passed the node budget, so the same call dropped its
        # store and its slabs are back in the pool; nothing waits for the
        # next call to find the store over budget.
        assert backend._stores == {}
        assert taken and _all_in(taken, _free())

    def test_free_pool_keeps_at_most_the_returning_budget(self):
        planes = _planes(16)
        plane_bytes = 16 * 16
        big = NumpyBackend(max_cache_bytes=1 << 20)
        _fill(big, planes, rounds=4)
        slabs = _store_slabs(big)
        assert len(slabs) > 2
        del big
        assert len(_free()) == len(slabs)
        # A backend whose budget is two 16-plane slabs returns its store:
        # the pool of that shape shrinks to its bound.
        small = NumpyBackend(max_cache_bytes=2 * 16 * plane_bytes)
        array = SystolicArray(backend=small)
        array.evaluate_population(planes, _population(0, n=1), planes[4])
        del array, small
        free = _free((16, 16, 16))
        assert len(free) == 2

    def test_slabs_shrink_to_a_small_budget(self):
        planes = _planes(16)
        backend = NumpyBackend(max_cache_bytes=3 * 16 * 16 + 5)
        _fill(backend, planes, rounds=1)
        assert all(slab.shape == (3, 16, 16) for slab in _free())
        assert len(_free()) == 1


class TestReuse:
    @staticmethod
    def _evolve():
        session = EvolutionSession(
            PlatformConfig(n_arrays=3, seed=3, backend="numpy"),
            EvolutionConfig(strategy="parallel", n_generations=12, seed=3, mutation_rate=3),
        )
        return session.evolve(TaskSpec(image_side=24, seed=3, noise_level=0.1))

    def test_second_identical_run_allocates_no_new_slab(self, monkeypatch):
        first = self._evolve()
        gc.collect()
        assert _free(), "the first run pooled no slabs"
        take = numpy_engine._take_slab
        fresh = []

        def spy(shape):
            pooled = _free(shape)
            slab = take(shape)
            fresh.append(not _all_in([slab], pooled))
            return slab

        monkeypatch.setattr(numpy_engine, "_take_slab", spy)
        second = self._evolve()
        assert fresh and not any(fresh)
        assert second.results["best_fitness"] == first.results["best_fitness"]
        assert second.results["fitness_history"] == first.results["fitness_history"]


class TestConcurrency:
    def test_store_freed_from_a_cycle_returns_slabs_without_deadlock(self):
        def build():
            backend = NumpyBackend()
            _fill(backend, _planes(16))
            backend.cycle = backend
            return weakref.ref(backend), _store_slabs(backend)

        ref, slabs = build()
        assert ref() is not None
        done = threading.Event()

        def collect_inside_the_pool():
            # The collector can run while this thread is inside the pool
            # (any allocation there may trigger it) and frees the store,
            # which returns its slabs through the same lock.
            with numpy_engine._SLAB_LOCK:
                gc.collect()
            done.set()

        worker = threading.Thread(target=collect_inside_the_pool, daemon=True)
        worker.start()
        assert done.wait(timeout=30), "returning slabs from a collected store deadlocked"
        worker.join()
        assert ref() is None
        assert _all_in(slabs, _free())

    def test_threads_on_separate_backends_stay_bit_exact(self):
        plane_sets = [_planes(24, seed=seed) for seed in range(2)]
        populations = [_population(100 + index) for index in range(4)]
        reference = SystolicArray(backend="reference")
        expected = [
            [
                reference.evaluate_population(planes, population, planes[4])
                for population in populations
            ]
            for planes in plane_sets
        ]
        failures = []

        def work():
            try:
                for _ in range(4):
                    # A fresh backend each round: slabs cycle through the
                    # pool between the threads' stores.
                    array = SystolicArray(backend=NumpyBackend(max_stores=2))
                    for planes, wanted in zip(plane_sets, expected):
                        for population, fits in zip(populations, wanted):
                            got = array.evaluate_population(planes, population, planes[4])
                            if not np.array_equal(got, fits):
                                failures.append((got, fits))
            except Exception as error:  # pragma: no cover - reported below
                failures.append(error)

        # More threads than cores, switching often: a slab handed to two
        # stores at once, or pooled twice, shows up as a wrong fitness.
        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        gc.collect()
        free = _free()
        assert free and len({id(slab) for slab in free}) == len(free)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    def test_forked_child_gets_a_fresh_lock_and_an_empty_pool(self):
        backend = NumpyBackend()
        _fill(backend, _planes(16))
        del backend
        assert _free()
        holding = threading.Event()
        release = threading.Event()

        def hold_the_lock():
            with numpy_engine._SLAB_LOCK:
                holding.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold_the_lock, daemon=True)
        holder.start()
        assert holding.wait(timeout=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            status = 1
            try:
                acquired = numpy_engine._SLAB_LOCK.acquire(timeout=10)
                if acquired:
                    numpy_engine._SLAB_LOCK.release()
                    empty = not any(numpy_engine._FREE_SLABS.values())
                    # The child still evaluates (and pools) normally.
                    child = NumpyBackend()
                    _fill(child, _planes(16), rounds=1)
                    del child
                    status = 0 if empty and _free() else 2
            finally:
                os._exit(status)
        release.set()
        holder.join(timeout=30)
        assert not holder.is_alive()
        # A child stuck on the inherited lock must fail the test, not hang it.
        deadline = time.monotonic() + 60
        done, wait_status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.05)
            done, wait_status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the slab pool")
        assert os.waitstatus_to_exitcode(wait_status) == 0
