"""Benchmark: an evicting put on a full fitness cache costs O(1).

The pipeline's in-process tier (:class:`repro.ea.pipeline.FitnessPipeline`,
budget 65,536 entries) fills after about 7,000 generations at λ = 9, and
from then on every put evicts the oldest entry.  Finding the oldest key
by iterating the dict scans past the dummy slots that earlier deletes
left at its front, which made an evicting put cost about 85x a plain one
and long runs (the paper's 100,000-generation sweeps) about 1.5x slower
per generation.  This gate fills a cache of that budget, then keeps
putting new keys: timed in batches, the median evicting put may cost at
most ``MAX_RATIO`` times the median non-evicting put.
"""

import statistics
import time

from conftest import print_table

from repro.backends.fitness_cache import FitnessCache

BUDGET = 1 << 16  # FitnessPipeline's in-process budget (CACHE_ENTRIES)
BATCH = 1024
#: Enough evictions to cross the dict's compaction cycle several times.
EVICTING_PUTS = 48 * BATCH
MAX_RATIO = 5.0


def _per_put_seconds(cache, keys):
    """Seconds per put, one sample per batch of ``BATCH`` keys."""
    put = cache.put
    samples = []
    for start in range(keys.start, keys.stop, BATCH):
        batch = range(start, min(start + BATCH, keys.stop))
        began = time.perf_counter()
        for key in batch:
            put(key, 1.0)
        samples.append((time.perf_counter() - began) / len(batch))
    return samples


def test_evicting_put_costs_a_small_multiple_of_a_plain_put(run_once):
    def workload():
        cache = FitnessCache(BUDGET)
        plain = _per_put_seconds(cache, range(BUDGET))
        assert len(cache) == BUDGET
        evicting = _per_put_seconds(cache, range(BUDGET, BUDGET + EVICTING_PUTS))
        assert len(cache) == BUDGET
        return statistics.median(plain), statistics.median(evicting)

    plain, evicting = run_once(workload)
    ratio = evicting / plain
    print_table(
        f"FitnessCache put at a {BUDGET}-entry budget (median of {BATCH}-put batches)",
        [
            {"put": "non-evicting", "us": plain * 1e6},
            {"put": "evicting", "us": evicting * 1e6},
            {"put": "ratio", "us": ratio},
        ],
        ["put", "us"],
    )
    assert ratio <= MAX_RATIO, (
        f"an evicting put costs {ratio:.1f}x a non-evicting one "
        f"({evicting * 1e6:.2f} vs {plain * 1e6:.2f} us); the gate is {MAX_RATIO}x"
    )
