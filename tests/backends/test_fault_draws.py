"""The block fault draw against the per-candidate draws it replaces.

A faulty PE outputs seeded garbage: each candidate evaluation consumes
``ceil(H*W/4)`` ``next_uint32`` words from the position's own generator,
whose bytes are what one ``integers(0, 256, size=(H, W), dtype=np.uint8)``
call returns.  The population paths draw all candidates of one evaluation
as a single block (``SystolicArray.draw_fault_planes``); these tests pin
that block to the per-call oracle byte for byte, down to the final
generator state, on four bit generators — and pin that the population
paths make exactly one generator call per faulty position per evaluation.
The first block drawn after a rewind is memoised per position; the memo
tests pin that a replay is the draw it replaces, and that a stream drawn
from in any other way since its rewind is never replayed.
"""

import numpy as np
import pytest

import repro.array.systolic_array as systolic_array_module
from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows

#: The block draw relies on NumPy's uint8 sampler; when an upgrade changes
#: it, say so.
NUMPY_DRIFT = (
    f"the block fault draw no longer reproduces the per-call uint8 draws of "
    f"NumPy {np.__version__}: changing the fault-stream draw order is a "
    "versioned decision with re-pinned goldens, never a silent change"
)
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)
SIZES = ((64, 64), (128, 128), (7, 9), (5, 5), (1, 1), (3, 1))
POSITION = (1, 2)


def same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (MT19937 holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def fault_array(streams, backend="reference"):
    """An array whose faulty positions draw from the given generators."""
    array = SystolicArray(backend=backend)
    for position, stream in streams.items():
        array.inject_fault(position, seed=0)
        array._fault_rngs[position] = stream
    return array


class TestBlockDrawParity:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("h, w", SIZES)
    @pytest.mark.parametrize("n", (1, 9))
    @pytest.mark.parametrize("buffered", (False, True), ids=("aligned", "half-word"))
    def test_block_equals_per_call_draws(self, bit_generator, h, w, n, buffered):
        oracle = np.random.Generator(bit_generator(2024))
        block_rng = np.random.Generator(bit_generator(2024))
        if buffered:
            # A float32 draw leaves half of a 64-bit word buffered
            # (has_uint32); both forms must consume it the same way.
            oracle.random(dtype=np.float32)
            block_rng.random(dtype=np.float32)
        expected = [oracle.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(n)]

        planes = fault_array({POSITION: block_rng}).draw_fault_planes(POSITION, n, h, w)

        assert planes.shape == (n, h, w) and planes.dtype == np.uint8
        assert planes.flags.writeable
        assert np.array_equal(planes, np.stack(expected)), NUMPY_DRIFT
        assert same_state(oracle.bit_generator.state, block_rng.bit_generator.state), NUMPY_DRIFT
        follow_on = oracle.integers(0, 1 << 62, size=50)
        assert np.array_equal(follow_on, block_rng.integers(0, 1 << 62, size=50)), NUMPY_DRIFT

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_successive_blocks_continue_the_stream(self, bit_generator):
        """Blocks of 2 then 3 planes are the first 5 per-call draws."""
        oracle = np.random.Generator(bit_generator(7))
        array = fault_array({POSITION: np.random.Generator(bit_generator(7))})
        blocks = [array.draw_fault_planes(POSITION, n, 5, 7) for n in (2, 3)]
        expected = np.stack(
            [oracle.integers(0, 256, size=(5, 7), dtype=np.uint8) for _ in range(5)]
        )
        assert np.array_equal(np.concatenate(blocks), expected), NUMPY_DRIFT


class _CountingGenerator:
    """A generator proxy that counts the calls made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        attribute = getattr(self._rng, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.calls += 1
            return attribute(*args, **kwargs)

        return counted


class TestOneCallPerFaultyPosition:
    N_OFFSPRING = 9
    FAULTS = ((0, 3), (2, 1))

    def _population(self):
        rng = np.random.default_rng(12)
        image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        genotypes = [
            Genotype.random(rng=np.random.default_rng(seed)) for seed in range(self.N_OFFSPRING)
        ]
        return extract_windows(image), genotypes, reference

    def _counting_array(self, backend):
        streams = {
            position: _CountingGenerator(np.random.default_rng(seed))
            for seed, position in enumerate(self.FAULTS)
        }
        return fault_array(streams, backend), streams

    @pytest.mark.parametrize("backend", ("numpy", "reference"))
    def test_evaluate_population(self, backend):
        planes, genotypes, reference = self._population()
        array, streams = self._counting_array(backend)
        array.evaluate_population(planes, genotypes, reference)
        assert [s.calls for s in streams.values()] == [1] * len(self.FAULTS)


SEED = 2013


def per_call_planes(rng, n, h, w):
    """The per-call oracle: ``n`` successive uint8 plane draws."""
    return np.stack([rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(n)])


def rewound_array():
    """An array with one fault at ``POSITION``, its stream at the seed's start."""
    array = SystolicArray()
    array.inject_fault(POSITION, SEED)
    return array


def rewind(array):
    """What every fault sync does: clear the faults, re-inject the same seed."""
    array.clear_all_faults()
    array.inject_fault(POSITION, SEED)


class TestRewoundFirstBlock:
    def test_replay_is_the_first_draw_and_leaves_its_state(self, monkeypatch):
        array = rewound_array()
        first = array.draw_fault_planes(POSITION, 3, 9, 7)
        first_state = array.fault_rng(POSITION).bit_generator.state
        rewind(array)
        drawn = []
        original = systolic_array_module._draw_planes
        monkeypatch.setattr(
            systolic_array_module,
            "_draw_planes",
            lambda *args: drawn.append(args) or original(*args),
        )
        second = array.draw_fault_planes(POSITION, 3, 9, 7)

        assert drawn == []  # served from the memo
        assert second.tobytes() == first.tobytes() and second.flags.writeable
        assert np.array_equal(second, per_call_planes(np.random.default_rng(SEED), 3, 9, 7))
        assert same_state(array.fault_rng(POSITION).bit_generator.state, first_state)

    def test_handed_out_stream_is_never_replayed(self):
        array = rewound_array()
        array.draw_fault_planes(POSITION, 2, 8, 8)
        rewind(array)
        oracle = np.random.default_rng(SEED)
        oracle.integers(0, 256, size=5, dtype=np.uint8)
        array.fault_rng(POSITION).integers(0, 256, size=5, dtype=np.uint8)

        planes = array.draw_fault_planes(POSITION, 2, 8, 8)

        assert np.array_equal(planes, per_call_planes(oracle, 2, 8, 8))
        assert same_state(array.fault_rng(POSITION).bit_generator.state, oracle.bit_generator.state)

    def test_swapped_in_generator_is_never_replayed(self):
        array = rewound_array()
        array.draw_fault_planes(POSITION, 2, 8, 8)
        rewind(array)
        swapped = np.random.default_rng(SEED + 1)
        array._fault_rngs[POSITION] = swapped

        planes = array.draw_fault_planes(POSITION, 2, 8, 8)

        oracle = np.random.default_rng(SEED + 1)
        assert np.array_equal(planes, per_call_planes(oracle, 2, 8, 8))
        assert same_state(swapped.bit_generator.state, oracle.bit_generator.state)

    def test_a_longer_block_after_a_cached_one_is_drawn(self):
        array = rewound_array()
        array.draw_fault_planes(POSITION, 1, 16, 16)
        rewind(array)

        planes = array.draw_fault_planes(POSITION, 9, 16, 16)

        oracle = np.random.default_rng(SEED)
        assert np.array_equal(planes, per_call_planes(oracle, 9, 16, 16))
        assert same_state(array.fault_rng(POSITION).bit_generator.state, oracle.bit_generator.state)

    def test_a_new_seed_at_the_position_is_drawn(self):
        array = rewound_array()
        array.draw_fault_planes(POSITION, 2, 8, 8)
        array.clear_all_faults()
        array.inject_fault(POSITION, SEED + 7)

        planes = array.draw_fault_planes(POSITION, 2, 8, 8)

        assert np.array_equal(planes, per_call_planes(np.random.default_rng(SEED + 7), 2, 8, 8))

    def test_writing_into_a_returned_block_leaves_the_next_replay(self):
        array = rewound_array()
        expected = per_call_planes(np.random.default_rng(SEED), 2, 6, 6)
        for _ in range(3):
            planes = array.draw_fault_planes(POSITION, 2, 6, 6)
            assert np.array_equal(planes, expected)
            planes[...] = 0
            rewind(array)
