"""Tests for the two-level-mutation EA (the paper's new evolutionary strategy)."""

import numpy as np
import pytest

from repro.core.evolution import ParallelEvolution
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.imaging.metrics import sae


GENS = 40


class TestTwoLevelMutationEvolution:
    def test_fewer_reconfigurations_than_classic(self, denoise_pair):
        """The whole point of the new EA: fewer PE rewrites per generation."""
        classic_platform = EvolvableHardwarePlatform(n_arrays=3, seed=2)
        classic = ParallelEvolution(classic_platform, n_offspring=9, mutation_rate=5, rng=2)
        classic_result = classic.run(
            denoise_pair.training, denoise_pair.reference, n_generations=GENS
        )

        new_platform = EvolvableHardwarePlatform(n_arrays=3, seed=2)
        new = TwoLevelMutationEvolution(new_platform, n_offspring=9, mutation_rate=5, rng=2)
        new_result = new.run(
            denoise_pair.training, denoise_pair.reference, n_generations=GENS
        )

        assert new_result.n_reconfigurations < classic_result.n_reconfigurations
        assert new_result.platform_time_s < classic_result.platform_time_s

    def test_time_less_sensitive_to_mutation_rate(self, denoise_pair):
        """Fig. 14: the new EA's evolution time barely depends on k."""
        def run(strategy_cls, k):
            platform = EvolvableHardwarePlatform(n_arrays=3, seed=3)
            driver = strategy_cls(platform, n_offspring=9, mutation_rate=k, rng=3)
            return driver.run(
                denoise_pair.training, denoise_pair.reference, n_generations=GENS
            ).platform_time_s

        classic_spread = run(ParallelEvolution, 5) - run(ParallelEvolution, 1)
        new_spread = run(TwoLevelMutationEvolution, 5) - run(TwoLevelMutationEvolution, 1)
        assert new_spread < classic_spread

    def test_still_improves_fitness(self, denoise_pair):
        from repro.array.genotype import Genotype

        platform = EvolvableHardwarePlatform(n_arrays=3, seed=4)
        driver = TwoLevelMutationEvolution(platform, n_offspring=9, mutation_rate=3, rng=4)
        # Seeding from the pass-through circuit starts the search exactly at
        # the "do nothing" fitness, so any accepted improvement beats it.
        result = driver.run(
            denoise_pair.training, denoise_pair.reference, n_generations=GENS,
            seed_genotype=Genotype.identity(platform.spec),
        )
        assert result.overall_best_fitness() < sae(
            denoise_pair.training, denoise_pair.reference
        )

    def test_offspring_plan_structure(self, platform, rng):
        """First batch mutates from the parent with rate k, later batches from
        the previous batch's chromosome on the same array with rate 1."""
        from repro.array.genotype import Genotype
        from repro.core.evolution import ArrayEvalContext

        driver = TwoLevelMutationEvolution(
            platform, n_offspring=9, mutation_rate=4, low_mutation_rate=1, rng=0
        )
        parent = Genotype.random(platform.spec, rng)
        image = np.zeros((16, 16), dtype=np.uint8)
        contexts = [ArrayEvalContext(platform, index, image) for index in range(3)]
        plan = driver._generation_offspring(parent, contexts)

        assert len(plan) == 9
        # Batch 0: distance k from the parent.
        for mutation in plan[:3]:
            assert parent.hamming_distance(mutation.genotype) == 4
        # Batch 1: distance 1 from the batch-0 chromosome of the same slot.
        for index, mutation in enumerate(plan[3:6]):
            previous = plan[index].genotype
            assert previous.hamming_distance(mutation.genotype) == 1
        # Batch 2: distance 1 from the batch-1 chromosome of the same slot.
        for index, mutation in enumerate(plan[6:9]):
            previous = plan[3 + index].genotype
            assert previous.hamming_distance(mutation.genotype) == 1

    def test_invalid_low_rate(self, platform):
        with pytest.raises(ValueError):
            TwoLevelMutationEvolution(platform, low_mutation_rate=0)

    def test_offspring_not_multiple_of_arrays(self, denoise_pair):
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=5)
        driver = TwoLevelMutationEvolution(platform, n_offspring=7, mutation_rate=3, rng=5)
        result = driver.run(denoise_pair.training, denoise_pair.reference, n_generations=5)
        assert result.n_evaluations == 1 + 5 * 7
