"""Tests for the platform-level evolution drivers."""

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.core.evolution import (
    ArrayEvalContext,
    CascadedEvolution,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
)
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.imaging.images import make_test_image
from repro.imaging.metrics import sae


GENS = 40  # small budgets keep the suite fast while still showing improvement


class TestArrayEvalContext:
    def test_retarget_switches_the_training_image(self, platform, medium_image):
        identity = Genotype.identity()
        context = ArrayEvalContext(platform, 0, medium_image)
        other = make_test_image(32, seed=55)
        assert context.fitness(identity, other) > 0.0
        context.retarget(other)
        assert np.array_equal(context.output(identity), other)
        assert context.fitness(identity, other) == 0.0
        assert context.fitness_population([identity], medium_image) == [
            sae(other, medium_image)
        ]


class TestParallelEvolution:
    def test_improves_over_noisy_input(self, platform, denoise_pair):
        noisy_fitness = sae(denoise_pair.training, denoise_pair.reference)
        driver = ParallelEvolution(platform, n_offspring=9, mutation_rate=3, rng=0)
        result = driver.run(denoise_pair.training, denoise_pair.reference, n_generations=GENS)
        assert result.overall_best_fitness() < noisy_fitness

    def test_history_monotone(self, platform, denoise_pair):
        driver = ParallelEvolution(platform, n_offspring=6, mutation_rate=2, rng=1)
        result = driver.run(denoise_pair.training, denoise_pair.reference, n_generations=GENS)
        trace = result.trace(0)
        assert len(trace) == GENS
        assert np.all(np.diff(trace) <= 0)

    def test_commits_best_to_all_arrays(self, platform, denoise_pair):
        driver = ParallelEvolution(platform, n_offspring=6, mutation_rate=2, rng=1)
        result = driver.run(denoise_pair.training, denoise_pair.reference, n_generations=10)
        best = result.best_genotypes[0]
        for index in range(platform.n_arrays):
            assert platform.acb(index).genotype == best
            assert np.array_equal(
                platform.fabric.configured_genes(index), best.function_genes
            )

    def test_platform_time_accounted(self, platform, denoise_pair):
        driver = ParallelEvolution(platform, n_offspring=9, mutation_rate=3, rng=0)
        result = driver.run(denoise_pair.training, denoise_pair.reference, n_generations=10)
        assert result.platform_time_s > 0
        assert result.n_reconfigurations > 0
        assert result.n_evaluations == 1 + 10 * 9

    def test_single_array_slower_than_three(self, denoise_pair):
        """Parallel evaluation hides (n_offspring - n_batches) evaluations per
        generation.  Reconfiguration work is serial either way, so the
        comparison subtracts it (its count fluctuates between runs) and
        checks the evaluation + software component, which is exactly what
        the multi-array platform accelerates."""
        non_reconfig_time = {}
        for n_arrays in (1, 3):
            platform = EvolvableHardwarePlatform(n_arrays=3, seed=0)
            driver = ParallelEvolution(
                platform, n_offspring=9, mutation_rate=3, rng=0, n_arrays=n_arrays
            )
            result = driver.run(
                denoise_pair.training, denoise_pair.reference, n_generations=20
            )
            non_reconfig_time[n_arrays] = (
                result.platform_time_s
                - result.n_reconfigurations * platform.engine.pe_reconfiguration_time_s
            )
        assert non_reconfig_time[1] > non_reconfig_time[3]

    def test_target_fitness_early_stop(self, platform):
        flat = np.full((24, 24), 100, dtype=np.uint8)
        driver = ParallelEvolution(platform, n_offspring=9, mutation_rate=2, rng=0)
        result = driver.run(flat, flat, n_generations=500, target_fitness=0.0)
        assert result.overall_best_fitness() == 0.0
        assert result.n_generations < 500

    def test_seed_genotype_respected(self, platform, denoise_pair):
        seed = Genotype.identity(platform.spec)
        driver = ParallelEvolution(platform, n_offspring=3, mutation_rate=1, rng=0)
        result = driver.run(denoise_pair.training, denoise_pair.reference,
                            n_generations=0, seed_genotype=seed)
        assert result.best_genotypes[0] == seed

    def test_invalid_n_arrays(self, platform):
        with pytest.raises(ValueError):
            ParallelEvolution(platform, n_arrays=4)
        with pytest.raises(ValueError):
            ParallelEvolution(platform, n_arrays=0)

    def test_invalid_parameters(self, platform):
        with pytest.raises(ValueError):
            ParallelEvolution(platform, n_offspring=0)
        with pytest.raises(ValueError):
            ParallelEvolution(platform, mutation_rate=0)


class TestIndependentEvolution:
    def test_different_tasks_per_array(self, platform, denoise_pair):
        from repro.imaging.images import make_training_pair
        edge_pair = make_training_pair("edge_detect", size=24, seed=11)
        driver = IndependentEvolution(platform, n_offspring=6, mutation_rate=2, rng=0)
        result = driver.run(
            tasks={
                0: (denoise_pair.training, denoise_pair.reference),
                1: (edge_pair.training, edge_pair.reference),
            },
            n_generations=20,
        )
        assert set(result.best_genotypes) == {0, 1}
        assert set(result.best_fitness) == {0, 1}
        assert len(result.fitness_history[0]) == 20

    def test_requires_tasks(self, platform):
        driver = IndependentEvolution(platform, rng=0)
        with pytest.raises(ValueError):
            driver.run(tasks={}, n_generations=5)

    def test_faulty_array_still_evolves(self, platform, denoise_pair):
        platform.inject_permanent_fault(0, 1, 1)
        driver = IndependentEvolution(platform, n_offspring=6, mutation_rate=2, rng=3)
        result = driver.run(
            tasks={0: (denoise_pair.training, denoise_pair.reference)}, n_generations=30
        )
        noisy = sae(denoise_pair.training, denoise_pair.reference)
        # Even with a permanent fault the EA finds circuits that improve on
        # doing nothing — the inherent self-healing of evolvable hardware.
        assert result.best_fitness[0] < 2 * noisy


class TestCascadedEvolution:
    @pytest.mark.parametrize("schedule", [CascadeSchedule.SEQUENTIAL, CascadeSchedule.INTERLEAVED])
    def test_stagewise_improvement(self, denoise_pair, schedule):
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=5)
        driver = CascadedEvolution(
            platform, n_offspring=6, mutation_rate=2, rng=5,
            fitness_mode=CascadeFitnessMode.SEPARATE, schedule=schedule,
        )
        result = driver.run(denoise_pair.training, denoise_pair.reference,
                            n_generations=25, n_stages=3)
        assert set(result.best_genotypes) == {0, 1, 2}
        outputs = platform.cascade_stage_outputs(denoise_pair.training)
        stage_fitness = [sae(output, denoise_pair.reference) for output in outputs]
        noisy = sae(denoise_pair.training, denoise_pair.reference)
        assert stage_fitness[0] <= noisy
        if schedule == CascadeSchedule.SEQUENTIAL:
            # Sequential evolution with pass-through seeding is monotone: a
            # stage's circuit is only accepted if it improves on forwarding
            # the (final) output of the stage before it.
            assert stage_fitness[1] <= stage_fitness[0]
            assert stage_fitness[2] <= stage_fitness[1]
        else:
            # Interleaved evolution judges stages against upstream parents
            # that keep moving, so only the end-to-end guarantee is checked.
            assert stage_fitness[2] <= 1.1 * noisy

    def test_merged_fitness_mode(self, denoise_pair):
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=6)
        driver = CascadedEvolution(
            platform, n_offspring=6, mutation_rate=2, rng=6,
            fitness_mode=CascadeFitnessMode.MERGED, schedule=CascadeSchedule.SEQUENTIAL,
        )
        result = driver.run(denoise_pair.training, denoise_pair.reference,
                            n_generations=15, n_stages=2)
        # Merged fitness judges by the end-of-chain output.
        final = platform.process_cascade(denoise_pair.training, stages=[0, 1])
        assert sae(final, denoise_pair.reference) <= result.best_fitness[1] * 1.001

    def test_invalid_stage_count(self, platform, denoise_pair):
        driver = CascadedEvolution(platform, rng=0)
        with pytest.raises(ValueError):
            driver.run(denoise_pair.training, denoise_pair.reference,
                       n_generations=5, n_stages=4)

    def test_mode_type_checking(self, platform):
        with pytest.raises(TypeError):
            CascadedEvolution(platform, fitness_mode="separate")
        with pytest.raises(TypeError):
            CascadedEvolution(platform, schedule="sequential")


class TestImitationEvolution:
    def test_healthy_apprentice_reaches_zero(self, platform, medium_image, rng):
        working = Genotype.random(platform.spec, rng)
        platform.configure_all(working)
        driver = ImitationEvolution(platform, n_offspring=6, mutation_rate=2, rng=0)
        result = driver.run(
            apprentice_index=1, master_index=0, input_image=medium_image,
            n_generations=5, seed_from_master=True,
        )
        # With no fault, copying the master's genotype already scores zero.
        assert result.best_fitness[1] == 0.0

    def test_faulty_apprentice_improves(self, platform, medium_image, rng):
        working = Genotype.random(platform.spec, rng)
        platform.configure_all(working)
        platform.inject_permanent_fault(1, 0, 1)
        master_output = platform.acb(0).shadow_process(medium_image)
        pre = sae(platform.acb(1).shadow_process(medium_image), master_output)
        driver = ImitationEvolution(platform, n_offspring=9, mutation_rate=3, rng=0)
        result = driver.run(
            apprentice_index=1, master_index=0, input_image=medium_image,
            n_generations=60, seed_from_master=True,
        )
        assert result.best_fitness[1] < pre

    def test_bypass_released_after_recovery(self, platform, medium_image, rng):
        platform.configure_all(Genotype.random(platform.spec, rng))
        driver = ImitationEvolution(platform, n_offspring=3, mutation_rate=1, rng=0)
        driver.run(apprentice_index=2, master_index=0, input_image=medium_image,
                   n_generations=2)
        assert not platform.acb(2).bypassed

    def test_out_of_range_rate_rejected_before_any_bypass(
        self, platform, medium_image, rng
    ):
        """A rate above the gene count used to fail only in the first
        generation's mutation, after ``run`` had bypassed the apprentice."""
        platform.configure_all(Genotype.random(platform.spec, rng))
        n_genes = platform.spec.n_genes
        for make in (
            lambda: ImitationEvolution(platform, mutation_rate=n_genes + 1, rng=0),
            lambda: TwoLevelMutationEvolution(
                platform, mutation_rate=n_genes + 1, rng=0
            ),
            lambda: TwoLevelMutationEvolution(
                platform, mutation_rate=1, low_mutation_rate=n_genes + 1, rng=0
            ),
            lambda: TwoLevelMutationEvolution(
                platform, mutation_rate=1, low_mutation_rate=0, rng=0
            ),
        ):
            with pytest.raises(ValueError, match="mutation_rate must be in"):
                make()
        assert [platform.acb(i).bypassed for i in range(platform.n_arrays)] == [
            False
        ] * platform.n_arrays
        # The top of the range is legal: every gene changes.
        driver = ImitationEvolution(platform, n_offspring=2, mutation_rate=n_genes, rng=0)
        driver.run(apprentice_index=1, master_index=0, input_image=medium_image,
                   n_generations=1)
        assert not platform.acb(1).bypassed

    def test_same_array_rejected(self, platform, medium_image):
        driver = ImitationEvolution(platform, rng=0)
        with pytest.raises(ValueError):
            driver.run(apprentice_index=0, master_index=0,
                       input_image=medium_image, n_generations=1)

    def test_master_must_be_configured(self, medium_image):
        platform = EvolvableHardwarePlatform(n_arrays=3, seed=0)
        driver = ImitationEvolution(platform, rng=0)
        with pytest.raises(RuntimeError):
            driver.run(apprentice_index=1, master_index=0,
                       input_image=medium_image, n_generations=1)
