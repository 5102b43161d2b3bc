"""Campaign migrations of the embarrassingly parallel experiments.

Each migrated experiment must (a) expand to the expected scenario grid
and (b) produce results independent of the executor — the concurrency is
free, the numbers are pinned.
"""

from repro.experiments.cascade_quality import (
    ARRANGEMENTS,
    build_cascade_quality_campaign,
    cascade_quality_comparison,
)
from repro.experiments.fault_sweep import (
    build_fault_sweep_campaign,
    systematic_fault_analysis,
)
from repro.experiments.parallel_speedup import (
    build_measured_speedup_campaign,
    measured_speedup_sweep,
)
from repro.runtime.runners import RUNNERS


class TestRunnersRegistered:
    def test_experiment_runners_registered(self):
        names = RUNNERS.names()
        assert "evolve" in names
        assert "fault-sweep-array" in names
        assert "cascade-arrangement" in names


class TestMeasuredSpeedupCampaign:
    def test_grid_covers_rates_times_arrays(self):
        spec = build_measured_speedup_campaign(
            mutation_rates=(1, 5), array_counts=(1, 3), seed=1
        )
        runs = spec.expand()
        assert len(runs) == 4
        combos = [
            (run.evolution.mutation_rate, run.evolution.options["n_arrays"])
            for run in runs
        ]
        assert combos == [(1, 1), (1, 3), (5, 1), (5, 3)]
        # The platform never shrinks below the paper's three arrays.
        assert all(run.platform.n_arrays >= 3 for run in runs)

    def test_executor_choice_does_not_change_points(self):
        kwargs = dict(
            image_side=16, mutation_rates=(1, 5), array_counts=(1, 3),
            n_generations=6, seed=1,
        )
        serial = measured_speedup_sweep(**kwargs)
        process = measured_speedup_sweep(
            executor="process", max_workers=2, **kwargs
        )
        assert serial == process


class TestFaultSweepCampaign:
    def test_one_run_per_configured_array(self, configured_platform, denoise_pair):
        genotypes = {
            index: configured_platform.acb(index).genotype
            for index in range(configured_platform.n_arrays)
        }
        spec = build_fault_sweep_campaign(genotypes, denoise_pair, seed=3)
        runs = spec.expand()
        assert [run.params["array_index"] for run in runs] == [0, 1, 2]
        assert all(run.runner == "fault-sweep-array" for run in runs)

    def test_executor_choice_does_not_change_summaries(self):
        kwargs = dict(image_side=16, n_generations=6, n_repeats=2, seed=7)
        serial = systematic_fault_analysis(**kwargs)
        process = systematic_fault_analysis(
            executor="process", max_workers=2, **kwargs
        )
        assert serial == process
        assert [summary.array_index for summary in serial] == [0, 1, 2]
        assert all(summary.n_positions == 16 for summary in serial)


class TestCascadeQualityCampaign:
    def test_grid_covers_runs_times_arrangements(self):
        spec = build_cascade_quality_campaign(n_runs=2, seed=5)
        runs = spec.expand()
        assert len(runs) == 6
        assert [run.params["arrangement"] for run in runs] == list(ARRANGEMENTS) * 2
        assert [run.params["run_seed"] for run in runs] == [5, 5, 5, 36, 36, 36]

    def test_cache_path_rides_the_evolution_config(self, tmp_path):
        """A cache directory is value-transparent: it leaves every run
        signature and point unchanged, and the runner reads it from the
        run's evolution config."""
        root = str(tmp_path / "fcache")
        plain = build_cascade_quality_campaign(n_runs=1, seed=5).expand()
        cached = build_cascade_quality_campaign(
            n_runs=1, seed=5, fitness_cache=root
        ).expand()
        assert [run.signature() for run in cached] == [run.signature() for run in plain]
        assert {run.evolution.fitness_cache for run in cached} == {root}
        kwargs = dict(image_side=16, n_generations=3, n_runs=1, seed=5)
        assert cascade_quality_comparison(fitness_cache=root, **kwargs) == (
            cascade_quality_comparison(**kwargs)
        )
        assert any((tmp_path / "fcache").iterdir())

    def test_executor_choice_does_not_change_points(self):
        kwargs = dict(image_side=16, n_generations=6, n_runs=1, seed=5)
        serial = cascade_quality_comparison(**kwargs)
        process = cascade_quality_comparison(
            executor="process", max_workers=2, **kwargs
        )
        assert serial == process
        assert {point.arrangement for point in serial} == set(ARRANGEMENTS)
