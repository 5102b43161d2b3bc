"""Tests for campaign specification, expansion and seed derivation."""

import pytest

from repro.api.config import EvolutionConfig, PlatformConfig, SelfHealingConfig, TaskSpec
from repro.runtime.campaign import CampaignSpec, RunSpec, derive_seed


def small_spec(**overrides):
    defaults = dict(
        name="unit",
        platform=PlatformConfig(n_arrays=3, seed=1),
        evolution=EvolutionConfig(strategy="parallel", n_generations=5, seed=2),
        task=TaskSpec(image_side=16, seed=3, noise_level=0.1),
        grid={"evolution.mutation_rate": [1, 3], "task.noise_level": [0.05, 0.1]},
        seed=99,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestValidation:
    def test_requires_name_and_runner(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="")
        with pytest.raises(ValueError):
            CampaignSpec(name="x", runner="")

    def test_unknown_config_field_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown evolution config field"):
            small_spec(grid={"evolution.does_not_exist": [1]})

    def test_removed_racing_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown evolution config field"):
            small_spec(grid={"evolution.racing": [False, True]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            small_spec(grid={"evolution.mutation_rate": []})

    def test_paired_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            small_spec(paired={"platform.n_arrays": [1, 3], "k": [1]})

    def test_axis_in_both_grid_and_paired_rejected(self):
        with pytest.raises(ValueError, match="both grid and paired"):
            small_spec(
                grid={"evolution.mutation_rate": [1]},
                paired={"evolution.mutation_rate": [3]},
            )

    def test_healing_axis_without_base_config_rejected(self):
        spec = small_spec(grid={"healing.tolerance": [0.0, 1.0]})
        with pytest.raises(ValueError, match="no base healing config"):
            spec.expand()

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            small_spec(repeats=0)


class TestExpansion:
    def test_grid_is_cartesian_product_in_insertion_order(self):
        runs = small_spec().expand()
        assert len(runs) == 4
        assert [run.index for run in runs] == [0, 1, 2, 3]
        # First grid axis is outermost.
        combos = [
            (run.evolution.mutation_rate, run.task.noise_level) for run in runs
        ]
        assert combos == [(1, 0.05), (1, 0.1), (3, 0.05), (3, 0.1)]

    def test_paired_axes_advance_together(self):
        spec = small_spec(
            grid={"evolution.mutation_rate": [1, 3]},
            paired={
                "platform.n_arrays": [3, 4],
                "label": ["small", "large"],
            },
        )
        runs = spec.expand()
        assert len(runs) == 4
        assert [(r.platform.n_arrays, r.params["label"]) for r in runs] == [
            (3, "small"), (4, "large"), (3, "small"), (4, "large"),
        ]

    def test_unprefixed_axis_becomes_param(self):
        runs = small_spec(grid={"scenario": ["a", "b"]}).expand()
        assert [run.params["scenario"] for run in runs] == ["a", "b"]
        assert [run.overrides["scenario"] for run in runs] == ["a", "b"]

    def test_repeats_add_innermost_axis_with_repeat_param(self):
        runs = small_spec(grid={"evolution.mutation_rate": [1, 3]}, repeats=2).expand()
        assert len(runs) == 4
        assert [run.params["repeat"] for run in runs] == [0, 1, 0, 1]

    def test_constant_params_reach_every_run(self):
        runs = small_spec(params={"n_repeats": 7}).expand()
        assert all(run.params["n_repeats"] == 7 for run in runs)

    def test_run_ids_unique_and_stable(self):
        spec = small_spec()
        first = [run.run_id for run in spec.expand()]
        second = [run.run_id for run in spec.expand()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_n_runs_matches_expansion(self):
        spec = small_spec(repeats=3)
        assert spec.n_runs() == len(spec.expand()) == 12


class TestSeedDerivation:
    def test_derive_seed_is_deterministic_and_spread(self):
        seeds = [derive_seed(99, index) for index in range(100)]
        assert seeds == [derive_seed(99, index) for index in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= seed < 2**31 for seed in seeds)

    def test_explicit_config_seeds_are_preserved(self):
        runs = small_spec().expand()
        assert all(run.platform.seed == 1 for run in runs)
        assert all(run.evolution.seed == 2 for run in runs)

    def test_missing_config_seeds_are_derived_per_run(self):
        spec = small_spec(
            platform=PlatformConfig(n_arrays=3, seed=None),
            evolution=EvolutionConfig(strategy="parallel", n_generations=5, seed=None),
        )
        runs = spec.expand()
        platform_seeds = [run.platform.seed for run in runs]
        evolution_seeds = [run.evolution.seed for run in runs]
        assert all(seed is not None for seed in platform_seeds + evolution_seeds)
        assert len(set(platform_seeds)) == len(runs)
        assert len(set(evolution_seeds)) == len(runs)
        # Derivation is a pure function of (campaign seed, index, stream).
        assert [run.platform.seed for run in spec.expand()] == platform_seeds

    def test_campaign_seed_changes_derived_seeds(self):
        base = small_spec(platform=PlatformConfig(n_arrays=3, seed=None))
        moved = small_spec(platform=PlatformConfig(n_arrays=3, seed=None), seed=100)
        assert [r.platform.seed for r in base.expand()] != \
            [r.platform.seed for r in moved.expand()]

    def test_healing_seed_derived_when_missing(self):
        spec = small_spec(
            healing=SelfHealingConfig(strategy="cascaded", seed=None),
            grid={"healing.tolerance": [0.0, 1.0]},
        )
        seeds = [run.healing.seed for run in spec.expand()]
        assert all(seed is not None for seed in seeds)
        assert len(set(seeds)) == 2


class TestRoundTrip:
    def test_campaign_spec_round_trips_through_json(self):
        spec = small_spec(
            paired={"label": ["a", "b"]},
            params={"n_repeats": 2},
            healing=SelfHealingConfig(strategy="tmr", seed=4),
            repeats=2,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_run_spec_round_trips_through_json(self):
        for run in small_spec().expand():
            assert RunSpec.from_json(run.to_json()) == run

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            CampaignSpec.from_dict(data)

    def test_digest_tracks_content(self):
        assert small_spec().digest() == small_spec().digest()
        assert small_spec().digest() != small_spec(seed=100).digest()
