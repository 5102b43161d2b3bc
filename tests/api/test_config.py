"""Config dataclasses: validation and dict/JSON round-tripping."""

import warnings

import pytest

from repro.api.config import (
    EvolutionConfig,
    PlatformConfig,
    SelfHealingConfig,
    TaskSpec,
)


ALL_CONFIGS = [
    PlatformConfig(n_arrays=4, rows=3, cols=5, fitness_voter_threshold=1.5, seed=7),
    EvolutionConfig(
        strategy="cascaded",
        n_generations=77,
        n_offspring=6,
        mutation_rate=2,
        seed=13,
        target_fitness=1000.0,
        accept_equal=False,
        options={"fitness_mode": "merged", "schedule": "interleaved", "n_stages": 2},
    ),
    TaskSpec(task="edge_detect", image_side=48, noise_level=0.2, image_kind="shapes", seed=3),
    SelfHealingConfig(
        strategy="tmr",
        tolerance=2.0,
        imitation_generations=50,
        imitation_target_fitness=None,
        paste_threshold=250.0,
        reference_image_key="ref",
        n_offspring=5,
        mutation_rate=2,
        seed=9,
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_dict_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_json_round_trip(self, config):
        assert type(config).from_json(config.to_json()) == config

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_defaults_round_trip(self, config):
        default = type(config)()
        assert type(config).from_dict(default.to_dict()) == default

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="does not accept"):
            PlatformConfig.from_dict({"n_arrays": 3, "bogus": 1})

    def test_removed_generation_knobs_still_load(self):
        # An EvolutionConfig JSON as serialised while the config still had
        # the ``batched``/``population_batching``/``racing`` knobs.
        legacy = (
            '{"strategy": "two_level", "n_generations": 50, "n_offspring": 9, '
            '"mutation_rate": 3, "seed": 4, "target_fitness": null, '
            '"accept_equal": true, "batched": true, "population_batching": false, '
            '"fitness_cache": null, "racing": false, "scenario": null, "options": {}}'
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = EvolutionConfig.from_json(legacy)
        assert [w.category for w in caught] == [DeprecationWarning]
        assert "batched, population_batching, racing" in str(caught[0].message)
        assert config == EvolutionConfig(strategy="two_level", n_generations=50, seed=4)
        assert "batched" not in config.to_dict()
        assert "population_batching" not in config.to_dict()
        assert "racing" not in config.to_dict()

    def test_removed_red_team_knob_still_loads(self):
        from repro.scenarios.frozen import FROZEN_PROVENANCE, FROZEN_SCENARIOS
        from repro.scenarios.search import RedTeamConfig

        frozen = FROZEN_PROVENANCE[FROZEN_SCENARIOS[0]]["search_config"]
        assert "population_batching" not in frozen
        data = dict(frozen, population_batching=True)
        with pytest.warns(DeprecationWarning, match="population_batching") as caught:
            config = RedTeamConfig.from_dict(data)
        assert len(caught) == 1
        assert config.to_dict() == {
            key: value for key, value in data.items() if key != "population_batching"
        }

    def test_legacy_keys_do_not_admit_other_unknown_fields(self):
        with pytest.raises(ValueError, match="does not accept field\\(s\\): bogus"):
            with pytest.warns(DeprecationWarning):
                EvolutionConfig.from_dict({"batched": True, "bogus": 1})
        with pytest.raises(ValueError, match="does not accept"):
            PlatformConfig.from_dict({"population_batching": True})

    def test_replace(self):
        config = EvolutionConfig(strategy="parallel")
        assert config.replace(strategy="two_level").strategy == "two_level"
        assert config.strategy == "parallel"  # original untouched


class TestValidation:
    def test_platform_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PlatformConfig(n_arrays=0)
        with pytest.raises(ValueError):
            PlatformConfig(rows=0)
        with pytest.raises(ValueError):
            PlatformConfig(fitness_voter_threshold=-1.0)

    def test_evolution_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n_generations=0)
        with pytest.raises(ValueError):
            EvolutionConfig(n_offspring=0)
        with pytest.raises(ValueError):
            EvolutionConfig(mutation_rate=0)
        with pytest.raises(ValueError):
            EvolutionConfig(strategy="")
        with pytest.raises(TypeError):
            EvolutionConfig(options=["not", "a", "dict"])

    def test_task_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TaskSpec(image_side=4)
        with pytest.raises(ValueError):
            TaskSpec(noise_level=1.5)
        with pytest.raises(ValueError):
            TaskSpec(task="")

    def test_self_healing_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SelfHealingConfig(imitation_generations=0)
        with pytest.raises(ValueError):
            SelfHealingConfig(n_offspring=0)

    def test_configs_are_frozen(self):
        config = PlatformConfig()
        with pytest.raises(AttributeError):
            config.n_arrays = 5


class TestBuild:
    def test_platform_build_matches_config(self):
        platform = PlatformConfig(n_arrays=2, rows=3, cols=4, seed=1).build()
        assert platform.n_arrays == 2
        assert platform.geometry.rows == 3
        assert platform.geometry.cols == 4

    def test_task_build_produces_pair(self):
        pair = TaskSpec(task="identity", image_side=16, seed=2).build()
        assert pair.training.shape == (16, 16)
        assert (pair.training == pair.reference).all()

    def test_task_build_matches_make_training_pair(self):
        from repro.imaging.images import make_training_pair

        spec = TaskSpec(task="salt_pepper_denoise", image_side=24, seed=11,
                        noise_level=0.1)
        direct = make_training_pair("salt_pepper_denoise", size=24, seed=11,
                                    noise_level=0.1)
        built = spec.build()
        assert (built.training == direct.training).all()
        assert (built.reference == direct.reference).all()
