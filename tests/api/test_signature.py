"""Content-addressed signatures: canonical JSON, configs, run specs."""

import json
import warnings

from repro.api.config import EvolutionConfig, PlatformConfig, TaskSpec
from repro.api.signature import canonical_json, content_signature, run_signature
from repro.runtime.campaign import CampaignSpec, RunSpec


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'

    def test_nested_structures_canonicalise(self):
        left = {"outer": {"y": 2, "x": 1}, "list": [{"b": 1, "a": 2}]}
        right = {"list": [{"a": 2, "b": 1}], "outer": {"x": 1, "y": 2}}
        assert canonical_json(left) == canonical_json(right)


class TestContentSignature:
    def test_is_a_sha256_hexdigest(self):
        signature = content_signature({"seed": 1})
        assert len(signature) == 64
        assert int(signature, 16) >= 0

    def test_equal_content_equal_signature(self):
        assert content_signature({"a": 1, "b": 2}) == content_signature(
            {"b": 2, "a": 1}
        )

    def test_any_field_change_changes_the_signature(self):
        base = {"seed": 1, "rate": 3}
        assert content_signature(base) != content_signature({**base, "seed": 2})
        assert content_signature(base) != content_signature({**base, "rate": 5})


class TestConfigSignature:
    def test_config_signature_matches_content_signature(self):
        config = PlatformConfig(seed=7)
        assert config.signature() == content_signature(config.to_dict())

    def test_identical_configs_share_a_signature(self):
        assert PlatformConfig(seed=7).signature() == PlatformConfig(seed=7).signature()
        assert (
            EvolutionConfig(seed=1).signature() != EvolutionConfig(seed=2).signature()
        )

    def test_run_signature_orders_sections_canonically(self):
        platform = PlatformConfig(seed=1)
        evolution = EvolutionConfig(seed=2)
        task = TaskSpec(seed=3)
        first = run_signature(
            runner="evolve", seed=5, platform=platform, evolution=evolution, task=task
        )
        second = run_signature(
            runner="evolve", seed=5, task=task, evolution=evolution, platform=platform
        )
        assert first == second
        assert first != run_signature(
            runner="evolve", seed=6, platform=platform, evolution=evolution, task=task
        )


class TestRunSpecSignature:
    def _spec(self, name="sig", seed=11, evolution=None):
        return CampaignSpec(
            name=name,
            platform=PlatformConfig(seed=1),
            evolution=evolution or EvolutionConfig(n_generations=3, seed=2),
            task=TaskSpec(image_side=16, seed=3),
            grid={"evolution.mutation_rate": [1, 3]},
            seed=seed,
        )

    def test_signature_is_stable_across_expansions(self):
        first = [run.signature() for run in self._spec().expand()]
        second = [run.signature() for run in self._spec().expand()]
        assert first == second

    def test_signature_ignores_the_campaign_name(self):
        """Dedupe must fire across submissions that differ only in name."""
        renamed = [run.signature() for run in self._spec(name="other").expand()]
        assert renamed == [run.signature() for run in self._spec().expand()]

    def test_signature_tracks_resolved_content(self):
        runs = self._spec().expand()
        # Different grid points resolve to different configs.
        assert runs[0].signature() != runs[1].signature()
        # A different campaign seed derives different run seeds.
        reseeded = self._spec(seed=12).expand()
        assert runs[0].signature() != reseeded[0].signature()

    def test_signature_round_trips_through_json(self):
        run = self._spec().expand()[0]
        restored = run.from_json(run.to_json())
        assert restored.signature() == run.signature()

    def test_signature_matches_the_wire_format(self):
        """The signature hashes canonical JSON of the resolved payload —
        pin the derivation so server and engine can never disagree.  The
        value-transparent fitness-pipeline knobs (`fitness_cache`,
        `racing`) never change an artifact, so they are stripped before
        hashing and knob variants dedupe against the plain run."""
        run = self._spec().expand()[0]
        evolution = {
            key: value
            for key, value in run.evolution.to_dict().items()
            if key not in {"fitness_cache", "racing"}
        }
        payload = {
            "runner": run.runner,
            "seed": run.seed,
            "platform": run.platform.to_dict(),
            "evolution": evolution,
            "task": run.task.to_dict(),
            "healing": None if run.healing is None else run.healing.to_dict(),
            "params": dict(run.params),
        }
        assert run.signature() == content_signature(payload)

    def test_signature_ignores_value_transparent_knobs(self):
        """A run stored with the removed ``racing`` knob and a fitness-cache
        path loads with one warning and dedupes against the plain run, so
        existing dedupe entries stay valid."""
        plain = self._spec().expand()[0]
        stored = plain.to_dict()
        stored["evolution"] = {
            **stored["evolution"], "racing": True, "fitness_cache": "fcache-dir",
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            knobbed = RunSpec.from_json(json.dumps(stored))
        assert [w.category for w in caught] == [DeprecationWarning]
        assert knobbed.evolution.fitness_cache == "fcache-dir"
        assert plain.signature() == knobbed.signature()

    def test_doctest_examples_stay_valid(self):
        # json module usability of the canonical form.
        payload = json.loads(canonical_json({"x": [1, 2]}))
        assert payload == {"x": [1, 2]}
