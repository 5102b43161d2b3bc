"""Mid-evolution scenario determinism: backends and executors.

The acceptance gate of the scenario engine: one seed + one scenario spec
must produce identical event schedules, identical fitness trajectories,
identical winning genotypes and identical fault-stream consumption —
whether evaluation runs on the ``reference``, ``numpy`` or ``compiled``
backend, and whichever campaign executor schedules the run.
"""

import numpy as np
import pytest

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, TaskSpec
from repro.api.session import EvolutionSession
from repro.runtime.campaign import CampaignSpec
from repro.runtime.engine import run_campaign
from repro.scenarios import SCENARIOS, FaultScenario
from repro.scenarios.frozen import FROZEN_SCENARIOS
from repro.scenarios.search import RedTeamConfig, ScenarioBounds, red_team_search

SEED = 2013
TASK = TaskSpec(task="salt_pepper_denoise", image_side=20, noise_level=0.1, seed=SEED)


def run_session(strategy, scenario, backend, options=None):
    session = EvolutionSession(
        PlatformConfig(n_arrays=3, seed=SEED, backend=backend),
        EvolutionConfig(
            strategy=strategy,
            n_generations=10,
            seed=SEED,
            scenario=scenario,
            options=options or {},
        ),
    )
    artifact = session.evolve(TASK)
    return session, artifact


def comparable(artifact: RunArtifact) -> dict:
    results = dict(artifact.results)
    return {
        "fitness_history": results["fitness_history"],
        "best_genotypes": results["best_genotypes"],
        "best_fitness": results["best_fitness"],
        "n_reconfigurations": results["n_reconfigurations"],
        "scenario_events": results["scenario"]["events"],
    }


def stream_probe(session) -> dict:
    """The next draws of every live fault stream — equal probes mean the
    run consumed every per-position stream identically."""
    probe = {}
    for index in range(session.platform.n_arrays):
        array = session.platform.acb(index).array
        for position in array.faulty_positions:
            probe[(index, position)] = array.fault_rng(position).integers(
                0, 256, size=16, dtype=np.uint8
            ).tolist()
    return probe


class TestBackendParity:
    @pytest.mark.parametrize(
        "scenario", ["seu-storm", "mixed-burst", "scrub-race", *FROZEN_SCENARIOS]
    )
    def test_parallel_evolution_is_byte_identical(self, scenario):
        ref_session, ref = run_session("parallel", scenario, "reference")
        np_session, num = run_session("parallel", scenario, "numpy")
        cc_session, comp = run_session("parallel", scenario, "compiled")
        assert comparable(ref) == comparable(num)
        assert comparable(ref) == comparable(comp)
        assert ref.results["scenario"]["n_events"] > 0
        # Probe each session exactly once: probing draws from (and thereby
        # advances) the live fault streams.
        ref_probe = stream_probe(ref_session)
        assert ref_probe == stream_probe(np_session)
        assert ref_probe == stream_probe(cc_session)

    @pytest.mark.parametrize("strategy,options", [
        ("two_level", {"low_mutation_rate": 1}),
        ("cascaded", {"n_stages": 2}),
        ("independent", {}),
    ])
    def test_other_drivers_are_byte_identical(self, strategy, options):
        _, ref = run_session(strategy, "seu-storm", "reference", options)
        _, num = run_session(strategy, "seu-storm", "numpy", options)
        _, comp = run_session(strategy, "seu-storm", "compiled", options)
        assert comparable(ref) == comparable(num)
        assert comparable(ref) == comparable(comp)

    def test_scenario_actually_perturbs_the_run(self):
        """Sanity check that the timeline is not a no-op: a quiet run and a
        stormy run with the same seeds diverge."""
        _, quiet = run_session("parallel", None, "reference")
        _, storm = run_session("parallel", "seu-storm", "reference")
        assert "scenario" not in quiet.results
        assert storm.results["scenario"]["n_events"] > 0
        assert (
            quiet.results["fitness_history"] != storm.results["fitness_history"]
            or quiet.results["best_genotypes"] != storm.results["best_genotypes"]
        )


class TestExecutorParity:
    def build_spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="scenario-parity",
            platform=PlatformConfig(n_arrays=3, seed=SEED),
            evolution=EvolutionConfig(strategy="parallel", n_generations=6, seed=SEED),
            task=TASK,
            scenario=FaultScenario(name="sweepable", seu_rate=0.4, scrub_period=3),
            grid={
                "scenario.seu_rate": [0.4, 1.0],
                "platform.backend": ["reference", "numpy", "compiled"],
            },
            seed=SEED,
        )

    def test_scenario_axis_expands_into_evolution_configs(self):
        runs = self.build_spec().expand()
        assert len(runs) == 6
        rates = {run.evolution.scenario["seu_rate"] for run in runs}
        assert rates == {0.4, 1.0}
        # The spec round-trips through JSON with its scenario intact.
        spec = self.build_spec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_evolution_scenario_axis_beats_the_base_scenario(self):
        """Regression: the campaign's base scenario must not clobber a
        swept evolution.scenario axis — the axis wins per grid point."""
        spec = CampaignSpec(
            name="axis-wins",
            scenario=FaultScenario(name="base-quiet"),
            grid={"evolution.scenario": ["seu-storm", "scrub-race"]},
            seed=SEED,
        )
        runs = spec.expand()
        assert [run.evolution.scenario for run in runs] == ["seu-storm", "scrub-race"]
        # Without the axis, the base scenario is injected into every run.
        base_only = CampaignSpec(
            name="base-only",
            scenario=FaultScenario(name="base-quiet"),
            grid={"evolution.mutation_rate": [1, 3]},
            seed=SEED,
        )
        for run in base_only.expand():
            assert run.evolution.scenario["name"] == "base-quiet"

    def test_scenario_axis_requires_a_base_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            CampaignSpec(
                name="broken",
                grid={"scenario.seu_rate": [0.1]},
            ).expand()

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario config field"):
            CampaignSpec(
                name="broken",
                scenario=FaultScenario(name="x"),
                grid={"scenario.does_not_exist": [1]},
            )

    @pytest.mark.parametrize("scenario", FROZEN_SCENARIOS)
    def test_frozen_scenarios_join_the_campaign_gate(self, scenario):
        """The frozen red-team workloads run under the same executor-parity
        contract as the hand-written régimes."""
        spec = CampaignSpec(
            name=f"frozen-parity-{scenario}",
            platform=PlatformConfig(n_arrays=3, seed=SEED),
            evolution=EvolutionConfig(strategy="parallel", n_generations=6, seed=SEED),
            task=TASK,
            scenario=SCENARIOS.get(scenario),
            grid={"platform.backend": ["reference", "numpy", "compiled"]},
            seed=SEED,
        )
        serial = run_campaign(spec, executor="serial")
        threaded = run_campaign(spec, executor="thread", max_workers=2)
        assert serial.n_failed == 0 and threaded.n_failed == 0
        artifacts = []
        for run in spec.expand():
            a = serial.artifact_for(run)
            assert a.to_dict() == threaded.artifact_for(run).to_dict()
            artifacts.append(a)
        # Backend-invariant mid-evolution injection, frozen workloads included.
        results = [a.results for a in artifacts]
        for other in results[1:]:
            assert results[0]["fitness_history"] == other["fitness_history"]
            assert results[0]["scenario"]["events"] == other["scenario"]["events"]
        assert results[0]["scenario"]["n_events"] > 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executors_match_serial(self, executor):
        spec = self.build_spec()
        serial = run_campaign(spec, executor="serial")
        other = run_campaign(spec, executor=executor, max_workers=2)
        assert serial.n_failed == 0 and other.n_failed == 0
        for run in spec.expand():
            a = serial.artifact_for(run).to_dict()
            b = other.artifact_for(run).to_dict()
            assert a == b
        # Backend pairs inside one executor also agree: mid-evolution
        # injection is backend-invariant.
        runs = spec.expand()
        by_key = {}
        for run in runs:
            key = run.evolution.scenario["seu_rate"]
            by_key.setdefault(key, []).append(serial.artifact_for(run))
        for key, artifacts in by_key.items():
            results = [a.results for a in artifacts]
            for other in results[1:]:
                assert results[0]["fitness_history"] == other["fitness_history"]
                assert results[0]["scenario"]["events"] == other["scenario"]["events"]


class TestRedTeamSearchParity:
    """Same seed => byte-identical adversarial-search archive everywhere."""

    def tiny_config(self, **overrides):
        settings = dict(
            seed=SEED,
            n_generations=2,
            n_offspring=2,
            bounds=ScenarioBounds(horizon=4, event_budget=6.0),
            image_side=16,
            evolution_generations=4,
            healing_generations=3,
        )
        settings.update(overrides)
        return RedTeamConfig(**settings)

    @pytest.mark.parametrize("executor", ["process", "distributed"])
    def test_archive_bytes_match_serial(self, executor, tmp_path):
        serial = red_team_search(
            self.tiny_config(), executor="serial", root=str(tmp_path / "serial")
        )
        other = red_team_search(
            self.tiny_config(), executor=executor, max_workers=2,
            root=str(tmp_path / executor),
        )
        assert serial.archive_json() == other.archive_json()
        a = (tmp_path / "serial" / "archive.json").read_bytes()
        b = (tmp_path / executor / "archive.json").read_bytes()
        assert a == b

    def test_archive_content_matches_across_backends(self):
        """Backends agree on everything the search *discovered*: the config
        stanza records which backend evaluated the missions (and the run
        signatures hash it), so those provenance fields are the only
        permitted difference."""

        def content(result):
            payload = result.archive_payload()
            payload.pop("signature")
            config = dict(payload["config"])
            config.pop("backend")
            payload["config"] = config
            payload["archive"] = [
                {k: v for k, v in entry.items() if k != "run_signature"}
                for entry in payload["archive"]
            ]
            return payload

        reference, numpy_, compiled = (
            red_team_search(self.tiny_config(backend=backend))
            for backend in ("reference", "numpy", "compiled")
        )
        assert content(reference) == content(numpy_)
        assert content(reference) == content(compiled)
