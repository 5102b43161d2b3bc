"""Unit tests for the adversarial scenario search (:mod:`repro.scenarios.search`)."""

import json

import numpy as np
import pytest

from repro.runtime.engine import run_campaign
from repro.scenarios import SCENARIOS, FaultScenario, compile_schedule
from repro.scenarios.search import (
    ArchiveEntry,
    RedTeamConfig,
    ScenarioArchive,
    ScenarioBounds,
    ScenarioGenotypeOperator,
    build_mission_campaign,
    clamp_scenario,
    expected_fault_events,
    initial_scenario,
    mission_metrics,
    red_team_search,
    scenario_within_bounds,
    schedule_event_summary,
)

SEED = 2013


def make_entry(signature, degradation, steps, scenario=None):
    return ArchiveEntry(
        scenario=scenario or FaultScenario(name=f"s-{signature}"),
        metrics={"degradation": degradation, "steps_degraded": steps},
        scenario_signature=signature,
        schedule_signature=f"sched-{signature}",
        run_signature=f"run-{signature}",
        generation=0,
    )


class TestScenarioArchive:
    def test_keeps_non_dominated_entries(self):
        archive = ScenarioArchive()
        assert archive.offer(make_entry("a", 10.0, 1))
        assert archive.offer(make_entry("b", 5.0, 4))  # trade-off: kept
        assert {e.scenario_signature for e in archive.entries} == {"a", "b"}

    def test_rejects_dominated_and_evicts_on_admission(self):
        archive = ScenarioArchive()
        archive.offer(make_entry("a", 10.0, 2))
        assert not archive.offer(make_entry("worse", 9.0, 1))
        # A dominator evicts what it beats on both axes.
        assert archive.offer(make_entry("best", 11.0, 3))
        assert [e.scenario_signature for e in archive.entries] == ["best"]

    def test_first_discovery_wins_a_metric_tie(self):
        archive = ScenarioArchive()
        archive.offer(make_entry("first", 10.0, 2))
        assert not archive.offer(make_entry("twin", 10.0, 2))
        assert len(archive.entries) == 1

    def test_duplicate_scenario_signature_rejected(self):
        archive = ScenarioArchive()
        archive.offer(make_entry("a", 10.0, 2))
        assert not archive.offer(make_entry("a", 99.0, 9))

    def test_sorted_entries_are_canonical(self):
        archive = ScenarioArchive()
        archive.offer(make_entry("low", 5.0, 9))
        archive.offer(make_entry("high", 10.0, 1))
        assert [e.scenario_signature for e in archive.sorted_entries()] == ["high", "low"]

    def test_round_trips_through_dict(self):
        archive = ScenarioArchive()
        archive.offer(make_entry("a", 10.0, 1))
        rebuilt = ScenarioArchive.from_dict(archive.to_dict())
        assert rebuilt.to_dict() == archive.to_dict()


class TestBoundsAndClamp:
    BOUNDS = ScenarioBounds(horizon=8, event_budget=10.0)

    def test_bounds_validate(self):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioBounds(horizon=0)
        with pytest.raises(ValueError, match="event_budget"):
            ScenarioBounds(event_budget=0.0)

    def test_clamp_merges_duplicate_generations(self):
        scenario = FaultScenario(name="dup", seu_bursts=((2, 1), (2, 2)))
        clamped = clamp_scenario(scenario, self.BOUNDS)
        assert clamped.seu_bursts == ((2, 3),)

    def test_clamp_shrinks_from_the_timeline_tail(self):
        scenario = FaultScenario(
            name="over", seu_bursts=((0, 6), (7, 6)), lpd_onsets=((3, 2),)
        )
        clamped = clamp_scenario(scenario, self.BOUNDS)
        assert scenario_within_bounds(clamped, self.BOUNDS)
        # The opening burst survives intact; the tail paid the budget.
        assert clamped.seu_bursts[0] == (0, 6)
        assert expected_fault_events(clamped, 8) <= 10.0 + 1e-9

    def test_expected_events_ignores_out_of_horizon_entries(self):
        scenario = FaultScenario(name="late", seu_rate=0.5, seu_bursts=((20, 6),))
        assert expected_fault_events(scenario, 8) == pytest.approx(4.0)

    def test_initial_scenario_within_bounds(self):
        assert scenario_within_bounds(initial_scenario(self.BOUNDS), self.BOUNDS)

    def test_operator_output_is_always_valid(self):
        operator = ScenarioGenotypeOperator(self.BOUNDS)
        rng = np.random.default_rng(0)
        scenario = initial_scenario(self.BOUNDS)
        for _ in range(200):
            scenario = operator(scenario, 2, rng)
            assert scenario_within_bounds(scenario, self.BOUNDS)


class TestScheduleEventSummary:
    def test_skips_empty_generations(self):
        # Events only in the opening generation: the quiet tail must not
        # produce spurious scenario_events entries.
        scenario = FaultScenario(name="front", seu_bursts=((0, 2),), scrub_period=3)
        schedule = compile_schedule(scenario, 7, n_arrays=3, seed=SEED)
        summary = schedule_event_summary(schedule)
        assert set(summary) == {"0", "3", "6"}
        assert summary["0"] == {"seu": 2}

    def test_zero_length_schedule_summarises_empty(self):
        schedule = compile_schedule(SCENARIOS.get("seu-storm"), 0, n_arrays=3, seed=SEED)
        assert schedule_event_summary(schedule) == {}


class TestMissionEvaluation:
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

    def test_config_validates_and_round_trips(self):
        config = self.tiny_config()
        rebuilt = RedTeamConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        with pytest.raises(ValueError, match="objective"):
            self.tiny_config(objective="nonsense")
        with pytest.raises(ValueError, match="n_generations"):
            self.tiny_config(n_generations=-1)

    def test_mission_campaign_pins_every_seed(self):
        config = self.tiny_config()
        scenarios = [initial_scenario(config.bounds)]
        spec = build_mission_campaign(config, scenarios, 3)
        assert spec.name == "red-team-gen-0003"
        assert spec.platform.seed == SEED
        assert spec.evolution.seed == SEED
        assert spec.task.seed == SEED
        assert spec.healing.seed == SEED
        assert spec.params["mission_steps"] == 4

    def test_mission_metrics_shape(self):
        config = self.tiny_config()
        spec = build_mission_campaign(config, [initial_scenario(config.bounds)], 0)
        campaign = run_campaign(spec)
        run = spec.expand()[0]
        metrics = mission_metrics(campaign.artifact_for(run).results)
        assert metrics["degradation"] >= 0.0
        assert metrics["steps_degraded"] >= 0
        assert metrics["n_events"] >= 0
        assert set(metrics) >= {
            "degradation", "steps_degraded", "n_unrecovered", "n_recovered",
            "n_events", "baseline_worst_fitness", "final_worst_fitness",
        }

    def test_search_resumes_and_serves_from_cache(self, tmp_path):
        config = self.tiny_config()
        cold = red_team_search(config, root=str(tmp_path / "root"))
        assert cold.summary()["status_counts"] == {"completed": cold.n_evaluations}
        # Same root: every campaign resumes from its store.
        warm = red_team_search(config, root=str(tmp_path / "root"))
        assert warm.summary()["status_counts"] == {"resumed": warm.n_evaluations}
        assert warm.archive_json() == cold.archive_json()
        # Fresh root, shared dedupe cache: every run is a cache hit.
        cached = red_team_search(
            config, root=str(tmp_path / "fresh"), cache=str(tmp_path / "root" / "cache")
        )
        assert cached.summary()["status_counts"] == {"cached": cached.n_evaluations}
        assert cached.archive_json() == cold.archive_json()

    def test_archive_entries_record_only_non_empty_generations(self, tmp_path):
        result = red_team_search(self.tiny_config(), root=str(tmp_path / "r"))
        assert result.archive.entries
        for entry in result.archive.entries:
            for generation, counts in entry.scenario_events.items():
                assert 0 <= int(generation) < 4
                assert counts and all(count > 0 for count in counts.values())

    def test_trajectory_and_best_are_consistent(self, tmp_path):
        result = red_team_search(self.tiny_config(), root=str(tmp_path / "r"))
        assert len(result.trajectory) == 2
        best_in_archive = result.archive.sorted_entries()[0]
        objective = result.config.objective
        assert objective == "degradation"
        assert best_in_archive.metrics["degradation"] == pytest.approx(
            -result.best_fitness
        )

    def test_experiment_wrapper_returns_artifact(self, tmp_path):
        from repro.experiments import run_red_team

        artifact = run_red_team(self.tiny_config(), root=str(tmp_path / "r"))
        assert artifact.kind == "red-team"
        assert artifact.results["archive"]
        assert artifact.results["archive_signature"]
        assert artifact.results["n_evaluations"] > 0
        payload = json.loads((tmp_path / "r" / "archive.json").read_text())
        assert payload["signature"] == artifact.results["archive_signature"]


#: Archive signature of the small search below; any change to the ES draw
#: order, its acceptance rule or the mission evaluation moves it.
PINNED_SEARCH_SIGNATURE = "ea0e6978a5f7905af3c544b71578435b5b321a8dd5504e6e8c074c51c030189a"


def test_search_trajectory_is_pinned():
    """The (1+λ) outer loop over scenarios reproduces a recorded archive."""
    config = RedTeamConfig(
        n_generations=2, n_offspring=3, image_side=12,
        evolution_generations=3, healing_generations=3,
    )
    assert red_team_search(config).archive_payload()["signature"] == PINNED_SEARCH_SIGNATURE
