"""Tests for the repro-ehw command-line interface."""

import json
from pathlib import Path

import pytest

from repro.api.artifact import RunArtifact
from repro.cli import build_parser, main

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Minimal fast arguments per subcommand, used by the --json round-trip
#: sweep below.  Registering a new experiment without adding an entry
#: here fails the sweep, so coverage keeps up with the registry.
FAST_ARGS = {
    "resources": ["--arrays", "3"],
    "speedup": ["--generations", "1000"],
    "new-ea": ["--generations", "8", "--runs", "1", "--image-side", "24", "--seed", "1"],
    "cascade-quality": [
        "--generations", "8", "--runs", "1", "--image-side", "24", "--seed", "1",
    ],
    "cascade-demo": [
        "--generations", "10", "--image-side", "24", "--noise", "0.3", "--seed", "1",
    ],
    "imitation": [
        "--generations", "8", "--runs", "1", "--image-side", "24", "--seed", "1",
    ],
    "tmr-recovery": ["--generations", "15", "--image-side", "24", "--seed", "1"],
    "fault-sweep": ["--generations", "10", "--image-side", "24", "--seed", "1"],
    "campaign": [
        "--grid", "evolution.mutation_rate=[1]",
        "--generations", "4", "--image-side", "16", "--seed", "1",
    ],
    "scenario-sweep": [
        "--scenario", "single-seu", "--generations", "6", "--image-side", "16",
        "--seed", "1", "--mission-steps", "3", "--healing-generations", "5",
    ],
    "red-team": [
        "--seed", "1", "--generations", "1", "--offspring", "2",
        "--mission-steps", "4", "--event-budget", "6", "--image-side", "16",
        "--evolution-generations", "3", "--healing-generations", "2",
    ],
    # serve: bind an ephemeral loopback port, serve briefly, exit clean.
    "serve": ["--duration", "0.05"],
    # worker: point at a dead port; --max-errors 1 makes the loop exit on
    # the first connection failure with an honest stats artifact.
    "worker": ["--server", "http://127.0.0.1:9", "--max-errors", "1",
               "--poll-interval", "0.01"],
    # lint: the self-host run — src/repro is clean against the committed
    # baseline, so the artifact's exit_code is 0 and main() returns it.
    "lint": [str(_REPO_ROOT / "src" / "repro")],
    # cache: stats on a nonexistent cache reports exists=no with exit 0
    # and creates nothing on disk.
    "cache": ["stats", str(_REPO_ROOT / "out" / "nonexistent-fitness-cache")],
}


def registered_commands():
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    return sorted(sub_actions[0].choices)


class TestParser:
    def test_all_subcommands_registered(self):
        assert set(registered_commands()) == {
            "resources", "speedup", "new-ea", "cascade-quality", "cascade-demo",
            "imitation", "tmr-recovery", "fault-sweep", "campaign",
            "scenario-sweep", "serve", "worker", "red-team", "lint", "cache",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["new-ea", "campaign"])
    def test_removed_racing_flag_is_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--racing"])


class TestSubcommands:
    def test_resources(self, capsys):
        assert main(["resources", "--arrays", "3"]) == 0
        out = capsys.readouterr().out
        assert "Resource utilisation" in out
        assert "67.53" in out
        assert "754" in out

    def test_speedup_model(self, capsys):
        assert main(["speedup", "--generations", "1000"]) == 0
        out = capsys.readouterr().out
        assert "evolution time" in out
        assert "saving_s" in out

    def test_speedup_measured(self, capsys):
        assert main(["speedup", "--measured", "--generations", "5",
                     "--image-side", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Measured parallel-evolution sweep" in out

    def test_new_ea(self, capsys):
        assert main(["new-ea", "--generations", "10", "--runs", "1",
                     "--image-side", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "classic" in out and "two_level" in out

    def test_cascade_quality(self, capsys):
        assert main(["cascade-quality", "--generations", "8", "--runs", "1",
                     "--image-side", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "adapted_sequential" in out

    def test_cascade_demo(self, capsys):
        assert main(["cascade-demo", "--generations", "15", "--image-side", "24",
                     "--noise", "0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "median filter" in out
        assert "cascade stage 3" in out

    def test_imitation(self, capsys):
        assert main(["imitation", "--generations", "10", "--runs", "1",
                     "--image-side", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "inherited" in out and "random" in out

    def test_tmr_recovery(self, capsys):
        assert main(["tmr-recovery", "--generations", "20", "--image-side", "24",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fault detected: True" in out
        assert "recovery" in out

    def test_fault_sweep(self, capsys):
        assert main(["fault-sweep", "--generations", "15", "--image-side", "24",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Systematic PE-level fault sweep" in out
        assert "critical" in out


class TestCacheCommand:
    """The ``repro-ehw cache`` maintenance subcommand and its exit-code
    contract (0 clean / 1 findings / 2 usage errors, as for lint)."""

    def _populate(self, root):
        from repro.backends.fitness_cache import PersistentFitnessCache

        cache = PersistentFitnessCache(root)
        cache.publish({64 * "a": 10.0, 64 * "b": 20.0})
        return cache

    def test_stats_on_missing_cache_is_clean_and_side_effect_free(self, tmp_path, capsys):
        root = tmp_path / "missing"
        assert main(["cache", "stats", str(root)]) == 0
        assert "exists:       no" in capsys.readouterr().out
        assert not root.exists()

    def test_stats_and_prune_report_entries(self, tmp_path, capsys):
        root = tmp_path / "fcache"
        self._populate(root)
        assert main(["cache", "stats", str(root)]) == 0
        assert "entries:      2" in capsys.readouterr().out
        assert main(["cache", "prune", str(root)]) == 0
        assert "kept 2 of 2" in capsys.readouterr().out

    def test_verify_clean_and_dirty_exit_codes(self, tmp_path, capsys):
        root = tmp_path / "fcache"
        cache = self._populate(root)
        assert main(["cache", "verify", str(root)]) == 0
        assert "verify:       clean" in capsys.readouterr().out
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert main(["cache", "verify", str(root)]) == 1
        out = capsys.readouterr().out
        assert "unparseable" in out

    def test_verify_json_artifact_carries_problems(self, tmp_path, capsys):
        root = tmp_path / "fcache"
        cache = self._populate(root)
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "short", "fitness": 1}\n')
        assert main(["cache", "verify", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "cache"
        assert payload["results"]["exit_code"] == 1
        assert any("malformed key" in p for p in payload["results"]["problems"])

    def test_invalid_action_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "frobnicate", "/tmp/x"])
        assert excinfo.value.code == 2


class TestJsonFlag:
    def test_every_subcommand_accepts_json(self):
        parser = build_parser()
        sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        for command, subparser in sub_actions[0].choices.items():
            options = {opt for a in subparser._actions for opt in a.option_strings}
            assert "--json" in options, f"{command} is missing --json"
            assert "--scenario" in options, f"{command} is missing --scenario"

    def test_json_to_stdout_replaces_tables(self, capsys):
        assert main(["resources", "--arrays", "3", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["kind"] == "resources"
        assert payload["config"]["args"]["arrays"] == 3
        rows = {row["quantity"]: row for row in payload["results"]["rows"]}
        assert rows["ACB slices"]["measured"] == 754

    def test_json_to_file_keeps_tables(self, capsys, tmp_path):
        path = tmp_path / "artifact.json"
        assert main(["resources", "--arrays", "3", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Resource utilisation" in out  # tables still rendered
        payload = json.loads(path.read_text())
        assert payload["kind"] == "resources"

    def test_experiment_json_is_machine_readable(self, capsys):
        assert main(["speedup", "--measured", "--generations", "5",
                     "--image-side", "24", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "speedup"
        assert payload["results"]["mode"] == "measured"
        assert len(payload["results"]["rows"]) == 6  # 3 mutation rates x 2 array counts
        assert payload["provenance"]["schema_version"] == 1


class TestJsonRoundTrip:
    """Every registered subcommand's --json FILE output is a valid RunArtifact."""

    def test_every_registered_command_has_fast_args(self):
        missing = set(registered_commands()) - set(FAST_ARGS)
        assert not missing, (
            f"add FAST_ARGS entries for new subcommand(s): {sorted(missing)}"
        )

    @pytest.mark.parametrize("command", sorted(FAST_ARGS))
    def test_json_file_round_trips_through_run_artifact(self, command, tmp_path, capsys):
        path = tmp_path / f"{command}.json"
        assert main([command, *FAST_ARGS[command], "--json", str(path)]) == 0
        capsys.readouterr()  # tables still render in the file case; drop them
        text = path.read_text()
        artifact = RunArtifact.from_json(text)
        assert artifact.kind
        assert artifact.provenance["schema_version"] == 1
        # A full round trip: parse -> RunArtifact -> dict equals the raw JSON.
        assert artifact.to_dict() == json.loads(text)
