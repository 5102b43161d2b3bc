"""The content-addressed dedupe cache, standalone and through the engine."""

import json

import pytest

from repro.runtime.engine import run_campaign
from repro.runtime.store import CampaignStore, DedupeCache


@pytest.fixture
def renamed_campaign(tiny_campaign):
    """The same work as ``tiny_campaign`` under a different campaign name."""
    return tiny_campaign.__class__.from_dict(
        {**tiny_campaign.to_dict(), "name": "tiny-renamed"}
    )


class TestDedupeCache:
    def test_publish_then_lookup_round_trips(self, tmp_path):
        cache = DedupeCache(tmp_path / "cache")
        artifact = {"kind": "demo", "results": {"overall_best_fitness": 1.5}}
        assert cache.publish("sig-a", artifact, campaign="one") is True
        assert cache.lookup("sig-a") == artifact
        assert cache.lookup("sig-missing") is None
        assert "sig-a" in cache
        assert len(cache) == 1

    def test_first_write_wins(self, tmp_path):
        cache = DedupeCache(tmp_path / "cache")
        cache.publish("sig", {"results": {"v": 1}})
        assert cache.publish("sig", {"results": {"v": 2}}) is False
        assert cache.lookup("sig") == {"results": {"v": 1}}

    def test_entries_persist_across_instances(self, tmp_path):
        DedupeCache(tmp_path / "cache").publish("sig", {"results": {}}, run_id="r1")
        reopened = DedupeCache(tmp_path / "cache")
        assert reopened.lookup("sig") == {"results": {}}
        assert reopened.signatures() == {"sig"}

    def test_live_instance_sees_foreign_appends(self, tmp_path):
        """Tail-read refresh: a second handle (another process in real
        deployments) publishing is visible without reconstructing."""
        local = DedupeCache(tmp_path / "cache")
        assert local.lookup("sig") is None  # loads (empty) index
        foreign = DedupeCache(tmp_path / "cache")
        foreign.publish("sig", {"results": {"v": 7}})
        assert local.lookup("sig") == {"results": {"v": 7}}

    def test_a_duplicate_signature_keeps_its_first_entry(self, tmp_path):
        cache = DedupeCache(tmp_path / "cache")
        cache.publish("sig", {"results": {"v": 1}}, run_id="first")
        with cache.index_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"signature": "sig", "run_id": "second"}) + "\n")
        # The index entry itself is only visible through the view: lookup
        # serves the artifact file named after the signature.
        for reader in (cache, DedupeCache(tmp_path / "cache")):
            assert reader.signatures() == {"sig"}
            assert reader._view.entries["sig"]["run_id"] == "first"
            assert reader.lookup("sig") == {"results": {"v": 1}}

    def test_corrupt_index_line_is_skipped(self, tmp_path):
        cache = DedupeCache(tmp_path / "cache")
        cache.publish("sig-good", {"results": {}})
        with cache.index_path.open("a", encoding="utf-8") as handle:
            handle.write('{"signature": "sig-torn')
        reopened = DedupeCache(tmp_path / "cache")
        assert reopened.signatures() == {"sig-good"}

    def test_publish_after_a_torn_line_reaches_fresh_readers(self, tmp_path):
        cache = DedupeCache(tmp_path / "cache")
        cache.publish("sig-good", {"results": {}})
        with cache.index_path.open("a", encoding="utf-8") as handle:
            handle.write('{"signature": "sig-torn')  # killed mid-line
        cache.publish("sig-next", {"results": {"v": 1}})
        reader = DedupeCache(tmp_path / "cache")
        assert reader.signatures() == {"sig-good", "sig-next"}
        assert reader.lookup("sig-next") == {"results": {"v": 1}}
        # The fragment stays isolated on its own line: it is the only
        # line of the index that fails to parse.
        unparseable = []
        for line in cache.index_path.read_text(encoding="utf-8").splitlines():
            try:
                json.loads(line)
            except json.JSONDecodeError:
                unparseable.append(line)
        assert unparseable == ['{"signature": "sig-torn']


class TestEngineDedupe:
    def test_identical_campaign_is_served_entirely_from_cache(
        self, tiny_campaign, renamed_campaign, tmp_path
    ):
        cache = DedupeCache(tmp_path / "cache")
        first = run_campaign(tiny_campaign, executor="serial", cache=cache)
        assert first.n_completed == 4
        assert first.n_cached == 0

        statuses = []
        second = run_campaign(
            renamed_campaign,
            executor="serial",
            cache=cache,
            progress=lambda run, status: statuses.append(status),
        )
        # Zero re-evolved runs: every run is a signature hit despite the
        # different campaign name.
        assert statuses == ["cached"] * 4
        assert second.n_cached == 4
        assert sorted(row["status"] for row in second.rows()) == ["cached"] * 4
        # Cache hits return the identical artifacts, byte for byte.
        firsts = [a.to_dict() for a in first.ordered_artifacts()]
        seconds = [a.to_dict() for a in second.ordered_artifacts()]
        assert firsts == seconds

    def test_cache_hits_are_recorded_in_the_store_as_cached(
        self, tiny_campaign, renamed_campaign, tmp_path
    ):
        cache = DedupeCache(tmp_path / "cache")
        run_campaign(tiny_campaign, executor="serial", cache=cache)
        store = CampaignStore(tmp_path / "store-two")
        run_campaign(renamed_campaign, executor="serial", store=store, cache=cache)
        rows = store.index()
        assert [row["status"] for row in rows] == ["cached"] * 4
        summary = store.summary()
        assert summary["n_cached"] == 4
        assert summary["n_completed"] == 0
        # Cached runs carry real artifact files: the store is self-contained.
        for row in rows:
            loaded = store.load_artifact(row["run_id"])
            assert loaded.results["overall_best_fitness"] is not None

    def test_cached_status_survives_resume(
        self, tiny_campaign, renamed_campaign, tmp_path
    ):
        cache = DedupeCache(tmp_path / "cache")
        run_campaign(tiny_campaign, executor="serial", cache=cache)
        store = tmp_path / "store-two"
        run_campaign(renamed_campaign, executor="serial", store=store, cache=cache)
        # Resume from the store (no cache attached): cached runs stay
        # visibly cached instead of upgrading to "resumed".
        resumed = run_campaign(renamed_campaign, executor="serial", store=store)
        assert resumed.n_cached == 4
        assert resumed.resumed_run_ids == []
        assert sorted(row["status"] for row in resumed.rows()) == ["cached"] * 4

    def test_campaign_artifact_reports_n_cached(
        self, tiny_campaign, renamed_campaign, tmp_path
    ):
        cache = DedupeCache(tmp_path / "cache")
        run_campaign(tiny_campaign, executor="serial", cache=cache)
        second = run_campaign(renamed_campaign, executor="serial", cache=cache)
        results = second.artifact().results
        assert results["n_cached"] == 4
        # n_completed counts artifact-bearing runs (like resumed runs do);
        # the rows tell cached and computed apart.
        assert results["n_completed"] == 4
        assert sorted(row["status"] for row in results["rows"]) == ["cached"] * 4
        payload = json.loads(second.artifact().to_json())
        assert payload["results"]["n_cached"] == 4

    def test_cache_accepts_a_path_argument(self, tiny_campaign, tmp_path):
        run_campaign(tiny_campaign, executor="serial", cache=tmp_path / "cache")
        rerun = run_campaign(
            tiny_campaign, executor="serial", cache=tmp_path / "cache"
        )
        assert rerun.n_cached == 4

    def test_partial_overlap_only_computes_the_new_points(
        self, tiny_campaign, tmp_path
    ):
        cache = DedupeCache(tmp_path / "cache")
        run_campaign(tiny_campaign, executor="serial", cache=cache)
        widened = tiny_campaign.__class__.from_dict(
            {
                **tiny_campaign.to_dict(),
                "name": "tiny-wide",
                "grid": {
                    "evolution.mutation_rate": [1, 3, 5],
                    "task.noise_level": [0.05, 0.1],
                },
            }
        )
        result = run_campaign(widened, executor="serial", cache=cache)
        assert result.n_cached == 4  # the original 2x2 grid
        assert result.n_completed == 6
        by_status = {}
        for row in result.rows():
            by_status.setdefault(row["status"], []).append(row["overrides"])
        assert len(by_status["cached"]) == 4
        assert len(by_status["completed"]) == 2
