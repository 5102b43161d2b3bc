"""The api package's lazy campaign re-exports resolve to repro.runtime."""

import pytest

import repro
import repro.api as api
import repro.core as core
import repro.runtime as runtime


class TestRuntimeReExports:
    def test_every_declared_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_campaign_names_are_the_runtime_objects(self):
        assert api.CampaignSpec is runtime.CampaignSpec
        assert api.run_campaign is runtime.run_campaign
        assert api.CampaignStore is runtime.CampaignStore
        assert api.RUNNERS is runtime.RUNNERS
        assert api.EXECUTORS is runtime.EXECUTORS

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.definitely_not_an_export

    def test_top_level_package_exports_campaigns(self):
        assert repro.CampaignSpec is runtime.CampaignSpec
        assert repro.run_campaign is runtime.run_campaign


class TestCoreExports:
    def test_removed_batch_entry_point_is_not_exported(self):
        assert "evaluate_batch" not in core.__all__
        assert not hasattr(core, "evaluate_batch")
