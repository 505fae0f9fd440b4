"""The fuzz campaign's scenario axis: adversity crossed with schedules.

The campaign owns the schedule dimension, so schedule-pinning scenarios
are rejected; everything else crosses into the cell expansion exactly
like the topology axis, and old campaign files keep their digests."""

import pytest

from repro.errors import FuzzCampaignError
from repro.fuzz import FuzzCampaign, run_campaign


def campaign(**kw):
    defaults = dict(name="scn-hunt",
                    apps=({"app": "sweep3d", "nranks": 8},),
                    policies=("random",), seeds=1)
    defaults.update(kw)
    return FuzzCampaign(**defaults)


class TestScenarioAxis:
    def test_default_keeps_legacy_digest_shape(self):
        c = campaign()
        assert c.scenarios == (None,)
        assert "scenarios" not in c.to_dict()

    def test_scenarios_cross_into_cells(self):
        c = campaign(scenarios=(None, "torus-hotlink"))
        cells = c.cells()
        assert len(cells) == 2
        assert cells[0].scenario is None
        assert cells[1].scenario == "torus-hotlink"
        assert cells[1].overrides["scenario"] == "torus-hotlink"
        assert "scenario=torus-hotlink" in cells[1].label()

    def test_round_trip_preserves_digest(self):
        c = campaign(scenarios=("calm", "torus-hotlink"))
        again = FuzzCampaign.loads(c.dumps())
        assert again.digest() == c.digest()

    def test_inline_scenario_entries_normalize(self):
        c = campaign(scenarios=(
            {"name": "mine", "adversaries": [{"kind": "hotspot"}]},))
        (entry,) = c.scenarios
        assert entry["name"] == "mine"
        assert c.cells()[0].scenario == "mine"

    def test_schedule_pinning_scenario_rejected(self):
        with pytest.raises(FuzzCampaignError, match="owns the schedule"):
            campaign(scenarios=("adversarial-schedule",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown scenario"):
            campaign(scenarios=("nope",))

    def test_duplicates_rejected(self):
        with pytest.raises(FuzzCampaignError, match="more than once"):
            campaign(scenarios=("calm", "calm"))
        with pytest.raises(FuzzCampaignError, match="more than once"):
            campaign(scenarios=(None, None))

    def test_cells_may_not_set_scenario_directly(self):
        with pytest.raises(FuzzCampaignError, match="owned by the"):
            campaign(apps=({"app": "ring", "nranks": 4,
                            "scenario": "calm"},))

    def test_points_expand_per_scenario(self):
        c = campaign(scenarios=(None, "torus-hotlink"))
        # per cell: 1 canonical baseline + 1 policy x 1 seed
        assert len(c.points()) == 4
        assert c.to_sweep_plan().check() == 4

    def test_campaign_runs_under_a_scenario(self, tmp_path):
        c = campaign(scenarios=("torus-hotlink",))
        report = run_campaign(c, workers=1, use_cache=True,
                              cache_dir=str(tmp_path / "cache"))
        assert len(report.cells) == 1
