"""FuzzCampaign spec: validation, expansion, and serialization."""

import os

import pytest

from repro.errors import FuzzCampaignError
from repro.fuzz import TEMPLATE, FuzzCampaign

_CELL = {"app": "race", "nranks": 4, "cls": "S", "platform": "simple"}


def _campaign(**kw):
    base = dict(name="t", apps=(_CELL,), policies=("random",), seeds=2)
    base.update(kw)
    return FuzzCampaign(**base)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(FuzzCampaignError, match="non-empty"):
            _campaign(name="")

    def test_unknown_mode_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown mode"):
            _campaign(mode="generate")

    def test_no_apps_rejected(self):
        with pytest.raises(FuzzCampaignError, match="fuzzes nothing"):
            _campaign(apps=())

    def test_cell_without_app_rejected(self):
        with pytest.raises(FuzzCampaignError, match="names no app"):
            _campaign(apps=({"nranks": 4},))

    def test_base_app_satisfies_cells(self):
        c = _campaign(base={"app": "race"}, apps=({"nranks": 4},))
        assert c.cells()[0].overrides["app"] == "race"

    def test_reserved_fields_rejected(self):
        with pytest.raises(FuzzCampaignError, match="owned by"):
            _campaign(base={"schedule_policy": "random"})
        with pytest.raises(FuzzCampaignError, match="owned by"):
            _campaign(apps=(dict(_CELL, schedule_seed=1),))
        with pytest.raises(FuzzCampaignError, match="owned by"):
            _campaign(apps=(dict(_CELL, topology="torus3d"),))

    def test_unknown_config_field_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown config"):
            _campaign(base={"warp_factor": 9})

    def test_canonical_policy_rejected_with_hint(self):
        with pytest.raises(FuzzCampaignError, match="redundant"):
            _campaign(policies=("canonical",))

    def test_unknown_policy_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown fuzz"):
            _campaign(policies=("chaos",))

    def test_duplicate_policy_rejected(self):
        with pytest.raises(FuzzCampaignError, match="more than once"):
            _campaign(policies=("random", "random"))

    def test_bad_seeds_rejected(self):
        with pytest.raises(FuzzCampaignError, match="positive int"):
            _campaign(seeds=0)
        with pytest.raises(FuzzCampaignError, match="positive int"):
            _campaign(seeds=True)

    def test_bad_topology_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown topology"):
            _campaign(topologies=("moebius",))

    def test_check_counts_points_and_surfaces_bad_configs(self):
        # 1 canonical + 1 policy x 2 seeds = 3 points
        assert _campaign().check() == 3
        bad = _campaign(apps=({"app": "race", "nranks": -4},))
        with pytest.raises(FuzzCampaignError, match="nranks"):
            bad.check()


class TestExpansion:
    def test_point_count_matches_expansion(self):
        nightly = os.path.join(os.path.dirname(__file__), "..", "..",
                               "benchmarks", "fuzz_nightly.yaml")
        for c in (_campaign(), _campaign(seeds=3, topologies=(None, "torus3d")),
                  FuzzCampaign.loads(TEMPLATE), FuzzCampaign.load(nightly)):
            assert c.point_count() == len(c.points())

    def test_points_canonical_first_then_policy_seed_order(self):
        c = _campaign(policies=("random", "adversarial-delay"),
                      seeds=2, seed0=5)
        pts = c.points()
        assert [(p.policy, p.seed) for p in pts] == [
            (None, None),
            ("random", 5), ("random", 6),
            ("adversarial-delay", 5), ("adversarial-delay", 6)]
        assert [p.index for p in pts] == list(range(5))
        assert pts[1].overrides()["schedule_policy"] == "random"
        assert pts[1].overrides()["schedule_seed"] == 5
        assert "schedule_policy" not in pts[0].overrides()

    def test_topologies_cross_cells(self):
        c = _campaign(topologies=(None, "torus3d"))
        cells = c.cells()
        assert len(cells) == 2
        assert cells[0].topology is None
        assert "topology" not in cells[0].overrides
        assert cells[1].overrides["topology"] == "torus3d"

    def test_sweep_plan_mirrors_points(self):
        c = _campaign()
        plan = c.to_sweep_plan()
        assert plan.name == "fuzz-t"
        assert len(plan.points()) == len(c.points())
        assert plan.points()[1].overrides == c.points()[1].overrides()

    def test_labels_are_human_readable(self):
        c = _campaign()
        assert c.points()[0].label() == \
            "race/np=4/cls=S/simple canonical"
        assert "random(seed=0)" in c.points()[1].label()


class TestSerialization:
    def test_roundtrip_preserves_digest(self):
        c = _campaign(policies=("random", "adversarial-delay"),
                      topologies=(None, "fattree"), seeds=3, seed0=2)
        again = FuzzCampaign.loads(c.dumps())
        assert again == c
        assert again.digest() == c.digest()

    def test_digest_tracks_content(self):
        assert _campaign().digest() != _campaign(seeds=3).digest()
        assert _campaign().digest() == _campaign().digest()

    def test_template_parses_and_validates(self):
        c = FuzzCampaign.loads(TEMPLATE)
        assert c.name == "race-hunt"
        assert c.check() > 0

    def test_unknown_keys_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unknown fuzz"):
            FuzzCampaign.loads("name: x\nturbo: true\n")

    def test_non_mapping_rejected(self):
        with pytest.raises(FuzzCampaignError, match="mapping"):
            FuzzCampaign.loads("- just\n- a list\n")

    def test_unparsable_rejected(self):
        with pytest.raises(FuzzCampaignError, match="unparsable"):
            FuzzCampaign.loads("{unbalanced: [")

    def test_describe_mentions_scale(self):
        text = _campaign().describe()
        assert "1 cell(s)" in text and "3 point(s)" in text
