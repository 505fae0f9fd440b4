"""SweepPlan schema: parsing, validation, expansion, digests."""

import pytest

from repro.errors import SweepPlanError
from repro.sweep import TEMPLATE, SweepPlan, build_config


def tiny_plan(**kw):
    defaults = dict(name="tiny", base={"app": "jacobi", "nranks": 4},
                    axes=[{"field": "compute_scale",
                           "values": [1.0, 0.5]}])
    defaults.update(kw)
    return SweepPlan(**defaults)


class TestTemplate:
    def test_template_parses_and_validates(self):
        plan = SweepPlan.loads(TEMPLATE)
        assert plan.name == "fig7-whatif"
        assert plan.mode == "run"
        assert plan.check() == 11  # the Fig. 7 grid

    def test_roundtrip(self):
        plan = SweepPlan.loads(TEMPLATE)
        again = SweepPlan.loads(plan.dumps())
        assert again == plan
        assert again.digest() == plan.digest()


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(SweepPlanError, match="mode"):
            tiny_plan(mode="explode")

    def test_unknown_base_field(self):
        with pytest.raises(SweepPlanError, match="unknown config field"):
            tiny_plan(base={"app": "jacobi", "warp_factor": 9})

    def test_cache_fields_rejected_with_hint(self):
        with pytest.raises(SweepPlanError, match="sweep invocation"):
            tiny_plan(base={"app": "jacobi", "use_cache": True})

    def test_unknown_axis_field(self):
        with pytest.raises(SweepPlanError, match="unknown config field"):
            tiny_plan(axes=[{"field": "bogus", "values": [1]}])

    def test_empty_axis_values(self):
        with pytest.raises(SweepPlanError, match="non-empty"):
            tiny_plan(axes=[{"field": "compute_scale", "values": []}])

    def test_duplicate_axis_field(self):
        with pytest.raises(SweepPlanError, match="more than one axis"):
            tiny_plan(axes=[{"field": "compute_scale", "values": [1.0]},
                            {"field": "compute_scale", "values": [0.5]}])

    def test_plan_must_sweep_something(self):
        with pytest.raises(SweepPlanError, match="sweeps nothing"):
            SweepPlan(name="empty", base={"app": "jacobi", "nranks": 4})

    def test_unknown_top_level_key(self):
        with pytest.raises(SweepPlanError, match="unknown sweep-plan"):
            SweepPlan.loads("name: x\ngrid: []\n")

    def test_check_surfaces_bad_point_values(self):
        plan = tiny_plan(axes=[{"field": "nranks", "values": [4, -1]}])
        with pytest.raises(SweepPlanError, match="point 1"):
            plan.check()

    def test_check_surfaces_bad_fault_plan(self):
        plan = tiny_plan(axes=[{"field": "fault_plan",
                                "values": [{"drop_rate": 7.0}]}])
        with pytest.raises(SweepPlanError, match="point 0"):
            plan.check()


class TestExpansion:
    def test_point_count_matches_expansion(self):
        for plan in (tiny_plan(axes=[{"field": "nranks", "values": [4, 8]},
                                     {"field": "compute_scale",
                                      "values": [1.0, 0.5, 0.0]}]),
                     tiny_plan(extra_points=({"nranks": 8},)),
                     tiny_plan(axes=[], extra_points=({"nranks": 4},)),
                     SweepPlan.loads(TEMPLATE)):
            assert plan.point_count() == len(plan.points())

    def test_product_order_last_axis_fastest(self):
        plan = tiny_plan(axes=[{"field": "nranks", "values": [4, 8]},
                               {"field": "compute_scale",
                                "values": [1.0, 0.5]}])
        combos = [(p.params["nranks"], p.params["compute_scale"])
                  for p in plan.points()]
        assert combos == [(4, 1.0), (4, 0.5), (8, 1.0), (8, 0.5)]

    def test_explicit_points_follow_grid(self):
        plan = tiny_plan(extra_points=[{"nranks": 16}])
        pts = plan.points()
        assert len(pts) == 3
        assert pts[2].params == {"nranks": 16}
        assert pts[2].overrides["app"] == "jacobi"  # base merged in

    def test_point_overrides_beat_base(self):
        plan = tiny_plan(base={"app": "jacobi", "nranks": 4},
                         axes=[{"field": "nranks", "values": [8]}])
        assert plan.points()[0].overrides["nranks"] == 8

    def test_indices_are_expansion_order(self):
        plan = tiny_plan()
        assert [p.index for p in plan.points()] == [0, 1]


class TestDigest:
    def test_digest_stable(self):
        assert tiny_plan().digest() == tiny_plan().digest()

    def test_digest_covers_values_and_order(self):
        base = tiny_plan().digest()
        assert base != tiny_plan(
            axes=[{"field": "compute_scale",
                   "values": [0.5, 1.0]}]).digest()
        assert base != tiny_plan(base={"app": "ring",
                                       "nranks": 4}).digest()
        assert base != tiny_plan(mode="generate").digest()


class TestBuildConfig:
    def test_inline_fault_plan_becomes_object(self):
        from repro.faults import FaultPlan
        config = build_config({"app": "jacobi", "nranks": 4,
                               "fault_plan": {"seed": 7,
                                              "drop_rate": 0.1}})
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.seed == 7

    def test_cache_policy_comes_from_invocation(self):
        config = build_config({"app": "jacobi", "nranks": 4},
                              use_cache=True, cache_dir="/tmp/x")
        assert config.use_cache and config.cache_dir == "/tmp/x"
