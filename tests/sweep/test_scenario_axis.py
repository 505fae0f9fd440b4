"""The sweep's scenario axis: one cached trace, many executions.

Scenarios are execution-only, so a plan sweeping the scenario axis
shares a single cached trace/source across every point — the whole
reason the axis exists — while the per-point metrics surface the
scenario's execution-side consequences (makespan shifts, link waits,
drop counters)."""

import pytest

from repro.errors import SweepPlanError
from repro.sweep import SweepPlan, run_sweep


def scenario_plan(values, **base_extra):
    base = dict(app="sweep3d", nranks=8)
    base.update(base_extra)
    return SweepPlan(name="scn", base=base,
                     axes=[{"field": "scenario", "values": values}])


class TestScenarioAxis:
    def test_scenario_is_a_sweepable_field(self):
        plan = scenario_plan(["calm", "torus-hotlink"])
        assert plan.check() == 2

    def test_invalid_scenario_rejected_at_validation(self):
        with pytest.raises(SweepPlanError, match="unknown scenario"):
            scenario_plan(["nope"]).check()

    def test_points_share_one_cached_trace(self, tmp_path):
        plan = scenario_plan(["calm", "torus-hotlink",
                              "straggler-wavefront"])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "cache"))
        assert result.counts()["ok"] == 3
        # one trace + one source computed; both reused by later points
        assert result.cache_misses == 2
        assert result.cache_hits == 4

    def test_worker_parity(self, tmp_path):
        plan = scenario_plan(["calm", "torus-hotlink",
                              "codel-pressure"])
        serial = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c1"))
        parallel = run_sweep(plan, workers=2,
                             cache_dir=str(tmp_path / "c2"))
        assert serial.canonical_json() == parallel.canonical_json()

    def test_scenario_metrics_surface(self, tmp_path):
        plan = scenario_plan(["calm", "torus-hotlink"])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "cache"))
        calm, hot = result.points
        assert calm.metrics["scenario"] == "calm"
        assert hot.metrics["scenario"] == "torus-hotlink"
        assert hot.metrics["scenario_digest"]
        # the hot-link scenario routes over a torus; calm stays flat
        assert hot.metrics["links_used"] > 0
        assert calm.metrics["links_used"] == 0
        assert hot.metrics["makespan_s"] > calm.metrics["makespan_s"]

    def test_drop_counters_reach_metrics(self, tmp_path):
        plan = SweepPlan(
            name="drops",
            base={"app": "sweep3d", "nranks": 16, "cls": "W"},
            axes=[{"field": "scenario",
                   "values": ["calm", "codel-pressure"]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "cache"))
        calm, codel = result.points
        assert calm.metrics["link_drops"] == 0
        assert codel.metrics["link_drops"] > 0

    def test_inline_scenario_mapping_in_plan_text(self, tmp_path):
        plan = SweepPlan.loads("""
name: inline-scn
base: {app: ring, nranks: 4}
axes:
  - field: scenario
    values:
      - null
      - {name: mine, adversaries: [{kind: hotspot}]}
""")
        assert plan.check() == 2
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "cache"))
        assert result.counts()["ok"] == 2
        assert result.points[1].metrics["scenario"] == "mine"
