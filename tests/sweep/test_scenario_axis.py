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


class TestSpecObjectsInPlans:
    """A plan whose values are ``Scenario``/``FaultPlan`` objects is its
    dict-form twin: one digest, and byte-identical canonical results at
    any worker count (the plan keeps values in plain-data form)."""

    @staticmethod
    def _plan(scenario, faults):
        return SweepPlan(
            name="objects", base={"app": "ring", "nranks": 4},
            axes=[{"field": "scenario",
                   "values": [None, scenario]}],
            extra_points=({"scenario": scenario, "fault_plan": faults},))

    def test_object_form_is_dict_form(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.scenarios import get_scenario
        scenario = get_scenario("codel-pressure")
        faults = FaultPlan(seed=1, drop_rate=0.05)
        objects = self._plan(scenario, faults)
        plain = self._plan(scenario.to_dict(), faults.to_dict())
        assert objects.digest() == plain.digest()
        assert objects == plain
        outputs = set()
        for name, plan in (("objects", objects), ("plain", plain)):
            for workers in (1, 2):
                result = run_sweep(
                    plan, workers=workers,
                    cache_dir=str(tmp_path / f"{name}-{workers}"))
                assert result.counts()["ok"] == 3
                outputs.add((result.canonical_json(),
                             result.canonical_jsonl()))
        assert len(outputs) == 1

    def test_generate_point_holding_a_scenario_renders(self, tmp_path):
        import json

        from repro.scenarios import get_scenario
        calm = get_scenario("calm")
        plan = SweepPlan(mode="generate", extra_points=(
            {"app": "ring", "nranks": 4, "scenario": calm},))
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "cache"))
        point = json.loads(result.canonical_json())["points"][0]
        assert point["params"]["scenario"] == calm.to_dict()
