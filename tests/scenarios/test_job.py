"""Scenario jobs: one scenario × app cell as its one-point sweep plan.

``scenario_plan`` is the byte-parity bridge between ``repro scenarios
run``, a ``kind: scenario`` service submission and the same plan
written by hand, so the cell → plan step must be deterministic,
digest-stable and end in a plan or a typed error."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import Scenario, scenario_plan
from repro.spec import parse
from repro.sweep import SweepPlan


class TestScenarioJob:
    def test_curated_job_round_trips(self):
        plan = scenario_plan(scenario="torus-hotlink", app="sweep3d",
                             nranks=8)
        again = SweepPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_inline_scenario_round_trips(self):
        inline = {"name": "inline", "topology": "torus3d",
                  "adversaries": [{"kind": "hot-link"}]}
        plan = scenario_plan(scenario=inline, app="lu", nranks=8)
        point = plan.points()[0].overrides
        assert point["scenario"] == Scenario.from_dict(inline).to_dict()
        again = SweepPlan.loads(plan.dumps())
        assert again.digest() == plan.digest()
        assert scenario_plan(scenario=Scenario.from_dict(inline),
                             app="lu", nranks=8) == plan

    def test_name_matches_job_name(self):
        plan = scenario_plan(scenario="calm", app="ring", nranks=4)
        assert plan.name == "scenario-calm-ring"
        assert plan.mode == "run"

    def test_plan_is_one_point_with_the_scenario_riding(self):
        plan = scenario_plan(scenario="calm", app="ring", nranks=4,
                             overrides={"max_steps": 50000})
        points = plan.points()
        assert len(points) == 1
        assert points[0].overrides == {
            "app": "ring", "nranks": 4, "cls": "S",
            "platform": "bluegene", "scenario": "calm",
            "max_steps": 50000}

    def test_plan_compilation_is_stable(self):
        a = scenario_plan(scenario="torus-hotlink", app="sweep3d",
                          nranks=8)
        b = scenario_plan({"scenario": "torus-hotlink", "app": "sweep3d",
                           "nranks": 8, "cls": "S"})
        assert a.digest() == b.digest()

    def test_loads_scenario_job(self):
        plan = scenario_plan(parse(
            "scenario: calm\napp: ring\nnranks: 4\ncls: S\n",
            "scenario job", ScenarioError))
        overrides = plan.points()[0].overrides
        assert overrides["app"] == "ring" and overrides["nranks"] == 4

    @pytest.mark.parametrize("kwargs,needle", [
        ({"scenario": "nope", "app": "ring", "nranks": 4},
         "unknown scenario"),
        ({"scenario": "calm", "app": "nope", "nranks": 4},
         "unknown application"),
        ({"scenario": "calm", "app": "ring", "nranks": 0}, "positive"),
        ({"scenario": "calm", "app": "ring", "nranks": 4,
          "mode": "nope"}, "unknown mode"),
        ({"scenario": "calm", "app": "ring", "nranks": 4,
          "overrides": {"app": "lu"}}, "collide"),
        ({"scenario": "calm", "app": "ring", "nranks": 4,
          "overrides": {"bogus": 1}}, "bad scenario job"),
    ])
    def test_invalid_jobs_rejected(self, kwargs, needle):
        with pytest.raises(ScenarioError, match=needle):
            scenario_plan(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown scenario-job"):
            scenario_plan({"scenario": "calm", "app": "ring",
                           "nranks": 4, "bogus": 1})

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ScenarioError, match="needs 'scenario'"):
            scenario_plan({"app": "ring", "nranks": 4})

    def test_non_mapping_job_is_typed(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            scenario_plan(["calm", "ring", 4])
