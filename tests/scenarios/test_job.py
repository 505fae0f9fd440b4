"""Scenario jobs: validation, serialization, and plan compilation.

The job's one-point sweep plan is the byte-parity bridge between
``repro scenarios run`` and the service's ``scenario`` job kind, so the
compilation itself must be deterministic and digest-stable."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import Scenario, ScenarioJob


class TestScenarioJob:
    def test_curated_job_round_trips(self):
        job = ScenarioJob(scenario="torus-hotlink", app="sweep3d",
                          nranks=8)
        again = ScenarioJob.from_dict(job.to_dict())
        assert again == job
        assert again.digest() == job.digest()

    def test_inline_scenario_round_trips(self):
        job = ScenarioJob(
            scenario={"name": "inline", "topology": "torus3d",
                      "adversaries": [{"kind": "hot-link"}]},
            app="lu", nranks=8)
        assert isinstance(job.scenario, Scenario)
        again = ScenarioJob.from_dict(job.to_dict())
        assert again.digest() == job.digest()

    def test_name_matches_job_name(self):
        job = ScenarioJob(scenario="calm", app="ring", nranks=4)
        assert job.name == job.job_name() == "scenario-calm-ring"

    def test_plan_is_one_point_with_the_scenario_riding(self):
        job = ScenarioJob(scenario="calm", app="ring", nranks=4,
                          overrides={"max_steps": 50000})
        plan = job.to_sweep_plan()
        points = plan.points()
        assert len(points) == 1
        overrides = points[0].overrides
        assert overrides["scenario"] == "calm"
        assert overrides["max_steps"] == 50000

    def test_plan_compilation_is_stable(self):
        a = ScenarioJob(scenario="torus-hotlink", app="sweep3d", nranks=8)
        b = ScenarioJob(scenario="torus-hotlink", app="sweep3d", nranks=8)
        assert a.to_sweep_plan().digest() == b.to_sweep_plan().digest()

    def test_loads_scenario_job(self):
        job = ScenarioJob.loads(
            "scenario: calm\napp: ring\nnranks: 4\ncls: S\n")
        assert job.app == "ring" and job.nranks == 4

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
            ScenarioJob(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown scenario-job"):
            ScenarioJob.from_dict({"scenario": "calm", "app": "ring",
                                   "nranks": 4, "bogus": 1})

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ScenarioError, match="needs 'scenario'"):
            ScenarioJob.from_dict({"app": "ring", "nranks": 4})
