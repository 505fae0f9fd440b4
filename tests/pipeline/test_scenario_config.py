"""Scenario expansion into PipelineConfig: adopt, agree, or error.

A config carrying a scenario eagerly adopts the scenario's *expanded*
dimensions (platform/topology/placement/queueing) under three rules —
adopt-if-default, pass-if-equal, error-if-conflict — while the
scenario's fault content and schedule pin stay out of the config
fields entirely (they apply only at the execution stages)."""

import dataclasses

import pytest

from repro.errors import PipelineConfigError
from repro.faults import FaultPlan
from repro.pipeline import PipelineConfig
from repro.scenarios import Scenario


class TestExpansion:
    def test_name_resolves_and_dimensions_adopt(self):
        c = PipelineConfig(app="sweep3d", nranks=8,
                           scenario="codel-pressure")
        assert isinstance(c.scenario, Scenario)
        assert c.topology == "torus3d"
        assert c.placement == "roundrobin"
        assert c.queue_discipline == "codel"
        assert dict(c.queue_params)["interval"] == 1e-5

    def test_inline_mapping_resolves(self):
        c = PipelineConfig(app="ring", nranks=4,
                           scenario={"name": "inline",
                                     "topology": "fattree"})
        assert c.scenario.name == "inline"
        assert c.topology == "fattree"

    def test_equal_value_passes(self):
        c = PipelineConfig(app="sweep3d", nranks=8,
                           topology="torus3d",
                           scenario="torus-hotlink")
        assert c.topology == "torus3d"

    def test_conflicting_dimension_errors(self):
        with pytest.raises(PipelineConfigError, match="already has"):
            PipelineConfig(app="sweep3d", nranks=8, topology="fattree",
                           scenario="torus-hotlink")

    def test_fault_content_conflicts_with_config_plan(self):
        with pytest.raises(PipelineConfigError, match="one or the other"):
            PipelineConfig(app="sweep3d", nranks=8,
                           scenario="torus-hotlink",
                           fault_plan=FaultPlan(seed=1, drop_rate=0.1))

    def test_schedule_pin_conflicts_with_config_policy(self):
        with pytest.raises(PipelineConfigError, match="schedule"):
            PipelineConfig(app="ring", nranks=4,
                           scenario="adversarial-schedule",
                           schedule_policy="random", schedule_seed=1)

    def test_schedule_pin_stays_out_of_config_fields(self):
        c = PipelineConfig(app="ring", nranks=4,
                           scenario="adversarial-schedule")
        # the pin applies at execution; the config stays canonical
        assert c.schedule_policy == "canonical"
        assert c.schedule_seed is None

    def test_expansion_is_idempotent_under_replace(self):
        c = PipelineConfig(app="sweep3d", nranks=8,
                           scenario="codel-pressure")
        again = dataclasses.replace(c)
        assert again == c

    def test_unknown_scenario_is_a_config_error(self):
        with pytest.raises(PipelineConfigError, match="unknown scenario"):
            PipelineConfig(app="ring", nranks=4, scenario="nope")

    def test_codel_without_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="routed"):
            PipelineConfig(app="ring", nranks=4,
                           queue_discipline="codel")

    def test_unknown_queue_discipline_rejected(self):
        with pytest.raises(PipelineConfigError, match="queue"):
            PipelineConfig(app="ring", nranks=4, topology="torus3d",
                           queue_discipline="nope")
