"""Scenario spec + curated registry: validation, digests, round-trips.

The spec is a frozen value object; everything here checks the contract
the downstream layers rely on — digest stability, None-omitting
serialization, and construction-time rejection of every inconsistent
combination (so a bad scenario never reaches a run)."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (SCENARIOS, AdversarySpec, Scenario,
                             get_scenario, scenario_names)


class TestScenarioSpec:
    def test_minimal(self):
        s = Scenario(name="empty")
        assert not s.has_fault_content()
        assert not s.pins_schedule()
        assert s.dimensions() == {}
        assert "baseline" in s.describe()

    def test_dimensions_cover_only_expanded_fields(self):
        s = Scenario(name="full", topology="torus3d",
                     topology_params={"dims": [2, 2, 2]},
                     placement="roundrobin", run_platform="ethernet",
                     queue_discipline="codel",
                     schedule_policy="random", schedule_seed=3,
                     adversaries=({"kind": "hot-link"},))
        dims = s.dimensions()
        assert set(dims) == {"run_platform", "topology",
                             "topology_params", "placement",
                             "queue_discipline"}
        # schedule + fault content apply at execution, never as config
        assert "schedule_policy" not in dims
        assert s.pins_schedule() and s.has_fault_content()

    def test_round_trip_preserves_digest(self):
        s = Scenario(name="rt", topology="fattree",
                     queue_discipline="codel",
                     queue_params={"target": 1e-6},
                     adversaries=(AdversarySpec("uplink-loss"),))
        again = Scenario.loads(s.dumps())
        assert again == s
        assert again.digest() == s.digest()

    def test_to_dict_omits_unset_fields(self):
        assert Scenario(name="bare").to_dict() == {"name": "bare"}

    def test_digest_is_stable_hex(self):
        d = Scenario(name="x").digest()
        assert len(d) == 16
        int(d, 16)

    @pytest.mark.parametrize("kwargs,needle", [
        ({"name": ""}, "non-empty"),
        ({"name": "x", "topology": "nope"}, "unknown topology"),
        ({"name": "x", "topology_params": {"dims": [2]}}, "without"),
        ({"name": "x", "run_platform": "nope"}, "unknown run_platform"),
        ({"name": "x", "run_platform_params": {"latency": 1e-6}},
         "without"),
        ({"name": "x", "schedule_seed": 3}, "without a schedule_policy"),
        ({"name": "x", "queue_params": {"target": 1e-6}},
         "without a queue_discipline"),
        ({"name": "x", "queue_discipline": "codel"}, "routed topology"),
        ({"name": "x", "queue_discipline": "nope",
          "topology": "torus3d"}, "queue"),
        ({"name": "x", "placement": "nope"}, "placement"),
    ])
    def test_invalid_specs_rejected(self, kwargs, needle):
        with pytest.raises(ScenarioError, match=needle):
            Scenario(**kwargs)

    def test_adversary_topology_requirements(self):
        with pytest.raises(ScenarioError, match="routed"):
            Scenario(name="x", adversaries=({"kind": "hot-link"},))
        with pytest.raises(ScenarioError, match="torus3d"):
            Scenario(name="x", topology="fattree",
                     adversaries=({"kind": "bisection-cut"},))
        with pytest.raises(ScenarioError, match="fattree"):
            Scenario(name="x", topology="torus3d",
                     adversaries=({"kind": "uplink-loss"},))

    def test_unknown_adversary_kind_and_params(self):
        with pytest.raises(ScenarioError, match="unknown adversary"):
            AdversarySpec("nope")
        with pytest.raises(ScenarioError, match="does not accept"):
            AdversarySpec("hotspot", (("bogus", 1),))

    def test_unknown_scenario_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            Scenario.from_dict({"name": "x", "bogus": 1})

    def test_fault_plan_mapping_is_normalized(self):
        s = Scenario(name="x",
                     fault_plan={"seed": 7, "drop_rate": 0.1})
        assert s.fault_plan.seed == 7
        assert s.has_fault_content()


class TestRegistry:
    def test_every_curated_scenario_is_valid_and_distinct(self):
        digests = {s.digest() for s in SCENARIOS.values()}
        assert len(digests) == len(SCENARIOS)
        for name, s in SCENARIOS.items():
            assert s.name == name
            assert s.description

    def test_calm_is_the_noop_control(self):
        calm = SCENARIOS["calm"]
        assert not calm.has_fault_content()
        assert not calm.pins_schedule()
        assert calm.dimensions() == {}

    def test_names_in_registry_order(self):
        assert scenario_names() == tuple(SCENARIOS)
        assert scenario_names()[0] == "calm"

    def test_get_scenario_resolves_all_reference_forms(self):
        byname = get_scenario("torus-hotlink")
        assert get_scenario(byname) is byname
        inline = get_scenario(byname.to_dict())
        assert inline.digest() == byname.digest()

    def test_get_scenario_rejects_unknowns(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("definitely-not-curated")
        with pytest.raises(ScenarioError, match="curated name"):
            get_scenario(42)
