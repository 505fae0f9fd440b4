"""Laws of the one spec protocol (:mod:`repro.spec`), over all four
families and the scenario × app cells that become sweep plans:

* **typed edge** — any JSON-like mapping, built from a family's known
  keys plus stray ones, ends in a spec or in that family's typed
  :class:`~repro.errors.ReproError`, through both the loader and
  ``check()``; never in a raw exception.  A scenario cell ends in a
  sweep plan (``scenario_plan``) or a :class:`ScenarioError`;
* **round trip** — every spec that loads satisfies
  ``Cls.loads(s.dumps()) == s`` with an equal digest;
* **object form is dict form** — a spec holding ``FaultPlan``/``Scenario``
  objects constructs, dumps, and digests exactly like the same spec
  built from their ``to_dict()`` data.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError
from repro.faults import FaultPlan, LinkWindow
from repro.fuzz import FuzzCampaign
from repro.scenarios import SCENARIOS, Scenario, scenario_plan
from repro.sweep import SweepPlan

#: JSON leaves: small ints keep point expansion (axes product, fuzz
#: seeds) cheap; text avoids surrogates, which no spec file can hold
LEAVES = (st.none() | st.booleans() | st.integers(-4, 8)
          | st.floats(-1e3, 1e3, allow_nan=False)
          | st.text(st.characters(blacklist_categories=("Cs",)),
                    max_size=6))
JSON = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)


def spec_data(plausible, required=()):
    """Mappings over a family's known keys with plausible values, and
    the same mappings corrupted: one value swapped for arbitrary JSON,
    or a stray key added."""
    clean = st.fixed_dictionaries(
        {k: plausible[k] for k in required},
        optional={k: v for k, v in plausible.items() if k not in required})

    def corrupt(data):
        swapped = st.tuples(st.sampled_from(sorted(plausible)), JSON)
        stray = st.tuples(st.text(max_size=6), JSON)
        return (swapped | stray).map(lambda kv: {**data, kv[0]: kv[1]})
    return clean | clean.flatmap(corrupt)


RATE = st.floats(0.0, 1.0)
FAULT_KEYS = {
    "seed": st.integers(0, 99), "drop_rate": RATE,
    "duplicate_rate": RATE, "reorder_rate": RATE,
    "reorder_max_delay": st.floats(0.0, 1e-3),
    "windows": st.lists(st.fixed_dictionaries(
        {"t_start": st.floats(0.0, 1.0), "t_end": st.floats(1.0, 2.0)},
        optional={"latency_factor": st.floats(1.0, 8.0),
                  "bandwidth_factor": st.floats(1.0, 8.0),
                  "ranks": st.lists(st.integers(0, 8), max_size=3),
                  "links": st.lists(st.sampled_from(["x+:0,0,0",
                                                     "up:1:2"]),
                                    max_size=2)}),
        max_size=2),
    "stragglers": st.lists(st.fixed_dictionaries(
        {"rank": st.integers(0, 8), "factor": st.floats(0.5, 4.0)}),
        max_size=2),
    "crashes": st.lists(st.fixed_dictionaries(
        {"rank": st.integers(0, 8), "time": st.floats(0.0, 1.0)}),
        max_size=2),
    "max_retries": st.integers(0, 8),
    "retry_timeout": st.floats(0.0, 1e-3),
    "retry_backoff": st.floats(1.0, 4.0),
}
FAULT = spec_data(FAULT_KEYS)
SCENARIO_NAMES = st.sampled_from(sorted(SCENARIOS) + ["nope"])
#: plausible values per swept config field
FIELD_VALUES = {
    "compute_scale": st.floats(0.0, 2.0),
    "nranks": st.integers(1, 8),
    "cls": st.sampled_from(["S", "W", "Q"]),
    "fault_plan": st.none() | st.fixed_dictionaries(
        {}, optional=FAULT_KEYS),
    "scenario": st.none() | SCENARIO_NAMES,
    "topology": st.sampled_from([None, "torus3d", "fattree"]),
    "max_steps": st.none() | st.integers(1, 10**6),
}
CELL = st.fixed_dictionaries(
    {"app": st.sampled_from(["ring", "jacobi", "race"])},
    optional={"nranks": FIELD_VALUES["nranks"],
              "cls": FIELD_VALUES["cls"],
              "compute_scale": FIELD_VALUES["compute_scale"]})
AXIS = st.sampled_from(sorted(FIELD_VALUES)).flatmap(
    lambda f: st.fixed_dictionaries(
        {"field": st.just(f),
         "values": st.lists(FIELD_VALUES[f], min_size=1, max_size=3)}))
SWEEP = spec_data({
    "name": st.text(min_size=1, max_size=6),
    "mode": st.sampled_from(["run", "generate", "trace", "explode"]),
    "base": CELL,
    "axes": st.lists(AXIS, max_size=2, unique_by=lambda a: a["field"]),
    "points": st.lists(st.fixed_dictionaries(
        {}, optional={"nranks": FIELD_VALUES["nranks"],
                      "compute_scale": FIELD_VALUES["compute_scale"]}),
        max_size=2),
}, required=("base", "axes"))
FUZZ = spec_data({
    "name": st.text(min_size=1, max_size=6),
    "mode": st.sampled_from(["run", "trace", "generate"]),
    "base": st.fixed_dictionaries(
        {}, optional={"platform": st.sampled_from(["ethernet",
                                                   "simple"])}),
    "apps": st.lists(CELL, min_size=1, max_size=2),
    "topologies": st.lists(st.sampled_from([None, "torus3d",
                                            "fattree"]),
                           min_size=1, max_size=2, unique=True),
    "scenarios": st.lists(st.none() | SCENARIO_NAMES, min_size=1,
                          max_size=2, unique=True),
    "policies": st.lists(st.sampled_from(["random", "adversarial-delay",
                                          "canonical"]),
                         min_size=1, max_size=2, unique=True),
    "seeds": st.integers(0, 3), "seed0": st.integers(0, 3),
}, required=("apps",))
SCENARIO_KEYS = {
    "name": st.text(min_size=1, max_size=6),
    "description": st.text(max_size=6),
    "topology": st.sampled_from(["torus3d", "fattree", "nope"]),
    "placement": st.sampled_from(["block", "roundrobin", "random:1"]),
    "schedule_policy": st.sampled_from(["random", "adversarial-delay"]),
    "schedule_seed": st.integers(0, 3),
    "queue_discipline": st.sampled_from(["fifo", "codel"]),
    "fault_plan": st.fixed_dictionaries({}, optional=FAULT_KEYS),
    "adversaries": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(["hot-link", "hotspot", "straggler",
                                  "incast"])},
        optional={"params": st.dictionaries(
            st.sampled_from(["count", "factor", "bandwidth_factor"]),
            st.integers(1, 4), max_size=2)}), max_size=2),
}
SCENARIO = spec_data(SCENARIO_KEYS, required=("name",))
JOB = spec_data({
    "scenario": SCENARIO_NAMES | st.fixed_dictionaries(
        {"name": SCENARIO_KEYS["name"]},
        optional={k: SCENARIO_KEYS[k] for k in ("topology", "placement",
                                                "fault_plan")}),
    "app": st.sampled_from(["ring", "jacobi", "nope"]),
    "nranks": st.integers(0, 8),
    "cls": st.sampled_from(["S", "W", "Q"]),
    "platform": st.sampled_from(["bluegene", "ethernet", "nope"]),
    "mode": st.sampled_from(["run", "trace", "nope"]),
    "overrides": st.dictionaries(st.sampled_from(["max_steps", "app",
                                                  "compute_scale"]),
                                 st.integers(1, 8), max_size=2),
}, required=("scenario", "app", "nranks"))

#: inputs that escaped as raw TypeError/ValueError/KeyError/
#: AttributeError before the loaders shared one typed edge
RAW_AT_PARENT = [
    (SweepPlan, {"axes": [{"field": "compute_scale", "values": 5}]}),
    (SweepPlan, {"axes": [{"field": [1], "values": [1.0]}]}),
    (FaultPlan, {"windows": [3]}),
    (FaultPlan, {"stragglers": [3]}),
    (FaultPlan, {"crashes": [{"rank": 1}]}),
    (FaultPlan, {"drop_rate": "abc"}),
    (FaultPlan, {"windows": [{"t_start": "a", "t_end": 1}]}),
    (FuzzCampaign, {"base": 3}),
    (Scenario, {"name": "x", "adversaries": [{"kind": "hotspot",
                                              "params": 3}]}),
    (Scenario, {"name": "x", "adversaries": [{"kind": [1]}]}),
    (Scenario, {"name": "x", "fault_plan": 3}),
]

LAW = settings(max_examples=200, deadline=None,
               suppress_health_check=[HealthCheck.too_slow,
                                      HealthCheck.data_too_large])


def _round_trip(spec):
    """``loads(dumps(s)) == s`` with an equal digest."""
    again = type(spec).loads(spec.dumps())
    assert again == spec
    assert again.digest() == spec.digest()


def _law(cls, data):
    """The typed-edge and round-trip laws for one input."""
    try:
        spec = cls.from_dict(data)
        spec.check()
    except cls.error:
        return
    _round_trip(spec)


def _examples(cls):
    """The family's parent-era raw inputs as Hypothesis examples."""
    def apply(test):
        for family, data in RAW_AT_PARENT:
            if family is cls:
                test = example(data)(test)
        return test
    return apply


class TestTypedEdgeAndRoundTrip:
    @LAW
    @given(FAULT)
    @_examples(FaultPlan)
    def test_fault_plan(self, data):
        _law(FaultPlan, data)

    @LAW
    @given(SWEEP)
    @_examples(SweepPlan)
    def test_sweep_plan(self, data):
        _law(SweepPlan, data)

    @LAW
    @given(FUZZ)
    @_examples(FuzzCampaign)
    def test_fuzz_campaign(self, data):
        _law(FuzzCampaign, data)

    @LAW
    @given(SCENARIO)
    @_examples(Scenario)
    def test_scenario(self, data):
        _law(Scenario, data)

    @LAW
    @given(JOB | JSON)
    def test_scenario_job(self, data):
        try:
            plan = scenario_plan(data)
        except ScenarioError:
            return
        assert plan.check() == 1
        _round_trip(plan)

    @pytest.mark.parametrize("cls,data", RAW_AT_PARENT,
                             ids=[f"{c.__name__}-{i}" for i, (c, _)
                                  in enumerate(RAW_AT_PARENT)])
    def test_parent_raw_inputs_raise_typed(self, cls, data):
        with pytest.raises(cls.error):
            cls.from_dict(data)

    @given(st.sampled_from([FaultPlan, SweepPlan, FuzzCampaign, Scenario]),
           st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    @example(SweepPlan, "!!int abc")
    @example(FaultPlan, "seeds: !!timestamp 2020-13-45")
    @example(Scenario, "[" * 5000)
    def test_any_text_loads_or_raises_typed(self, cls, text):
        try:
            cls.loads(text)
        except cls.error:
            pass


PLANS = st.builds(
    FaultPlan, seed=st.integers(0, 99), drop_rate=RATE,
    windows=st.lists(st.builds(LinkWindow, t_start=st.just(0.0),
                               t_end=st.floats(0.0, 1.0),
                               latency_factor=st.floats(1.0, 4.0),
                               ranks=st.none() | st.lists(
                                   st.integers(0, 3), max_size=2)),
                     max_size=2).map(tuple),
    stragglers=st.lists(st.tuples(st.integers(0, 3),
                                  st.floats(0.5, 4.0)),
                        max_size=2).map(tuple))


class TestObjectFormIsDictForm:
    """A spec holding objects is the same spec as its dict form."""

    @staticmethod
    def _same(obj_form, dict_form):
        assert obj_form.digest() == dict_form.digest()
        assert obj_form.dumps() == dict_form.dumps()
        assert type(obj_form).loads(obj_form.dumps()).digest() == \
            dict_form.digest()

    @given(PLANS)
    @settings(max_examples=30, deadline=None)
    def test_sweep_fault_plan_axis(self, plan):
        def build(value):
            return SweepPlan(name="s", base={"app": "jacobi", "nranks": 4},
                             axes=({"field": "fault_plan",
                                    "values": [None, value]},))
        self._same(build(plan), build(plan.to_dict()))

    @given(PLANS)
    @settings(max_examples=30, deadline=None)
    def test_fuzz_cell_fault_plan(self, plan):
        def build(value):
            return FuzzCampaign(
                name="f", apps=({"app": "ring", "nranks": 4,
                                 "fault_plan": value},),
                policies=("random",), seeds=1)
        self._same(build(plan), build(plan.to_dict()))

    @given(PLANS)
    @settings(max_examples=30, deadline=None)
    def test_scenario_job_with_objects(self, plan):
        scn = Scenario(name="inline", topology="torus3d",
                       placement="roundrobin")

        def build(scenario, value):
            return scenario_plan(scenario=scenario, app="ring", nranks=4,
                                 overrides={"fault_plan": value})
        obj_form = build(scn, plan)
        dict_form = build(scn.to_dict(), plan.to_dict())
        self._same(obj_form, dict_form)
        assert obj_form == dict_form
