"""The curated built-in scenario registry.

Each entry is a named, digest-keyed :class:`~repro.scenarios.spec.
Scenario` exercising one distinct adversity mechanism, so ``repro
scenarios run`` / the sweep's ``scenario`` axis / the service's
``scenario`` submissions all draw from the same library.  The registry is
ordered from benign to hostile; ``calm`` is the deliberate no-op
control every benchmark row is compared against.

Sizing note: the curated scenarios avoid pinning ``nodes``/``dims`` so
they compose with any rank count — topology dimensioning falls back to
the same defaults ``--topology`` uses (one node per rank, near-cubic
torus factorization).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import ScenarioError
from repro.scenarios.spec import AdversarySpec, Scenario


def _s(**kw) -> Scenario:
    return Scenario(**kw)


#: the curated named scenarios, in documentation order
SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    _s(name="calm",
       description="control: no pins, no adversity — the baseline row "
                   "every other scenario is compared against"),
    _s(name="torus-hotlink",
       description="3D torus with the two highest-betweenness links "
                   "degraded 4x for the whole run",
       topology="torus3d",
       adversaries=(AdversarySpec("hot-link",
                                  (("count", 2),)),)),
    _s(name="torus-bisection",
       description="3D torus with every link crossing the widest "
                   "axis's bisection plane at 1/8 bandwidth",
       topology="torus3d",
       adversaries=(AdversarySpec("bisection-cut", ()),)),
    _s(name="fattree-uplink-loss",
       description="fat-tree with the busiest top-level uplink lossy "
                   "(8x serialization, 2x latency)",
       topology="fattree",
       adversaries=(AdversarySpec("uplink-loss", ()),)),
    _s(name="incast-burst",
       description="torus incast: the hottest node's ejection link at "
                   "1/16 bandwidth, collapsing fan-in delivery",
       topology="torus3d",
       adversaries=(AdversarySpec("incast", ()),)),
    _s(name="hotspot-ranks",
       description="delivery to the hottest quarter of ranks degraded "
                   "4x (works on flat and routed fabrics alike)",
       adversaries=(AdversarySpec("hotspot", ()),)),
    _s(name="straggler-wavefront",
       description="one wavefront-critical rank computes 4x slower "
                   "(the process-grid diagonal for sweep apps)",
       adversaries=(AdversarySpec("straggler", ()),)),
    _s(name="codel-pressure",
       description="torus under a CoDel per-link queue with a tight "
                   "sojourn target: persistent queuers are dropped and "
                   "retransmitted, surfacing drop counters",
       topology="torus3d",
       placement="roundrobin",
       queue_discipline="codel",
       queue_params=(("interval", 1e-5), ("penalty", 5e-5),
                     ("target", 1e-6))),
    _s(name="adversarial-schedule",
       description="execution under the adversarial-delay tie-break "
                   "policy (latest-arriving wildcard match), seed 0; "
                   "the trace stays canonical",
       schedule_policy="adversarial-delay",
       schedule_seed=0),
)}


def scenario_names():
    """The curated scenario names, in registry (documentation) order."""
    return tuple(SCENARIOS)


def get_scenario(spec: Union[str, dict, Scenario]) -> Scenario:
    """Resolve a scenario reference: a curated registry name, a parsed
    mapping (inline spec), or an already-built :class:`Scenario`."""
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, str):
        try:
            return SCENARIOS[spec]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {spec!r}; curated scenarios: "
                f"{sorted(SCENARIOS)} (or pass an inline spec — "
                f"see docs/SCENARIOS.md)") from None
    if isinstance(spec, dict):
        return Scenario.from_dict(spec)
    raise ScenarioError(
        f"a scenario must be a curated name, a mapping, or a Scenario, "
        f"got {type(spec).__name__}")


#: the keys of one scenario × app cell; the first three are required
_CELL_KEYS = ("scenario", "app", "nranks", "cls", "platform", "mode",
              "overrides")


def scenario_plan(job: Optional[Mapping[str, Any]] = None, **fields):
    """The one-point :class:`~repro.sweep.plan.SweepPlan` of one
    scenario × app cell, named ``scenario-<scenario name>-<app>``.

    The cell is a mapping (a service body, a journaled spec) and/or
    keywords: ``scenario`` (curated name, inline mapping or
    :class:`Scenario`), ``app``, ``nranks``, and optionally ``cls``,
    ``platform``, ``mode`` and ``overrides`` (more config fields).  The
    plan's ``check()`` validates the cell; any failure is a
    :class:`ScenarioError`.
    """
    from repro.errors import SweepPlanError
    from repro.sweep.plan import SweepPlan
    if job is not None and not isinstance(job, Mapping):
        raise ScenarioError(f"scenario job must be a mapping, got "
                            f"{type(job).__name__}")
    data = {**(job or {}), **fields}
    unknown = set(data) - set(_CELL_KEYS)
    if unknown:
        raise ScenarioError(
            f"unknown scenario-job keys: {sorted(unknown, key=str)}; "
            f"known keys: {sorted(_CELL_KEYS)}")
    for need in _CELL_KEYS[:3]:
        if need not in data:
            raise ScenarioError(f"scenario job needs {need!r}")
    overrides = data.get("overrides") or {}
    if not isinstance(overrides, Mapping):
        raise ScenarioError(f"overrides must be a mapping, got "
                            f"{overrides!r}")
    clash = sorted(set(overrides) & set(_CELL_KEYS), key=str)
    if clash:
        raise ScenarioError(
            f"override(s) {clash} collide with the job's own fields; "
            f"set them directly")
    scenario = data["scenario"]
    resolved = get_scenario(scenario)
    point = {"app": data["app"], "nranks": data["nranks"],
             "cls": data.get("cls", "S"),
             "platform": data.get("platform", "bluegene"),
             # a curated name stays a name; an inline spec is normalized
             "scenario": resolved if isinstance(scenario, Mapping)
             else scenario, **overrides}
    try:
        plan = SweepPlan(name=f"scenario-{resolved.name}-{data['app']}",
                         mode=data.get("mode", "run"),
                         extra_points=(point,))
        plan.check()
    except SweepPlanError as exc:
        raise ScenarioError(f"bad scenario job: {exc}") from None
    return plan
