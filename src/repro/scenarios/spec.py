"""Digest-keyed scenario specifications.

A :class:`Scenario` is the faults/sweeps analogue for *adversity*: one
frozen, digest-keyed value object composing every execution dimension
the what-if layers grew separately — the run platform
(``run_platform``/``run_platform_params``), the routed fabric
(``topology``/``topology_params``/``placement``), the engine's
tie-break policy (``schedule_policy``/``schedule_seed``), the per-link
queue discipline (``queue_discipline``/``queue_params``), and a fault
plan — plus a list of **adversaries**: topology-aware generators
(:mod:`repro.scenarios.adversaries`) that expand into concrete
:class:`~repro.faults.plan.LinkWindow` / straggler entries once the
application and rank count are known.

Scenarios are *execution-only* by construction: a
:class:`~repro.pipeline.config.PipelineConfig` carrying one still
produces byte-identical trace and emit artifacts, because

* the composed dimensions a scenario pins (platform overrides,
  topology, placement, queue discipline) were already execution-only;
* the scenario's fault content (its plan and its adversaries) is
  applied only by the execution stages (run/replay), never by the
  trace stage;
* a pinned schedule policy likewise steers only the execution stages
  — the trace stays canonical.

That is what lets a sweep or fuzz campaign add a ``scenario`` axis and
still share one cached trace and source across every point.

Scenarios are spec files (:mod:`repro.spec`: YAML or JSON,
digest-keyed); see ``docs/SCENARIOS.md`` for the schema and ``repro
scenarios show`` for rendered examples.  Curated named scenarios live in
:mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ScenarioError
from repro.faults.plan import FaultPlan
from repro.spec import Spec


def _params_tuple(where: str, params) -> Optional[Tuple[Tuple[str, Any],
                                                        ...]]:
    """Normalize a params mapping (or pair sequence) to a sorted tuple
    of ``(name, value)`` pairs — the same canonical form
    :class:`~repro.pipeline.config.PipelineConfig` uses."""
    if params is None:
        return None
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        try:
            items = [(k, v) for k, v in params]
        except (TypeError, ValueError):
            raise ScenarioError(
                f"{where} must be a mapping or a sequence of "
                f"(name, value) pairs, got {params!r}") from None
    for k, _ in items:
        if not isinstance(k, str) or not k:
            raise ScenarioError(
                f"{where} keys must be non-empty strings, got {k!r}")
    return tuple(sorted(items, key=lambda kv: kv[0])) or None


def _params_data(params: Optional[Tuple[Tuple[str, Any], ...]]):
    """Tuple-of-pairs back to the plain dict used in serialized form."""
    return dict(params) if params else None


@dataclass(frozen=True)
class AdversarySpec(Spec):
    """One adversary invocation: a generator kind plus its parameters.

    ``kind`` names a generator in
    :data:`repro.scenarios.adversaries.ADVERSARIES`; ``params`` are its
    knobs, normalized to a sorted tuple of pairs.  Parameter names are
    validated at construction; values are validated (against the
    concrete topology, rank count, and app pattern) at expansion.
    """

    what = "adversary"
    error = ScenarioError

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        from repro.scenarios.adversaries import validate_adversary
        object.__setattr__(
            self, "params",
            _params_tuple(f"adversary {self.kind!r} params", self.params)
            or ())
        validate_adversary(self.kind, dict(self.params))

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain dict (expansion input)."""
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class Scenario(Spec):
    """One complete, digest-keyed description of an execution scenario."""

    what = "scenario"
    error = ScenarioError

    name: str
    description: str = ""
    #: execution platform preset + keyword overrides (None = not pinned)
    run_platform: Optional[str] = None
    run_platform_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: routed fabric: topology name, its parameters, rank→node placement
    topology: Optional[str] = None
    topology_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    placement: Optional[str] = None
    #: engine tie-break policy for the execution stages (None = not
    #: pinned; the trace stage always stays canonical under a scenario)
    schedule_policy: Optional[str] = None
    schedule_seed: Optional[int] = None
    #: per-link queue discipline for the execution stages
    queue_discipline: Optional[str] = None
    queue_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: base fault plan, merged with whatever the adversaries emit
    fault_plan: Optional[FaultPlan] = None
    #: topology-aware generators expanded at run time (app + nranks)
    adversaries: Tuple[AdversarySpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("scenario name must be a non-empty string")
        if not isinstance(self.description, str):
            raise ScenarioError(
                f"scenario description must be a string, got "
                f"{self.description!r}")
        for f in ("run_platform_params", "topology_params", "queue_params"):
            object.__setattr__(self, f,
                               _params_tuple(f, getattr(self, f)))
        if self.run_platform is not None:
            from repro.sim.network import (PLATFORMS,
                                           validate_platform_params)
            if self.run_platform not in PLATFORMS:
                raise ScenarioError(
                    f"unknown run_platform {self.run_platform!r}; "
                    f"choose from {sorted(PLATFORMS)}")
            if self.run_platform_params is not None:
                try:
                    validate_platform_params(
                        self.run_platform,
                        [k for k, _ in self.run_platform_params])
                except ValueError as exc:
                    raise ScenarioError(
                        f"bad run_platform_params: {exc}") from None
        elif self.run_platform_params is not None:
            raise ScenarioError(
                "run_platform_params given without a run_platform")
        if self.topology is not None:
            from repro.topology import (TOPOLOGIES,
                                        validate_topology_params)
            if self.topology not in TOPOLOGIES:
                raise ScenarioError(
                    f"unknown topology {self.topology!r}; choose from "
                    f"{sorted(TOPOLOGIES)}")
            if self.topology_params is not None:
                try:
                    validate_topology_params(
                        self.topology,
                        [k for k, _ in self.topology_params])
                except ValueError as exc:
                    raise ScenarioError(
                        f"bad topology_params: {exc}") from None
        elif self.topology_params is not None:
            raise ScenarioError("topology_params given without a topology")
        if self.placement is not None:
            from repro.topology import parse_placement_spec
            try:
                parse_placement_spec(self.placement)
            except ValueError as exc:
                raise ScenarioError(f"bad placement: {exc}") from None
        if self.schedule_policy is not None or \
                self.schedule_seed is not None:
            if self.schedule_policy is None:
                raise ScenarioError(
                    "schedule_seed given without a schedule_policy")
            from repro.sim.policy import resolve_policy
            try:
                resolve_policy(self.schedule_policy, self.schedule_seed)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        if self.queue_discipline is not None or \
                self.queue_params is not None:
            if self.queue_discipline is None:
                raise ScenarioError(
                    "queue_params given without a queue_discipline")
            from repro.sim.queueing import resolve_queue_discipline
            try:
                resolve_queue_discipline(self.queue_discipline,
                                         dict(self.queue_params or ()))
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
            if self.queue_discipline != "fifo" and self.topology is None:
                raise ScenarioError(
                    f"queue discipline {self.queue_discipline!r} needs "
                    "the scenario to pin a routed topology")
        if self.fault_plan is not None and \
                not isinstance(self.fault_plan, FaultPlan):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_dict(self.fault_plan))
        if not isinstance(self.adversaries, (list, tuple)):
            raise ScenarioError(
                "adversaries must be a list of {kind, params} mappings")
        advs = tuple(a if isinstance(a, AdversarySpec)
                     else AdversarySpec.from_dict(a)
                     for a in self.adversaries)
        object.__setattr__(self, "adversaries", advs)
        from repro.scenarios.adversaries import check_adversary_topology
        for adv in advs:
            check_adversary_topology(adv.kind, self.topology)

    # -- classification ------------------------------------------------------
    def has_fault_content(self) -> bool:
        """True when running under this scenario injects faults (a base
        plan or at least one adversary)."""
        return bool(self.adversaries) or (
            self.fault_plan is not None and not self.fault_plan.is_null())

    def pins_schedule(self) -> bool:
        """True when the scenario pins the execution schedule policy."""
        return self.schedule_policy is not None

    def dimensions(self) -> Dict[str, Any]:
        """The :class:`~repro.pipeline.config.PipelineConfig` fields this
        scenario pins, as a ``{field: value}`` mapping.

        Only the *expanded* dimensions appear here — the fields a config
        adopts directly.  Fault content and the schedule policy are
        deliberately absent: they are applied by the execution stages
        (never the trace stage), not folded into config fields.
        """
        out: Dict[str, Any] = {}
        for f in ("run_platform", "run_platform_params", "topology",
                  "topology_params", "placement", "queue_discipline",
                  "queue_params"):
            value = getattr(self, f)
            if value is not None:
                out[f] = value
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data rendering (the YAML/JSON file content).  Unset
        (None) fields are omitted so the digest is stable under schema
        growth."""
        out: Dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        for f in ("run_platform", "topology", "placement",
                  "schedule_policy", "schedule_seed", "queue_discipline"):
            value = getattr(self, f)
            if value is not None:
                out[f] = value
        for f in ("run_platform_params", "topology_params",
                  "queue_params"):
            value = _params_data(getattr(self, f))
            if value is not None:
                out[f] = value
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        if self.adversaries:
            out["adversaries"] = [a.to_dict() for a in self.adversaries]
        return out

    def describe(self) -> str:
        """One-paragraph human summary (``repro scenarios list|show``)."""
        bits = []
        if self.topology is not None:
            bits.append(f"topology={self.topology}")
        if self.placement is not None:
            bits.append(f"placement={self.placement}")
        if self.run_platform is not None:
            bits.append(f"run_platform={self.run_platform}")
        if self.schedule_policy is not None:
            seed = "" if self.schedule_seed is None \
                else f"(seed={self.schedule_seed})"
            bits.append(f"schedule={self.schedule_policy}{seed}")
        if self.queue_discipline is not None:
            bits.append(f"queue={self.queue_discipline}")
        if self.fault_plan is not None:
            bits.append(f"fault plan ({self.fault_plan.describe()})")
        for adv in self.adversaries:
            args = ", ".join(f"{k}={v!r}" for k, v in adv.params)
            bits.append(f"adversary {adv.kind}({args})")
        if not bits:
            bits.append("baseline (pins nothing, injects nothing)")
        return "; ".join(bits)


#: commented example written by ``repro scenarios template``
TEMPLATE = """\
# repro scenario (see docs/SCENARIOS.md for the full schema)
name: my-scenario         # digest-keyed identity; shown in reports
description: a torus under a degraded hot link
topology: torus3d         # routed fabric for the execution stage
topology_params:          # topology/fabric knobs (dims, arity, nodes,
  dims: [4, 2, 2]         #   hop_latency, link_bandwidth)
placement: block          # block | roundrobin | random[:seed] | map:<f>
# run_platform: arc       # execution platform preset + overrides
# run_platform_params: {latency: 3.0e-5}
# schedule_policy: adversarial-delay   # execution-stage tie-breaks
# schedule_seed: 7                     #   (the trace stays canonical)
# queue_discipline: codel # per-link queue (fifo is the default)
# queue_params: {target: 2.0e-6, interval: 5.0e-5, penalty: 5.0e-5}
# fault_plan:             # base fault plan (docs/FAULTS.md schema),
#   seed: 42              #   merged with what the adversaries emit
#   drop_rate: 0.02
adversaries:              # topology-aware generators, expanded once
  - kind: hot-link        #   the app and rank count are known
    params: {count: 2, latency_factor: 4.0, bandwidth_factor: 4.0}
# - kind: bisection-cut   # torus3d only: cut one axis in half
#   params: {axis: x, bandwidth_factor: 8.0}
# - kind: uplink-loss     # fattree only: degrade shared uplinks
#   params: {count: 1, bandwidth_factor: 8.0}
# - kind: incast          # all traffic into one victim's ejection link
#   params: {bandwidth_factor: 16.0}
# - kind: hotspot         # degrade delivery to the hottest rank set
#   params: {count: 2, bandwidth_factor: 4.0}
# - kind: straggler       # slow wavefront-critical ranks (app-aware)
#   params: {factor: 4.0, count: 1}
"""
