"""Typed configuration for the Fig. 1 pipeline.

:class:`PipelineConfig` replaces the keyword-argument soup that used to
be threaded through ``trace_application`` / ``generate_benchmark`` call
chains: one frozen, validated object describes *what* to build (which
application, how many ranks, which platform) and *how* (which generator
passes run, whether artifacts are cached).

The artifact cache's content address is built from the fields each
stage folds into its key (``Stage.key_parts`` in
:mod:`repro.pipeline.stages`): two configs that agree on those fields
produce byte-identical trace and source artifacts (the whole system is
deterministic), so cached artifacts can be reused across processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from repro.errors import PipelineConfigError
from repro.faults.plan import FaultPlan
from repro.spec import params_tuple

#: problem classes accepted by the application suite
_CLASSES = ("S", "W", "A", "B", "C")

#: the execution-only fields: they change how the generated benchmark
#: *executes*, or whether a simulation finishes at all (the
#: ``max_steps`` budget), but never change a finished artifact, so none
#: of them may appear in the trace/emit rolling cache key (the §5.4
#: what-if economy).  The contract test in
#: ``tests/pipeline/test_execution_only.py`` enforces this list
#: field-by-field against the stage key parts.
EXECUTION_ONLY_FIELDS = (
    "max_steps",
    "compute_scale",
    "run_platform",
    "run_platform_params",
    "topology",
    "topology_params",
    "placement",
    "scenario",
    "queue_discipline",
    "queue_params",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs, in one validated value object.

    ``app`` names a workload from :data:`repro.apps.APPS`; leave it None
    when the entry artifact (an SPMD program or a loaded trace) is
    supplied directly on the :class:`~repro.pipeline.context.RunContext`.
    ``platform`` names a :data:`repro.sim.network.PLATFORMS` preset;
    leave it None to use a caller-supplied model (or the simulator
    default).  Caching only ever engages for runs that are fully
    described by the config (registry app + platform preset), because
    only those have a stable content address.
    """

    app: Optional[str] = None          #: registry name of the workload
    nranks: Optional[int] = None       #: simulated world size
    cls: str = "S"                     #: problem class (S/W/A/B/C)
    platform: Optional[str] = "bluegene"  #: network-model preset
    align: bool = True                 #: run Algorithm 1 when needed
    resolve: bool = True               #: run Algorithm 2 when needed
    include_timing: bool = True        #: emit COMPUTE statements
    split_first_rest: bool = True      #: §4.5 first-iteration conditionals
    name: str = "generated"            #: benchmark program name
    max_steps: Optional[int] = None    #: simulator livelock guard
    fault_plan: Optional[FaultPlan] = None  #: inject faults into sim runs
    #: §5.4 what-if axes: these vary how the *generated benchmark is
    #: executed* without touching the trace/emit artifacts, so a sweep
    #: over them shares the expensive cached artifacts across points.
    compute_scale: float = 1.0         #: scale COMPUTE stmts at run time
    run_platform: Optional[str] = None  #: execution platform (default:
    #:                                     same preset as ``platform``)
    run_platform_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: keyword overrides for the execution-stage network model (a
    #: mapping is accepted and normalized to a sorted tuple of pairs)
    topology: Optional[str] = None     #: routed-fabric topology for the
    #:                                    execution stage (None = flat)
    topology_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: topology/fabric keyword overrides (``dims``, ``arity``, ``nodes``,
    #: ``hop_latency``, ``link_bandwidth``); normalized like
    #: ``run_platform_params``
    placement: str = "block"           #: rank→node placement spec
    #:                                    ("block", "roundrobin",
    #:                                    "random[:seed]", "map:<file>")
    scenario: Optional[Any] = None     #: execution scenario: a curated
    #:                                    registry name, an inline spec
    #:                                    mapping, or a Scenario object
    #:                                    (normalized to the latter).
    #:                                    Expands into the execution-only
    #:                                    dimensions; its fault content
    #:                                    and schedule pin apply only at
    #:                                    the run/replay stages.
    queue_discipline: str = "fifo"     #: per-link queue discipline for
    #:                                    routed execution fabrics
    #:                                    (repro.sim.queueing)
    queue_params: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: queue-discipline knobs (codel target/interval/penalty);
    #: normalized like the other params fields
    schedule_policy: str = "canonical"  #: engine tie-break policy for
    #:                                     every simulated run in the
    #:                                     pipeline (repro.sim.policy)
    schedule_seed: Optional[int] = None  #: seed for non-canonical
    #:                                      schedule policies
    profile: bool = False              #: per-phase engine wall-time
    #:                                    attribution (``engine.profile.*``
    #:                                    counters via repro.obs)
    use_cache: bool = False            #: consult/populate the artifact cache
    cache_dir: str = ".repro-cache"    #: artifact cache root directory

    def __post_init__(self):
        from repro.apps import APPS
        from repro.sim.network import PLATFORMS
        # normalize the params fields first so scenario expansion can
        # compare values in canonical (sorted-pair-tuple) form
        for name in ("run_platform_params", "topology_params",
                     "queue_params"):
            object.__setattr__(self, name, params_tuple(
                name, getattr(self, name), PipelineConfigError))
        self._expand_scenario()
        if self.app is not None and self.app.lower() not in APPS:
            raise PipelineConfigError(
                f"unknown application {self.app!r}; choose from "
                f"{sorted(APPS)}")
        if self.nranks is not None and self.nranks <= 0:
            raise PipelineConfigError(
                f"nranks must be positive, got {self.nranks}")
        if self.cls not in _CLASSES:
            raise PipelineConfigError(
                f"unknown problem class {self.cls!r}; choose from "
                f"{_CLASSES}")
        if self.platform is not None and self.platform not in PLATFORMS:
            raise PipelineConfigError(
                f"unknown platform {self.platform!r}; choose from "
                f"{sorted(PLATFORMS)}")
        if self.max_steps is not None and self.max_steps <= 0:
            raise PipelineConfigError(
                f"max_steps must be positive, got {self.max_steps}")
        if not self.name:
            raise PipelineConfigError("name must be non-empty")
        if self.fault_plan is not None and not isinstance(self.fault_plan,
                                                          FaultPlan):
            raise PipelineConfigError(
                f"fault_plan must be a FaultPlan, got "
                f"{type(self.fault_plan).__name__}")
        if self.compute_scale < 0:
            raise PipelineConfigError(
                f"compute_scale must be >= 0, got {self.compute_scale}")
        if self.run_platform is not None and \
                self.run_platform not in PLATFORMS:
            raise PipelineConfigError(
                f"unknown run_platform {self.run_platform!r}; choose "
                f"from {sorted(PLATFORMS)}")
        if self.run_platform_params is not None:
            # satellite guard: a typoed or preset-incompatible parameter
            # (e.g. eager_threshold on SimpleModel) fails here — at
            # `repro sweep validate` time — not mid-fan-out in a worker
            preset = self.run_platform or self.platform
            if preset is not None:
                from repro.sim.network import validate_platform_params
                try:
                    validate_platform_params(
                        preset, [k for k, _ in self.run_platform_params])
                except ValueError as exc:
                    raise PipelineConfigError(
                        f"bad run_platform_params: {exc}") from None
        if self.topology is not None:
            from repro.topology import TOPOLOGIES
            if self.topology not in TOPOLOGIES:
                raise PipelineConfigError(
                    f"unknown topology {self.topology!r}; choose from "
                    f"{sorted(TOPOLOGIES)}")
        if self.topology_params is not None:
            if self.topology is None:
                raise PipelineConfigError(
                    "topology_params given without a topology")
            from repro.topology import validate_topology_params
            try:
                validate_topology_params(
                    self.topology, [k for k, _ in self.topology_params])
            except ValueError as exc:
                raise PipelineConfigError(
                    f"bad topology_params: {exc}") from None
        if not isinstance(self.placement, str) or not self.placement:
            raise PipelineConfigError(
                f"placement must be a non-empty spec string, got "
                f"{self.placement!r}")
        from repro.sim.policy import resolve_policy
        try:
            # construction-time validation only; each simulated stage
            # builds its own fresh policy (the RNG is per-run state)
            resolve_policy(self.schedule_policy, self.schedule_seed)
        except ValueError as exc:
            raise PipelineConfigError(str(exc)) from None
        if self.placement != "block":
            from repro.topology import parse_placement_spec
            try:
                parse_placement_spec(self.placement)
            except ValueError as exc:
                raise PipelineConfigError(f"bad placement: {exc}") \
                    from None
        from repro.sim.queueing import resolve_queue_discipline
        try:
            resolve_queue_discipline(
                self.queue_discipline, dict(self.queue_params or ()))
        except ValueError as exc:
            raise PipelineConfigError(str(exc)) from None
        if self.queue_discipline not in (None, "fifo") \
                and self.topology is None:
            raise PipelineConfigError(
                f"queue_discipline {self.queue_discipline!r} needs a "
                f"routed execution fabric; set a topology")

    def _expand_scenario(self) -> None:
        """Resolve ``scenario`` to a :class:`Scenario` and adopt its
        execution dimensions.

        A dimension the scenario sets is adopted when the config still
        carries the field default; an explicit conflicting value is an
        error (scenarios compose with, never silently override, direct
        settings).  The scenario's fault content and schedule pin are
        *not* expanded into config fields — they apply only at the
        run/replay stages (see ``repro.pipeline.stages``), which keeps
        the canonical trace and its cache key scenario-independent.
        """
        if self.scenario is None:
            return
        from repro.errors import ScenarioError
        from repro.scenarios import get_scenario
        try:
            scn = get_scenario(self.scenario)
        except ScenarioError as exc:
            raise PipelineConfigError(str(exc)) from None
        object.__setattr__(self, "scenario", scn)
        if scn.has_fault_content() and self.fault_plan is not None:
            raise PipelineConfigError(
                f"scenario {scn.name!r} carries fault content and the "
                f"config sets fault_plan; use one or the other")
        if scn.pins_schedule() and (
                self.schedule_policy != "canonical"
                or self.schedule_seed is not None):
            raise PipelineConfigError(
                f"scenario {scn.name!r} pins the schedule policy and "
                f"the config sets schedule_policy/schedule_seed; use "
                f"one or the other")
        defaults = {f.name: f.default for f in fields(type(self))}
        for name, value in scn.dimensions().items():
            current = getattr(self, name)
            if current == defaults[name]:
                if name.endswith("_params"):
                    value = params_tuple(name, value, PipelineConfigError)
                object.__setattr__(self, name, value)
            elif current != value:
                raise PipelineConfigError(
                    f"scenario {scn.name!r} sets {name}={value!r} but "
                    f"the config already has {name}={current!r}")

    def replace(self, **changes) -> "PipelineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
