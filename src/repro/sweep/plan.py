"""Declarative sweep plans: one file describes a whole what-if study.

A :class:`SweepPlan` is the sweep analogue of a
:class:`~repro.faults.plan.FaultPlan`: a frozen, digest-keyed value
object describing a *grid* of pipeline configurations — the paper's
§5.4 methodology (re-run one generated communication specification
across changed platforms and compute-acceleration factors) made
first-class and batchable.

A plan has three parts:

* ``base`` — :class:`~repro.pipeline.PipelineConfig` fields shared by
  every point (the application, rank count, problem class, platform);
* ``axes`` — an ordered list of ``{field, values}`` entries whose
  cartesian product generates the grid (``compute_scale``,
  ``run_platform_params``, ``nranks``, ``fault_plan``, ... — any config
  field);
* ``points`` — explicit extra points appended after the grid, for
  one-off configurations the product cannot express.

Point expansion order is deterministic: the cartesian product iterates
the axes in their listed order (last axis fastest, like nested loops),
then the explicit points follow.  The plan's :meth:`~SweepPlan.digest`
is a stable content address over the whole description, used to key
sweep results exactly as a fault plan's digest keys faulted artifacts.

Plans are spec files (:mod:`repro.spec`: YAML or JSON, digest-keyed);
see ``docs/SWEEPS.md`` for the schema and ``repro sweep template`` for
a commented example.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.errors import SweepPlanError
from repro.spec import Spec, canonical

#: pipeline suffixes a plan may target: the full Fig. 1 flow, the flow
#: without the final execution, or tracing alone (cache warming)
MODES = ("run", "generate", "trace")

#: config fields a plan may set.  Cache bookkeeping is deliberately
#: excluded: whether/where artifacts are cached is an *execution*
#: decision owned by the sweep invocation, not by the study description
#: (the same plan must produce the same results cached or not).
_EXCLUDED_FIELDS = ("use_cache", "cache_dir")


def _config_fields() -> Dict[str, Any]:
    """Name -> dataclass field for every plan-settable config field."""
    import dataclasses

    from repro.pipeline.config import PipelineConfig
    return {f.name: f for f in dataclasses.fields(PipelineConfig)
            if f.name not in _EXCLUDED_FIELDS}


def _check_fields(where: str, names: Iterable[Any]) -> None:
    """Reject unknown or excluded config fields with a helpful message."""
    known = _config_fields()
    for key in names:
        if not isinstance(key, str) or key not in known:
            hint = (" (cache settings belong to the sweep invocation, "
                    "not the plan)" if key in _EXCLUDED_FIELDS else "")
            raise SweepPlanError(
                f"{where}: unknown config field {key!r}{hint}; "
                f"choose from {sorted(known)}")


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a config field and its ordered values."""

    field: str
    values: Tuple[Any, ...]

    def __post_init__(self):
        """Validate the axis: known field, non-empty value list."""
        _check_fields("axis", (self.field,))
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise SweepPlanError(
                f"axis {self.field!r} needs a non-empty list of values, "
                f"got {self.values!r}")
        object.__setattr__(self, "values",
                           tuple(canonical(self.values, SweepPlanError)))


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: its index, the varying parameters, and
    the full config-field mapping (base + variation)."""

    index: int          #: position in the deterministic expansion order
    params: Dict[str, Any]     #: just the fields this point varies
    overrides: Dict[str, Any]  #: base merged with ``params``

    def label(self) -> str:
        """Short human label: the varying fields, comma-joined."""
        if not self.params:
            return f"point {self.index}"
        return ", ".join(f"{k}={_short(v)}" for k, v in
                         sorted(self.params.items()))


def _short(value: Any) -> str:
    """Compact value rendering for point labels."""
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}={_short(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))) \
            + "}"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class SweepPlan(Spec):
    """A digest-keyed description of one batched what-if study."""

    what = "sweep plan"
    error = SweepPlanError
    file_keys = frozenset({"name", "mode", "base", "axes", "points"})

    name: str = "sweep"             #: study name (reports, result files)
    mode: str = "run"               #: pipeline suffix to execute (MODES)
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Tuple[SweepAxis, ...] = ()
    extra_points: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self):
        """Validate mode, base fields, axis uniqueness, explicit points;
        values are kept in canonical form (a ``Scenario`` or ``FaultPlan``
        object becomes its mapping), so results render them as JSON."""
        if not isinstance(self.name, str) or not self.name:
            raise SweepPlanError("plan name must be a non-empty string")
        if self.mode not in MODES:
            raise SweepPlanError(
                f"unknown mode {self.mode!r}; choose from {MODES}")
        object.__setattr__(self, "base",
                           canonical(dict(self.base), SweepPlanError))
        _check_fields("base", self.base)
        axes = tuple(a if isinstance(a, SweepAxis) else SweepAxis(**a)
                     for a in self.axes)
        object.__setattr__(self, "axes", axes)
        seen = set()
        for axis in axes:
            if axis.field in seen:
                raise SweepPlanError(
                    f"field {axis.field!r} appears in more than one axis")
            seen.add(axis.field)
        pts = tuple(canonical(dict(p), SweepPlanError)
                    for p in self.extra_points)
        for p in pts:
            _check_fields("point", p)
        object.__setattr__(self, "extra_points", pts)
        if not axes and not pts:
            raise SweepPlanError(
                "plan sweeps nothing: give at least one axis or one "
                "explicit point")

    # -- expansion ----------------------------------------------------------
    def points(self) -> List[SweepPoint]:
        """The deterministic point list: cartesian product of the axes
        (in listed order, last axis fastest), then the explicit points."""
        out: List[SweepPoint] = []
        if self.axes:
            names = [a.field for a in self.axes]
            for combo in itertools.product(*(a.values for a in self.axes)):
                params = dict(zip(names, combo))
                out.append(SweepPoint(len(out), params,
                                      {**self.base, **params}))
        for params in self.extra_points:
            out.append(SweepPoint(len(out), dict(params),
                                  {**self.base, **params}))
        return out

    def point_count(self) -> int:
        """``len(self.points())``, without expanding them."""
        return (math.prod(len(a.values) for a in self.axes)
                if self.axes else 0) + len(self.extra_points)

    def check(self) -> int:
        """Build every point's :class:`PipelineConfig`, surfacing any
        invalid value as a :class:`SweepPlanError`; returns the point
        count (``repro sweep validate``)."""
        pts = self.points()
        for point in pts:
            try:
                build_config(point.overrides)
            except Exception as exc:
                raise SweepPlanError(
                    f"point {point.index} ({point.label()}): {exc}") \
                    from None
        return len(pts)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data rendering (the YAML/JSON file content)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "base": dict(self.base),
            "axes": [{"field": a.field, "values": list(a.values)}
                     for a in self.axes],
            "points": [dict(p) for p in self.extra_points],
        }

    @classmethod
    def _build(cls, data: Dict[str, Any]) -> "SweepPlan":
        """The plan from file keys (``points`` holds the explicit
        points); each axis needs exactly ``field`` and ``values``."""
        axes = data.get("axes", [])
        points = data.get("points", [])
        if not isinstance(axes, (list, tuple)):
            raise SweepPlanError("axes must be a list of "
                                 "{field, values} entries")
        if not isinstance(points, (list, tuple)):
            raise SweepPlanError("points must be a list of mappings")
        for entry in axes:
            if not isinstance(entry, Mapping) or \
                    set(entry) != {"field", "values"}:
                raise SweepPlanError(
                    f"each axis needs exactly the keys 'field' and "
                    f"'values', got {entry!r}")
        return cls(name=data.get("name", "sweep"),
                   mode=data.get("mode", "run"),
                   base=dict(data.get("base", {})),
                   axes=tuple(SweepAxis(**a) for a in axes),
                   extra_points=tuple(points))

    def describe(self) -> str:
        """One-line human summary (``repro sweep validate``)."""
        bits = [f"mode={self.mode}"]
        for a in self.axes:
            bits.append(f"{a.field} x{len(a.values)}")
        if self.extra_points:
            bits.append(f"+{len(self.extra_points)} explicit point(s)")
        return (f"{self.name}: {len(self.points())} point(s) "
                f"({'; '.join(bits)})")


def build_config(overrides: Mapping[str, Any], *,
                 use_cache: bool = False, cache_dir: str = ".repro-cache"):
    """A validated :class:`PipelineConfig` from a point's field mapping.

    Inline ``fault_plan`` mappings become :class:`FaultPlan` objects and
    ``run_platform_params`` mappings pass through the config's own
    normalization; cache policy comes from the sweep invocation.
    """
    from repro.faults.plan import FaultPlan
    from repro.pipeline.config import PipelineConfig
    kw = dict(overrides)
    plan = kw.get("fault_plan")
    if isinstance(plan, Mapping):
        kw["fault_plan"] = FaultPlan.from_dict(plan)
    return PipelineConfig(use_cache=use_cache, cache_dir=cache_dir, **kw)


#: commented example written by ``repro sweep template`` — the paper's
#: Fig. 7 what-if acceleration study as a plan file
TEMPLATE = """\
# repro sweep plan (see docs/SWEEPS.md for the full schema)
name: fig7-whatif         # study name; lands in results and reports
mode: run                 # run | generate | trace (pipeline suffix)
base:                     # PipelineConfig fields shared by every point
  app: bt                 #   any field except use_cache/cache_dir,
  nranks: 16              #   which belong to the sweep invocation
  cls: B
  platform: arc           # trace/generate platform (ARC Ethernet)
axes:                     # cartesian product, listed order, last fastest
  - field: compute_scale  # Fig. 7's axis: fraction of recorded compute
    values: [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
# more axes compound, e.g. sweep the run-time network too:
#  - field: run_platform_params
#    values: [{latency: 3.0e-5}, {latency: 1.0e-4}]
# topology and placement are execution-only: every point still shares
# the cached trace/emit artifacts (docs/TOPOLOGY.md):
#  - field: topology
#    values: [null, torus3d, fattree]
#  - field: placement
#    values: [block, roundrobin, "random:1"]
# scenarios are execution-only too: a scenario axis (curated names or
# inline specs, docs/SCENARIOS.md) reruns the same cached benchmark
# under each adversity, and scenario points report link/drop metrics:
#  - field: scenario
#    values: [calm, torus-hotlink, straggler-wavefront]
points: []                # explicit extra points, e.g.
#  - {nranks: 64, compute_scale: 0.5}
# a fault_plan axis takes inline plans (docs/FAULTS.md schema):
#  - field: fault_plan
#    values: [null, {seed: 42, drop_rate: 0.05, max_retries: 12}]
"""
