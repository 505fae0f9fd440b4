"""Declarative fuzz campaigns: one file describes a schedule-space hunt.

A :class:`FuzzCampaign` is the fuzzer's analogue of a
:class:`~repro.sweep.plan.SweepPlan`: a frozen, digest-keyed value
object describing *which* schedule spaces to explore and *how hard*.
It has four parts:

* ``base`` — :class:`~repro.pipeline.PipelineConfig` fields shared by
  every point (platform, max_steps, ...);
* ``apps`` — the application cells, each a mapping of config fields
  (``app``, ``nranks``, ``cls``, and any per-cell override);
* ``topologies`` — routed-fabric names the cells are crossed with
  (``null`` = the flat network);
* ``scenarios`` — scenario references the cells are crossed with
  (``null`` = none; curated names or inline specs, see
  ``docs/SCENARIOS.md``).  Scenarios that pin the schedule are
  rejected — the campaign owns the schedule dimension;
* ``policies`` x ``seeds`` — the seeded scheduler policies
  (:data:`repro.sim.policy.SEEDED_POLICIES`) and how many consecutive
  seeds (starting at ``seed0``) each one explores.

Expansion is deterministic: for every cell x topology, the campaign
emits one **canonical baseline** point first, then one point per
(policy, seed) in listed-policy, ascending-seed order.  The campaign's
:meth:`~FuzzCampaign.digest` is a stable content address used to key
reports and the nightly dedup corpus, exactly as a sweep plan's digest
keys sweep results.

Campaigns are spec files (:mod:`repro.spec`: YAML or JSON,
digest-keyed); see ``docs/FUZZING.md`` for the schema and ``repro fuzz
template`` for a commented example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import FuzzCampaignError
from repro.sim.policy import SEEDED_POLICIES
from repro.spec import Spec

#: pipeline suffixes a campaign may drive: the full Fig. 1 flow or
#: tracing alone (cheapest: the traced run already carries the
#: schedule-dependent outcome the fuzzer compares)
CAMPAIGN_MODES = ("run", "trace")

#: config fields the campaign owns; cells and base may not set them
_RESERVED_FIELDS = ("schedule_policy", "schedule_seed", "topology",
                    "scenario")


def _check_cell(where: str, mapping: Mapping[str, Any]) -> None:
    """Reject reserved or unknown config fields with a helpful message."""
    from repro.sweep.plan import _config_fields
    known = _config_fields()
    for key in mapping:
        if key in _RESERVED_FIELDS:
            raise FuzzCampaignError(
                f"{where}: field {key!r} is owned by the campaign "
                f"(set it via the policies/seeds/topologies/scenarios "
                f"keys)")
        if key not in known:
            raise FuzzCampaignError(
                f"{where}: unknown config field {key!r}; choose from "
                f"{sorted(k for k in known if k not in _RESERVED_FIELDS)}")


@dataclass(frozen=True)
class FuzzCell:
    """One expanded (application cell x topology x scenario) space."""

    index: int                     #: position in expansion order
    overrides: Dict[str, Any]      #: base + cell fields (+ topology...)
    topology: Optional[str]        #: routed fabric, None = flat
    scenario: Optional[str] = None  #: scenario label, None = unscoped

    def label(self) -> str:
        """Short human label: app/nranks/cls plus the topology."""
        o = self.overrides
        bits = [str(o.get("app", "?")),
                f"np={o.get('nranks', '?')}",
                f"cls={o.get('cls', 'S')}"]
        if o.get("platform"):
            bits.append(str(o["platform"]))
        if self.topology:
            bits.append(self.topology)
        if self.scenario:
            bits.append(f"scenario={self.scenario}")
        return "/".join(bits)


@dataclass(frozen=True)
class FuzzPoint:
    """One schedule to execute: a cell under one (policy, seed).

    ``policy`` is None for the cell's canonical baseline point.  The
    ``index`` matches the expanded sweep plan's point index, which is
    how the runner joins sweep outcomes back to campaign coordinates.
    """

    index: int                  #: sweep-plan point index
    cell: FuzzCell              #: the schedule space being explored
    policy: Optional[str]       #: seeded policy name, None = canonical
    seed: Optional[int]         #: schedule seed, None = canonical

    def overrides(self) -> Dict[str, Any]:
        """The full config-field mapping for this point."""
        out = dict(self.cell.overrides)
        if self.policy is not None:
            out["schedule_policy"] = self.policy
            out["schedule_seed"] = self.seed
        return out

    def label(self) -> str:
        """Human label: cell plus the schedule coordinates."""
        if self.policy is None:
            return f"{self.cell.label()} canonical"
        return f"{self.cell.label()} {self.policy}(seed={self.seed})"


@dataclass(frozen=True)
class FuzzCampaign(Spec):
    """A digest-keyed description of one schedule-space fuzz campaign."""

    what = "fuzz campaign"
    error = FuzzCampaignError

    name: str = "fuzz"              #: campaign name (reports, corpus)
    mode: str = "run"               #: pipeline suffix (CAMPAIGN_MODES)
    base: Dict[str, Any] = field(default_factory=dict)
    apps: Tuple[Dict[str, Any], ...] = ()
    topologies: Tuple[Optional[str], ...] = (None,)
    scenarios: Tuple[Any, ...] = (None,)
    policies: Tuple[str, ...] = SEEDED_POLICIES
    seeds: int = 16                 #: seeds explored per policy
    seed0: int = 0                  #: first seed of the range

    def __post_init__(self):
        """Validate every part; normalize sequences to tuples."""
        if not isinstance(self.name, str) or not self.name:
            raise FuzzCampaignError(
                "campaign name must be a non-empty string")
        if self.mode not in CAMPAIGN_MODES:
            raise FuzzCampaignError(
                f"unknown mode {self.mode!r}; choose from "
                f"{CAMPAIGN_MODES}")
        _check_cell("base", self.base)
        if not isinstance(self.apps, (list, tuple)) or not self.apps:
            raise FuzzCampaignError(
                "campaign fuzzes nothing: give at least one app cell")
        cells = []
        for i, cell in enumerate(self.apps):
            if not isinstance(cell, Mapping):
                raise FuzzCampaignError(
                    f"app cell {i} must be a mapping of config fields, "
                    f"got {cell!r}")
            _check_cell(f"app cell {i}", cell)
            if not (cell.get("app") or self.base.get("app")):
                raise FuzzCampaignError(
                    f"app cell {i} names no application (set 'app' in "
                    f"the cell or in base)")
            cells.append(dict(cell))
        object.__setattr__(self, "apps", tuple(cells))
        topos = self.topologies
        if not isinstance(topos, (list, tuple)) or not topos:
            raise FuzzCampaignError(
                "topologies must be a non-empty list (use [null] for "
                "the flat network)")
        from repro.topology import TOPOLOGIES
        for t in topos:
            if t is not None and t not in TOPOLOGIES:
                raise FuzzCampaignError(
                    f"unknown topology {t!r}; choose from "
                    f"{sorted(TOPOLOGIES)} or null")
        object.__setattr__(self, "topologies", tuple(topos))
        scns = self.scenarios
        if not isinstance(scns, (list, tuple)) or not scns:
            raise FuzzCampaignError(
                "scenarios must be a non-empty list (use [null] for "
                "no scenario)")
        from repro.errors import ScenarioError
        from repro.scenarios import get_scenario
        normalized = []
        seen_digests = set()
        for i, entry in enumerate(scns):
            if entry is None:
                if None in normalized:
                    raise FuzzCampaignError(
                        f"scenarios[{i}]: null listed more than once")
                normalized.append(None)
                continue
            try:
                scn = get_scenario(entry)
            except ScenarioError as exc:
                raise FuzzCampaignError(
                    f"scenarios[{i}]: {exc}") from None
            if scn.pins_schedule():
                raise FuzzCampaignError(
                    f"scenarios[{i}]: scenario {scn.name!r} pins the "
                    f"schedule ({scn.schedule_policy}), but the "
                    f"campaign owns the schedule dimension; drop the "
                    f"pin or use a scenario without one")
            if scn.digest() in seen_digests:
                raise FuzzCampaignError(
                    f"scenarios[{i}]: scenario {scn.name!r} listed "
                    f"more than once")
            seen_digests.add(scn.digest())
            normalized.append(entry if isinstance(entry, str)
                              else scn.to_dict())
        object.__setattr__(self, "scenarios", tuple(normalized))
        pols = self.policies
        if not isinstance(pols, (list, tuple)) or not pols:
            raise FuzzCampaignError(
                "policies must be a non-empty list of seeded policy "
                f"names from {SEEDED_POLICIES}")
        seen = set()
        for p in pols:
            if p not in SEEDED_POLICIES:
                extra = (" (the canonical baseline runs automatically; "
                         "listing it is redundant)"
                         if p == "canonical" else "")
                raise FuzzCampaignError(
                    f"unknown fuzz policy {p!r}; choose from "
                    f"{SEEDED_POLICIES}{extra}")
            if p in seen:
                raise FuzzCampaignError(
                    f"policy {p!r} listed more than once")
            seen.add(p)
        object.__setattr__(self, "policies", tuple(pols))
        if not isinstance(self.seeds, int) or isinstance(self.seeds, bool) \
                or self.seeds < 1:
            raise FuzzCampaignError(
                f"seeds must be a positive int, got {self.seeds!r}")
        if not isinstance(self.seed0, int) or isinstance(self.seed0, bool):
            raise FuzzCampaignError(
                f"seed0 must be an int, got {self.seed0!r}")

    # -- expansion ----------------------------------------------------------
    def cells(self) -> List[FuzzCell]:
        """The (app cell x topology x scenario) schedule spaces, in
        expansion order."""
        out: List[FuzzCell] = []
        for cell in self.apps:
            for topo in self.topologies:
                for scn in self.scenarios:
                    overrides = {**self.base, **cell}
                    if topo is not None:
                        overrides["topology"] = topo
                    label = None
                    if scn is not None:
                        overrides["scenario"] = scn
                        label = (scn if isinstance(scn, str)
                                 else scn.get("name", "inline"))
                    out.append(FuzzCell(len(out), overrides, topo, label))
        return out

    def points(self) -> List[FuzzPoint]:
        """The deterministic point list: per cell, the canonical
        baseline first, then every (policy, seed) in listed-policy,
        ascending-seed order."""
        out: List[FuzzPoint] = []
        for cell in self.cells():
            out.append(FuzzPoint(len(out), cell, None, None))
            for policy in self.policies:
                for seed in range(self.seed0, self.seed0 + self.seeds):
                    out.append(FuzzPoint(len(out), cell, policy, seed))
        return out

    def point_count(self) -> int:
        """``len(self.points())``, without expanding the schedules."""
        return len(self.cells()) * (1 + len(self.policies) * self.seeds)

    def to_sweep_plan(self):
        """The campaign as an explicit-points sweep plan, ready for the
        :func:`~repro.sweep.engine.run_sweep` worker pool."""
        from repro.errors import SweepPlanError
        from repro.sweep.plan import SweepPlan
        try:
            return SweepPlan(
                name=f"fuzz-{self.name}", mode=self.mode,
                extra_points=tuple(p.overrides() for p in self.points()))
        except SweepPlanError as exc:
            raise FuzzCampaignError(str(exc)) from None

    def check(self) -> int:
        """Build every point's config, surfacing any invalid value as a
        :class:`FuzzCampaignError`; returns the point count
        (``repro fuzz validate``)."""
        from repro.errors import SweepPlanError
        try:
            return self.to_sweep_plan().check()
        except SweepPlanError as exc:
            raise FuzzCampaignError(str(exc)) from None

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data rendering (the YAML/JSON file content).

        ``scenarios`` is omitted at its default so campaigns written
        before the scenario axis existed keep their digests.
        """
        out = {
            "name": self.name,
            "mode": self.mode,
            "base": dict(self.base),
            "apps": [dict(c) for c in self.apps],
            "topologies": list(self.topologies),
            "policies": list(self.policies),
            "seeds": self.seeds,
            "seed0": self.seed0,
        }
        if self.scenarios != (None,):
            out["scenarios"] = [s if s is None or isinstance(s, str)
                                else dict(s) for s in self.scenarios]
        return out

    @classmethod
    def _build(cls, data: Dict[str, Any]) -> "FuzzCampaign":
        """The campaign from file keys; YAML lists become tuples."""
        if not isinstance(data.get("apps", []), (list, tuple)):
            raise FuzzCampaignError(
                "apps must be a list of config-field mappings")
        kw = {k: tuple(v) if isinstance(v, list) else v
              for k, v in data.items()}
        kw["base"] = dict(kw.get("base", {}))
        return cls(**kw)

    def describe(self) -> str:
        """One-line human summary (``repro fuzz validate``)."""
        n_cells = len(self.cells())
        per_cell = 1 + len(self.policies) * self.seeds
        return (f"{self.name}: {n_cells} cell(s) x {per_cell} "
                f"schedule(s) = {n_cells * per_cell} point(s) "
                f"(mode={self.mode}; policies "
                f"{', '.join(self.policies)}; seeds "
                f"{self.seed0}..{self.seed0 + self.seeds - 1})")


#: commented example written by ``repro fuzz template`` — a small hunt
#: over the seeded wildcard-race fixture plus a control app
TEMPLATE = """\
# repro fuzz campaign (see docs/FUZZING.md for the full schema)
name: race-hunt           # campaign name; lands in reports and corpus
mode: run                 # run | trace (pipeline suffix per point)
base:                     # PipelineConfig fields shared by every cell
  platform: ethernet      #   (anything except the campaign-owned
                          #   schedule_policy/schedule_seed/topology)
apps:                     # application cells: each its own schedule
  - {app: race, nranks: 5, cls: W}   # wildcard fan-in race fixture
  - {app: ring, nranks: 8, cls: S}   # deterministic control: one class
topologies: [null]        # cross cells with routed fabrics; null = flat
                          # e.g. [null, torus3d, fattree]
scenarios: [null]         # cross cells with adversity scenarios; null =
                          # none; e.g. [null, torus-hotlink] (curated
                          # names from `repro scenarios list` — pins of
                          # schedule_policy are rejected here)
policies:                 # seeded policies to explore (the canonical
  - random                # baseline point runs automatically per cell)
  - adversarial-delay
seeds: 16                 # seeds per policy per cell ...
seed0: 0                  # ... starting here
"""
