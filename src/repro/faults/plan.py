"""Declarative, seeded fault plans for degraded-network what-if studies.

A :class:`FaultPlan` is a frozen value object describing *everything* a
simulation's messaging layer will do wrong: per-message drop and
duplication probabilities, bounded reorder delay, transient link
degradation over virtual-time windows, per-rank compute stragglers, and
rank crash-at-time events, plus the retry policy (timeout + exponential
backoff) the simulated messaging layer uses to recover from drops.

Everything downstream of the plan is a pure function of ``(plan, message
identity)`` — see :mod:`repro.faults.injector` — so two runs with the
same plan are bit-identical, and a plan that injects nothing
(:meth:`FaultPlan.is_null`) leaves the simulation byte-identical to a
run without any plan at all.  The paper's §5.4 what-if methodology
(re-run the same communication specification under a changed platform)
extends naturally to "the same specification under a misbehaving
platform"; the plan is the executable description of the misbehaviour.

Plans are spec files (:mod:`repro.spec`: YAML or JSON, digest-keyed);
see ``docs/FAULTS.md`` for the schema and ``repro faults template`` for
a commented example.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import FaultPlanError
from repro.spec import Spec


@dataclass(frozen=True)
class LinkWindow:
    """Transient link degradation over a virtual-time window.

    Messages *injected* during ``[t_start, t_end)`` and destined to a
    rank in ``ranks`` (``None`` = every rank) pay ``latency_factor`` on
    the latency portion of their transit and ``bandwidth_factor`` on the
    serialization portion.  Factors are multiplicative; overlapping
    windows compound.

    On a routed fabric (``--topology``) a window can instead target
    named fabric links (e.g. ``"x+:0,0,0"`` on a torus, ``"up:1:2"`` on
    a fat-tree — see ``docs/TOPOLOGY.md``): the window then applies
    only to messages whose route traverses one of those links.  The
    ``ranks`` and ``links`` filters compound (both must pass); on a
    flat fabric a ``links`` filter never matches (no named links).
    """

    t_start: float
    t_end: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    ranks: Optional[Tuple[int, ...]] = None
    links: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise FaultPlanError(
                f"window ends before it starts: [{self.t_start}, "
                f"{self.t_end})")
        if self.latency_factor < 1.0 or self.bandwidth_factor < 1.0:
            raise FaultPlanError(
                "degradation factors must be >= 1.0 (a window only ever "
                "slows a link down)")
        if self.ranks is not None:
            object.__setattr__(self, "ranks",
                               tuple(sorted(int(r) for r in self.ranks)))
        if self.links is not None:
            object.__setattr__(self, "links",
                               tuple(sorted(str(n) for n in self.links)))

    def is_null(self) -> bool:
        return (self.latency_factor == 1.0
                and self.bandwidth_factor == 1.0) or \
            self.t_end == self.t_start

    def applies(self, dst: int, t: float,
                route: Tuple[str, ...] = ()) -> bool:
        if not (self.t_start <= t < self.t_end):
            return False
        if self.ranks is not None and dst not in self.ranks:
            return False
        if self.links is not None:
            return any(link in self.links for link in route)
        return True


def _pair(entry, value_key: str) -> Tuple[Any, Any]:
    """A ``(rank, value)`` straggler/crash entry from its file form
    (``{rank, <value_key>}``) or its tuple form."""
    if isinstance(entry, Mapping):
        return entry["rank"], entry[value_key]
    return entry[0], entry[1]


def _rate(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class FaultPlan(Spec):
    """One complete, seeded description of injected network faults."""

    what = "fault plan"
    error = FaultPlanError

    seed: int = 0
    #: probability that any single transmission attempt is dropped
    drop_rate: float = 0.0
    #: probability that a delivered message is also duplicated on the wire
    duplicate_rate: float = 0.0
    #: probability that a delivered message is delayed out of pace
    reorder_rate: float = 0.0
    #: upper bound (seconds) on the injected reorder delay
    reorder_max_delay: float = 0.0
    #: transient link-degradation windows
    windows: Tuple[LinkWindow, ...] = ()
    #: (rank, compute_factor) pairs; factor multiplies Compute durations
    stragglers: Tuple[Tuple[int, float], ...] = ()
    #: (rank, virtual_time) pairs; the rank stops executing at that time
    crashes: Tuple[Tuple[int, float], ...] = ()
    #: retransmission policy for dropped messages
    max_retries: int = 3
    retry_timeout: float = 1e-4
    retry_backoff: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "drop_rate",
                           _rate("drop_rate", self.drop_rate))
        object.__setattr__(self, "duplicate_rate",
                           _rate("duplicate_rate", self.duplicate_rate))
        object.__setattr__(self, "reorder_rate",
                           _rate("reorder_rate", self.reorder_rate))
        if self.reorder_max_delay < 0:
            raise FaultPlanError(
                f"reorder_max_delay must be >= 0, "
                f"got {self.reorder_max_delay}")
        if self.max_retries < 0:
            raise FaultPlanError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_timeout < 0:
            raise FaultPlanError(
                f"retry_timeout must be >= 0, got {self.retry_timeout}")
        if self.retry_backoff < 1.0:
            raise FaultPlanError(
                f"retry_backoff must be >= 1.0, got {self.retry_backoff}")
        object.__setattr__(
            self, "windows",
            tuple(w if isinstance(w, LinkWindow) else LinkWindow(**w)
                  for w in self.windows))
        stragglers = []
        for rank, factor in (_pair(s, "factor") for s in self.stragglers):
            if factor <= 0:
                raise FaultPlanError(
                    f"straggler factor must be > 0, got {factor} "
                    f"for rank {rank}")
            stragglers.append((int(rank), float(factor)))
        object.__setattr__(self, "stragglers", tuple(sorted(stragglers)))
        crashes = []
        for rank, t in (_pair(c, "time") for c in self.crashes):
            if t < 0:
                raise FaultPlanError(
                    f"crash time must be >= 0, got {t} for rank {rank}")
            crashes.append((int(rank), float(t)))
        object.__setattr__(self, "crashes", tuple(sorted(crashes)))

    # -- classification -----------------------------------------------------
    def is_null(self) -> bool:
        """True when this plan injects nothing at all: a simulation run
        under a null plan is byte-identical to a run without a plan."""
        return (self.drop_rate == 0.0
                and self.duplicate_rate == 0.0
                and (self.reorder_rate == 0.0
                     or self.reorder_max_delay == 0.0)
                and all(w.is_null() for w in self.windows)
                and all(f == 1.0 for _, f in self.stragglers)
                and not self.crashes)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["windows"] = [
            {k: (list(v) if isinstance(v, tuple) else v)
             for k, v in asdict(w).items() if v is not None}
            for w in self.windows]
        out["stragglers"] = [{"rank": r, "factor": f}
                             for r, f in self.stragglers]
        out["crashes"] = [{"rank": r, "time": t} for r, t in self.crashes]
        return out

    def describe(self) -> str:
        """One-paragraph human summary (``repro faults validate``)."""
        bits = [f"seed={self.seed}"]
        if self.drop_rate:
            bits.append(f"drop={self.drop_rate:g} "
                        f"(retries<={self.max_retries}, "
                        f"timeout={self.retry_timeout:g}s, "
                        f"backoff=x{self.retry_backoff:g})")
        if self.duplicate_rate:
            bits.append(f"duplicate={self.duplicate_rate:g}")
        if self.reorder_rate and self.reorder_max_delay:
            bits.append(f"reorder={self.reorder_rate:g} "
                        f"(<= {self.reorder_max_delay:g}s)")
        live_windows = [w for w in self.windows if not w.is_null()]
        if live_windows:
            bits.append(f"{len(live_windows)} degradation window(s)")
        stragglers = [(r, f) for r, f in self.stragglers if f != 1.0]
        if stragglers:
            bits.append("stragglers " + ", ".join(
                f"rank {r} x{f:g}" for r, f in stragglers))
        if self.crashes:
            bits.append("crashes " + ", ".join(
                f"rank {r}@{t:g}s" for r, t in self.crashes))
        if self.is_null():
            bits.append("null plan (injects nothing)")
        return "; ".join(bits)


#: commented example written by ``repro faults template``
TEMPLATE = """\
# repro fault plan (see docs/FAULTS.md for the full schema)
seed: 42                  # drives every injection decision; same seed,
                          # same faults, bit-identical runs
drop_rate: 0.05           # per-transmission-attempt drop probability
duplicate_rate: 0.0       # delivered message also duplicated on the wire
reorder_rate: 0.0         # delivered message delayed out of pace ...
reorder_max_delay: 0.0    # ... by at most this many seconds
max_retries: 3            # retransmission attempts after the first send
retry_timeout: 1.0e-4     # seconds before the first retransmission
retry_backoff: 2.0        # timeout multiplier per further attempt
windows: []               # transient link degradation, e.g.
#  - t_start: 0.0         # rank-filtered: slow every message landing
#    t_end: 0.005         # on ranks 0 and 1 during the window
#    latency_factor: 4.0
#    bandwidth_factor: 2.0
#    ranks: [0, 1]        # destination ranks affected (omit for all)
#  - t_start: 0.0         # link-filtered (routed fabrics only): slow
#    t_end: 0.005         # messages whose route traverses a named
#    latency_factor: 8.0  # fabric link -- "x+:0,0,0" on a torus,
#    bandwidth_factor: 4.0  # "up:1:2" on a fat-tree (docs/TOPOLOGY.md)
#    ranks: [0, 1]        # filters compound: BOTH the destination rank
#    links: ["x+:0,0,0"]  # AND the route filter must pass (omit ranks
#                         # to target the links alone)
stragglers: []            # per-rank compute slowdowns, e.g.
#  - {rank: 2, factor: 3.0}
crashes: []               # rank stops executing at a virtual time, e.g.
#  - {rank: 5, time: 0.02}
"""
