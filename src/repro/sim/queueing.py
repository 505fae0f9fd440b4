"""Pluggable per-link queue disciplines for routed fabrics.

The engine's routed path folds every eager message through the named
links of its route (:meth:`repro.sim.engine.Engine._routed_arrival`).
Historically the per-link queue was hardcoded FIFO store-and-forward:
a message waits until the link frees, then occupies it for the
serialization time.  A :class:`QueueDiscipline` makes that admission
decision pluggable so congestion *responses* — not just congestion —
can be modeled:

* ``fifo`` — the original drop-nothing tail queue.  Selecting it by
  name (or passing ``None``) resolves to *no* discipline object, so
  the engine keeps its original inline arithmetic and stays
  byte-identical to the golden suites;
* ``codel`` — a CoDel-style bounded-sojourn queue (Nichols & Jacobson,
  CACM 2012, simplified): when a message would have queued longer than
  ``target`` seconds continuously for a full ``interval``, the queue
  "drops" it — modeled as a retransmission that reaches the wire
  ``penalty`` seconds later — and the drop is counted per link.  With
  ``target`` infinite the admission arithmetic degenerates to exactly
  the FIFO expression, which is the equivalence the property tests pin.

Determinism contract: a discipline is plain arithmetic over the same
per-link state the FIFO fold reads (no RNG, no wall clock), so runs
remain bit-deterministic: the admission points are reached in send
order, whichever loop drives the engine.

Disciplines only exist on routed fabrics (flat fabrics have no named
links to queue on); the engine rejects a non-FIFO discipline without
one at construction.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

#: discipline names accepted by :func:`resolve_queue_discipline`
QUEUE_DISCIPLINES = ("fifo", "codel")


class QueueDiscipline:
    """One per-link admission rule for the routed store-and-forward fold.

    Subclasses implement :meth:`admit`, called once per (message, link)
    in route order.  ``reach`` is when the head of the message arrives
    at the link, ``avail`` is when the link last frees up, and ``ser``
    is the serialization time the message will occupy the link for.
    The return is ``(start, drops)``: when transmission starts on the
    link, and how many drop events (counted retransmissions) this
    admission charged to it.
    """

    name = "queue"

    def admit(self, link: str, reach: float, ser: float,
              avail: float) -> Tuple[float, int]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human rendering for reports and logs."""
        return self.name


class FifoDiscipline(QueueDiscipline):
    """The original tail queue: wait for the link, never drop.

    The engine never routes the default configuration through this
    object (``resolve_queue_discipline`` returns ``None`` for FIFO so
    the inline fast path stays untouched); the class exists so
    harnesses can drive any discipline uniformly, and its arithmetic
    is the reference the golden suites pin.
    """

    name = "fifo"

    def admit(self, link, reach, ser, avail):
        start = avail if avail > reach else reach
        return start, 0


class CoDelDiscipline(QueueDiscipline):
    """CoDel-style bounded sojourn: drop (retransmit) persistent queuers.

    Tracks, per link, when the queueing delay ("sojourn": how long the
    message waits beyond its arrival) first exceeded ``target`` without
    dipping back under it.  Once that state has persisted for a full
    ``interval``, the next admission counts a drop and the message
    reaches the wire ``penalty`` seconds late (the retransmitted copy),
    which also resets the persistence tracking.  All three knobs are
    seconds; ``target`` may be ``inf`` (or the strings ``"inf"`` /
    ``"infinity"``), in which case no sojourn ever exceeds it and the
    discipline is arithmetic-identical to FIFO.
    """

    name = "codel"

    def __init__(self, target: float = 5e-6, interval: float = 1e-4,
                 penalty: float = 5e-5):
        target = _seconds("target", target, allow_inf=True)
        interval = _seconds("interval", interval, allow_inf=True)
        penalty = _seconds("penalty", penalty, allow_inf=False)
        self.target = target
        self.interval = interval
        self.penalty = penalty
        #: per-link time the sojourn first went above target, or absent
        self._first_above: Dict[str, float] = {}

    def admit(self, link, reach, ser, avail):
        start = avail if avail > reach else reach
        sojourn = start - reach
        if sojourn <= self.target:
            self._first_above.pop(link, None)
            return start, 0
        first = self._first_above.get(link)
        if first is None:
            self._first_above[link] = start
            return start, 0
        if start - first >= self.interval:
            start += self.penalty
            self._first_above[link] = start
            return start, 1
        return start, 0

    def describe(self):
        return (f"{self.name}(target={self.target!r}, "
                f"interval={self.interval!r}, penalty={self.penalty!r})")


def _seconds(knob: str, value, allow_inf: bool) -> float:
    """Validate one CoDel knob: a positive float (optionally infinite)."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            value = math.inf
        else:
            try:
                value = float(value)
            except ValueError:
                raise ValueError(
                    f"codel {knob} must be seconds (a number), "
                    f"got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"codel {knob} must be seconds (a number), "
                         f"got {value!r}")
    value = float(value)
    if math.isnan(value) or value <= 0.0:
        raise ValueError(f"codel {knob} must be positive, got {value!r}")
    if math.isinf(value) and not allow_inf:
        raise ValueError(f"codel {knob} cannot be infinite")
    return value


def _params_dict(queue_params) -> Dict[str, object]:
    """Normalize queue params: a mapping or a tuple of (key, value)
    pairs (the :class:`~repro.pipeline.config.PipelineConfig` canonical
    form) into a plain dict."""
    if queue_params is None:
        return {}
    if isinstance(queue_params, Mapping):
        return dict(queue_params)
    return {str(k): v for k, v in queue_params}


def resolve_queue_discipline(discipline=None,
                             queue_params=None
                             ) -> Optional[QueueDiscipline]:
    """A fresh :class:`QueueDiscipline` from a spec, validated up front.

    ``discipline`` may be None or ``"fifo"`` (→ ``None``: the engine
    keeps its original inline FIFO fold, the byte-identical default), a
    name from :data:`QUEUE_DISCIPLINES`, or an already-built
    :class:`QueueDiscipline` (passed through; ``queue_params`` must
    then be empty).  Unknown names, parameters on FIFO, and unknown or
    malformed CoDel knobs all raise :class:`ValueError` here — at
    construction — rather than deep inside a run.  A *fresh* instance
    is returned for named disciplines because the per-link persistence
    tracking is per-run state.
    """
    params = _params_dict(queue_params)
    if isinstance(discipline, QueueDiscipline):
        if params:
            raise ValueError(
                "queue_params cannot be combined with an already-built "
                f"discipline object ({discipline.describe()}); "
                "parameterize the discipline at construction instead")
        return discipline
    if discipline is None or discipline == "fifo":
        if params:
            raise ValueError(
                f"the fifo queue discipline takes no parameters, got "
                f"{sorted(params)}")
        return None
    if not isinstance(discipline, str) or \
            discipline not in QUEUE_DISCIPLINES:
        raise ValueError(
            f"unknown queue discipline {discipline!r}: expected one of "
            f"{QUEUE_DISCIPLINES} (see docs/SCENARIOS.md)")
    known = ("target", "interval", "penalty")
    bad = sorted(set(params) - set(known))
    if bad:
        raise ValueError(
            f"unknown codel parameter(s) {bad}; known: {list(known)}")
    return CoDelDiscipline(**params)
