"""Scalable timing summaries.

ScalaTrace does not store one computation-time sample per event instance;
it compresses all instances of a particular delta (identified by call path
and loop position) into a histogram (Ratn et al., ICS'08).  We mirror that:
:class:`TimeHistogram` keeps logarithmically spaced bins plus exact first
and running moments, supports lossless *merging* (needed when traces are
merged across loop iterations and across ranks), and can reproduce a
deterministic stream of representative values whose total preserves the
recorded total time — the property the paper's timing-accuracy experiment
(Fig. 6) depends on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

#: Bin boundaries grow by this factor; 2**(1/4) keeps relative bin error
#: below ~9% while needing only ~160 bins to span 1 ns .. 1000 s.
_BIN_BASE = 2.0 ** 0.25
_LOG_BASE = math.log(_BIN_BASE)
#: Durations below this (seconds) all land in bin 0.
_MIN_T = 1e-9
#: Parsed bin means must stay below this (seconds): far beyond any run,
#: and far below where ``_bin_index`` would overflow.
_MAX_T = 1e12


def _bin_index(t: float) -> int:
    if t <= _MIN_T:
        return 0
    return 1 + int(math.log(t / _MIN_T) / _LOG_BASE)


class TimeHistogram:
    """Histogram of non-negative durations (seconds).

    Bins store ``(count, sum)`` so that every bin reproduces its exact mean;
    total time is therefore preserved exactly under merging and replay.
    """

    __slots__ = ("bins", "count", "total", "min", "max")

    def __init__(self):
        self.bins: Dict[int, Tuple[int, float]] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def add(self, t: float) -> None:
        if t < 0:
            raise ValueError(f"negative duration: {t}")
        idx = _bin_index(t)
        c, s = self.bins.get(idx, (0, 0.0))
        self.bins[idx] = (c + 1, s + t)
        self.count += 1
        self.total += t
        if t < self.min:
            self.min = t
        if t > self.max:
            self.max = t

    def merge(self, other: "TimeHistogram") -> None:
        if not other.count:
            return
        for idx, (c, s) in other.bins.items():
            c0, s0 = self.bins.get(idx, (0, 0.0))
            self.bins[idx] = (c0 + c, s0 + s)
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def copy(self) -> "TimeHistogram":
        h = TimeHistogram()
        h.bins = dict(self.bins)
        h.count = self.count
        h.total = self.total
        h.min = self.min
        h.max = self.max
        return h

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def replay_values(self) -> Iterator[float]:
        """Deterministic stream of representative durations.

        Emits bin means with *prefix-proportional* frequency (largest-
        remainder scheduling): any prefix of the stream reflects the
        recorded distribution, so a rank drawing 1/p of a cross-rank
        histogram still sees each bin in proportion; and any ``count``
        consecutive draws sum to ``total`` up to rounding, because each
        full cycle emits every bin exactly its recorded number of times.
        """
        bins: List[Tuple[float, float]] = [  # (weight, mean)
            (c / self.count, s / c)
            for _, (c, s) in sorted(self.bins.items())
        ] if self.count else []
        if not bins:
            while True:
                yield 0.0
        credits = [0.0] * len(bins)
        while True:
            best = 0
            for i, (w, _) in enumerate(bins):
                credits[i] += w
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= 1.0
            yield bins[best][1]

    def serialize(self) -> str:
        parts = [f"{idx}:{c}:{s!r}" for idx, (c, s) in sorted(self.bins.items())]
        return ";".join(parts) if parts else "-"

    @classmethod
    def parse(cls, text: str) -> "TimeHistogram":
        h = cls()
        text = text.strip()
        if not text or text == "-":
            return h
        for part in text.split(";"):
            idx_s, c_s, s_s = part.split(":")
            idx, c, s = int(idx_s), int(c_s), float(s_s)
            if c < 1 or not 0.0 <= s / c < _MAX_T:
                raise ValueError(f"bad histogram bin {part!r}")
            c0, s0 = h.bins.get(idx, (0, 0.0))
            h.bins[idx] = (c0 + c, s0 + s)
            h.count += c
            h.total += s
            mean = s / c
            h.min = min(h.min, mean)
            h.max = max(h.max, mean)
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeHistogram):
            return NotImplemented
        return self.bins == other.bins

    def __repr__(self) -> str:
        return (
            f"TimeHistogram(count={self.count}, total={self.total:.6g}, "
            f"mean={self.mean:.6g})"
        )
