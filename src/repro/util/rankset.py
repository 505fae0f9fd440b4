"""Compact rank descriptors.

ScalaTrace attaches to every RSD the set of MPI ranks that participate in
the event.  For the trace (and the generated benchmark) to stay small, that
set must be stored and rendered compactly: ``0:1023`` rather than 1024
integers, ``0:30:2`` for the even ranks below 32, and so on.

:class:`RankSet` is an immutable, canonical union of strided ranges.  It is
hashable and supports the usual set algebra.  Its runs are factored on
first use (:attr:`RankSet.runs`, :meth:`RankSet.serialize`), so the
unions of a trace merge pay only for the concatenation.  The coNCePTuaL
emitter renders a set as a task predicate
(:func:`repro.generator.emit_conceptual.rank_predicate`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


def _normalize_runs(ranks: Sequence[int]) -> Tuple[Tuple[int, int, int], ...]:
    """Greedily factor a sorted, deduplicated rank list into (start, stop,
    stride) runs, each covering at least one element, stop inclusive."""
    runs: List[Tuple[int, int, int]] = []
    i = 0
    n = len(ranks)
    while i < n:
        if i + 1 >= n:
            runs.append((ranks[i], ranks[i], 1))
            break
        stride = ranks[i + 1] - ranks[i]
        j = i + 1
        while j + 1 < n and ranks[j + 1] - ranks[j] == stride:
            j += 1
        if j - i >= 2:  # at least 3 elements: worth a strided run
            runs.append((ranks[i], ranks[j], stride))
            i = j + 1
        else:
            runs.append((ranks[i], ranks[i], 1))
            i += 1
    return tuple(runs)


class RankSet:
    """An immutable set of non-negative integers with a compact canonical
    form.  Construction accepts any iterable of ints; duplicates are ignored.
    """

    __slots__ = ("_ranks", "_runs", "_hash")

    def __init__(self, ranks: Iterable[int] = ()):
        rs = sorted(set(int(r) for r in ranks))
        for r in rs[:1]:
            if r < 0:
                raise ValueError("ranks must be non-negative")
        self._ranks: Tuple[int, ...] = tuple(rs)
        self._runs: Optional[Tuple[Tuple[int, int, int], ...]] = None
        self._hash = hash(self._ranks)

    # -- constructors ----------------------------------------------------
    @classmethod
    def _of_sorted(cls, ranks: Tuple[int, ...]) -> "RankSet":
        """The set of ``ranks``, already sorted, distinct, non-negative."""
        out = cls.__new__(cls)
        out._ranks = ranks
        out._runs = None
        out._hash = hash(ranks)
        return out

    @classmethod
    def single(cls, rank: int) -> "RankSet":
        return cls((rank,))

    @classmethod
    def interval(cls, start: int, stop: int, stride: int = 1) -> "RankSet":
        """Inclusive interval with stride, mirroring the textual ``a:b:s``."""
        if stride <= 0:
            raise ValueError("stride must be positive")
        return cls(range(start, stop + 1, stride))

    @classmethod
    def world(cls, size: int) -> "RankSet":
        return cls(range(size))

    @classmethod
    def parse(cls, text: str) -> "RankSet":
        """Parse the serialized form produced by :meth:`serialize`:
        comma-separated runs ``start[:stop[:stride]]``."""
        text = text.strip()
        if not text or text == "{}":
            return cls()
        ranks: List[int] = []
        for part in text.split(","):
            bits = part.strip().split(":")
            if len(bits) == 1:
                ranks.append(int(bits[0]))
            elif len(bits) == 2:
                ranks.extend(range(int(bits[0]), int(bits[1]) + 1))
            elif len(bits) == 3:
                ranks.extend(range(int(bits[0]), int(bits[1]) + 1, int(bits[2])))
            else:
                raise ValueError(f"bad rank run: {part!r}")
        return cls(ranks)

    # -- set protocol -----------------------------------------------------
    def __contains__(self, rank: object) -> bool:
        if not isinstance(rank, int):
            return False
        i = bisect_left(self._ranks, rank)
        return i < len(self._ranks) and self._ranks[i] == rank

    def __iter__(self) -> Iterator[int]:
        return iter(self._ranks)

    def __len__(self) -> int:
        return len(self._ranks)

    def __bool__(self) -> bool:
        return bool(self._ranks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankSet):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return self._hash

    def union(self, other: "RankSet") -> "RankSet":
        mine, theirs = self._ranks, other._ranks
        if mine and theirs and mine[-1] < theirs[0]:
            # already sorted and disjoint: the order the binomial merges
            # (the tracer's Finalize merge and the rebuild) union in
            return RankSet._of_sorted(mine + theirs)
        return RankSet(mine + theirs)

    __or__ = union

    def intersection(self, other: "RankSet") -> "RankSet":
        mine = set(self._ranks)
        return RankSet(r for r in other._ranks if r in mine)

    __and__ = intersection

    def difference(self, other: "RankSet") -> "RankSet":
        theirs = set(other._ranks)
        return RankSet(r for r in self._ranks if r not in theirs)

    __sub__ = difference

    def issubset(self, other: "RankSet") -> bool:
        theirs = set(other._ranks)
        return all(r in theirs for r in self._ranks)

    def isdisjoint(self, other: "RankSet") -> bool:
        theirs = set(other._ranks)
        return not any(r in theirs for r in self._ranks)

    @property
    def runs(self) -> Tuple[Tuple[int, int, int], ...]:
        """Canonical (start, stop_inclusive, stride) runs."""
        runs = self._runs
        if runs is None:
            runs = self._runs = _normalize_runs(self._ranks)
        return runs

    def min(self) -> int:
        if not self._ranks:
            raise ValueError("empty RankSet")
        return self._ranks[0]

    def max(self) -> int:
        if not self._ranks:
            raise ValueError("empty RankSet")
        return self._ranks[-1]

    # -- rendering ---------------------------------------------------------
    def serialize(self) -> str:
        parts = []
        for start, stop, stride in self.runs:
            if start == stop:
                parts.append(str(start))
            elif stride == 1:
                parts.append(f"{start}:{stop}")
            else:
                parts.append(f"{start}:{stop}:{stride}")
        return ",".join(parts) if parts else "{}"

    def __repr__(self) -> str:
        return f"RankSet({self.serialize()})"
