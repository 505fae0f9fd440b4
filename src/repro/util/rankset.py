"""Compact rank descriptors.

ScalaTrace attaches to every RSD the set of MPI ranks that participate in
the event.  For the trace (and the generated benchmark) to stay small, that
set must be stored and rendered compactly: ``0:1023`` rather than 1024
integers, ``0:30:2`` for the even ranks below 32, and so on.

:class:`RankSet` is an immutable, canonical union of strided ranges.  It is
hashable, supports the usual set algebra, and knows how to render itself as
a coNCePTuaL task predicate (see :meth:`RankSet.to_predicate`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence, Tuple


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
        self._runs = _normalize_runs(self._ranks)
        self._hash = hash(self._ranks)

    # -- constructors ----------------------------------------------------
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
        return RankSet(self._ranks + other._ranks)

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
        return self._runs

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
        for start, stop, stride in self._runs:
            if start == stop:
                parts.append(str(start))
            elif stride == 1:
                parts.append(f"{start}:{stop}")
            else:
                parts.append(f"{start}:{stop}:{stride}")
        return ",".join(parts) if parts else "{}"

    def __repr__(self) -> str:
        return f"RankSet({self.serialize()})"

    def to_predicate(self, var: str, world_size: int) -> str:
        """Render as a coNCePTuaL task predicate over variable ``var``.

        Chooses the most readable of several forms:
        ``ALL TASKS`` handled by the caller (full world); otherwise e.g.
        ``t = 3``, ``t >= 2 /\\ t <= 9``, ``t MOD 4 = 0``, or an explicit
        membership list ``t IS IN {1, 5, 11}``.
        """
        if len(self._ranks) == world_size:
            return ""  # caller should say ALL TASKS
        if len(self._ranks) == 1:
            return f"{var} = {self._ranks[0]}"
        if len(self._runs) == 1:
            start, stop, stride = self._runs[0]
            if stride == 1:
                if start == 0 and stop == world_size - 1:
                    return ""
                if start == 0:
                    return f"{var} <= {stop}"
                if stop == world_size - 1:
                    return f"{var} >= {start}"
                return f"{var} >= {start} /\\ {var} <= {stop}"
            # strided run
            clauses = [f"{var} MOD {stride} = {start % stride}"]
            if start > 0 or stop < world_size - 1:
                if start > 0:
                    clauses.append(f"{var} >= {start}")
                if stop < world_size - 1:
                    clauses.append(f"{var} <= {stop}")
            return " /\\ ".join(clauses)
        members = ", ".join(str(r) for r in self._ranks)
        return f"{var} IS IN {{{members}}}"
