"""Rank-parameterized value expressions.

When ScalaTrace merges per-rank RSDs it must describe how an event
parameter (peer rank, message size, root, tag) varies across the
participating ranks *without* losing information.  A ring send, for
example, merges into "each rank r sends to (r+1) mod N" — a closed form —
while genuinely irregular peers fall back to an explicit table.

:class:`ParamExpr` is that description.  Three shapes:

``const``  — the same value on every rank;
``rel``    — value = rank + delta, optionally modulo the communicator size
             (covers ring and stencil neighbours, the dominant HPC case);
``table``  — explicit rank -> value mapping (lossless fallback).

:meth:`ParamExpr.infer` picks the most compact shape that exactly explains
a set of (rank, value) samples; merging two expressions re-infers over the
union of their samples, so compression is opportunistic but never lossy.
"""

from __future__ import annotations

import itertools
from typing import Collection, Dict, Iterable, Optional, Tuple

#: Sentinel used in traces for MPI_ANY_SOURCE before Algorithm 2 resolves it.
ANY_SOURCE = -1


class ParamExpr:
    __slots__ = ("kind", "delta", "mod", "table")

    def __init__(self, kind: str, delta: int = 0, mod: Optional[int] = None,
                 table: Optional[Dict[int, int]] = None):
        if kind not in ("const", "rel", "table"):
            raise ValueError(f"bad ParamExpr kind: {kind}")
        self.kind = kind
        self.delta = delta          # const: the value; rel: the offset
        self.mod = mod              # rel only: communicator size for wraparound
        self.table = table or {}   # table only

    # -- constructors ----------------------------------------------------
    @classmethod
    def const(cls, value: int) -> "ParamExpr":
        return cls("const", delta=int(value))

    @classmethod
    def rel(cls, delta: int, mod: Optional[int] = None) -> "ParamExpr":
        return cls("rel", delta=int(delta), mod=mod)

    @classmethod
    def from_table(cls, table: Dict[int, int]) -> "ParamExpr":
        return cls("table", table=dict(table))

    @classmethod
    def infer(cls, samples: Iterable[Tuple[int, int]],
              comm_size: Optional[int] = None) -> "ParamExpr":
        """Most compact expression exactly matching ``samples``.

        Preference order: const, rel (plain), rel (mod comm_size), table.
        """
        pairs = [(int(r), int(v)) for r, v in samples]
        if not pairs:
            raise ValueError("no samples")
        values = {v for _, v in pairs}
        if len(values) == 1:
            return cls.const(next(iter(values)))
        deltas = {v - r for r, v in pairs}
        if len(deltas) == 1:
            return cls.rel(next(iter(deltas)))
        # the modular form (rank+d) mod N only reproduces values that are
        # themselves valid ranks in [0, N)
        if comm_size and all(0 <= v < comm_size for _, v in pairs):
            mod_deltas = {(v - r) % comm_size for r, v in pairs}
            if len(mod_deltas) == 1:
                return cls.rel(next(iter(mod_deltas)), mod=comm_size)
        return cls.from_table(dict(pairs))

    # -- evaluation -------------------------------------------------------
    def evaluate(self, rank: int) -> int:
        if self.kind == "const":
            return self.delta
        if self.kind == "rel":
            v = rank + self.delta
            if self.mod is not None:
                v %= self.mod
            return v
        try:
            return self.table[rank]
        except KeyError:
            raise KeyError(f"rank {rank} not in table expression") from None

    def samples(self, ranks: Iterable[int]) -> Iterable[Tuple[int, int]]:
        return [(r, self.evaluate(r)) for r in ranks]

    def merge(self, my_ranks: Collection[int], other: "ParamExpr",
              other_ranks: Collection[int],
              comm_size: Optional[int] = None) -> "ParamExpr":
        """Expression covering both domains: what :meth:`infer` makes of
        the samples of both.  Two equal constants over one rank or
        more, and two equal plain offsets over two ranks or more (whose
        values then differ while their offsets agree), are that result
        already, so no rank is evaluated for them.  The rank arguments
        are read more than once."""
        if self == other and (
                (self.kind == "const"
                 and _distinct(my_ranks, other_ranks, 1))
                or (self.kind == "rel" and self.mod is None
                    and _distinct(my_ranks, other_ranks, 2))):
            return self
        pairs = list(self.samples(my_ranks)) + list(other.samples(other_ranks))
        return ParamExpr.infer(pairs, comm_size)

    def is_constant(self) -> bool:
        return self.kind == "const"

    def constant_value(self) -> int:
        if self.kind != "const":
            raise ValueError("expression is not constant")
        return self.delta

    # -- comparison / serialization ---------------------------------------
    def _key(self):
        if self.kind == "table":
            return ("table", tuple(sorted(self.table.items())))
        return (self.kind, self.delta, self.mod)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def serialize(self) -> str:
        if self.kind == "const":
            return f"C{self.delta}"
        if self.kind == "rel":
            return f"R{self.delta}" + (f"%{self.mod}" if self.mod is not None else "")
        items = ",".join(f"{r}={v}" for r, v in sorted(self.table.items()))
        return f"T{items}"

    @classmethod
    def parse(cls, text: str) -> "ParamExpr":
        text = text.strip()
        if text.startswith("C"):
            return cls.const(int(text[1:]))
        if text.startswith("R"):
            body = text[1:]
            if "%" in body:
                d, m = body.split("%")
                return cls.rel(int(d), mod=int(m))
            return cls.rel(int(body))
        if text.startswith("T"):
            table = {}
            for item in text[1:].split(","):
                r, v = item.split("=")
                table[int(r)] = int(v)
            return cls.from_table(table)
        raise ValueError(f"bad ParamExpr: {text!r}")

    def __repr__(self) -> str:
        return f"ParamExpr({self.serialize()})"


def _distinct(a: Iterable[int], b: Iterable[int], n: int) -> bool:
    """True if ``a`` and ``b`` hold ``n`` distinct ranks or more between
    them (read no further than that)."""
    seen = set()
    for r in itertools.chain(a, b):
        seen.add(r)
        if len(seen) >= n:
            return True
    return False
