"""Run-length encoded parameter sequences.

An RSD can cover many loop iterations whose message size (or tag, or root)
varies from iteration to iteration.  ScalaTrace keeps such parameters
losslessly but compressed.  :class:`ValueSeq` is that container: an
append-only sequence of integers stored as (value, repeat) runs, supporting
equality, indexed access and serialization.  Loop compression extends a
sequence in place when it folds another iteration into a loop body
(:mod:`repro.scalatrace.compress`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple


class ValueSeq:
    """Immutable-by-convention RLE sequence of hashable values.

    Values are usually ints (peers, sizes, tags) but may be tuples for
    vector-collective size lists.  Use :meth:`append` only while building;
    treat as frozen once shared.
    """

    __slots__ = ("runs", "length")

    def __init__(self, values: Iterable = ()):
        self.runs: List[Tuple[object, int]] = []
        self.length = 0
        for v in values:
            self.append(v)

    @classmethod
    def constant(cls, value, count: int) -> "ValueSeq":
        s = cls()
        if count > 0:
            s.runs.append((value, int(count)))
            s.length = int(count)
        return s

    @classmethod
    def single(cls, value) -> "ValueSeq":
        """``constant(value, 1)``, built without the general path: the
        tracer makes one per parameter of every event node."""
        s = cls.__new__(cls)
        s.runs = [(value, 1)]
        s.length = 1
        return s

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, int]]) -> "ValueSeq":
        s = cls()
        for v, c in runs:
            if c <= 0:
                raise ValueError("run count must be positive")
            if s.runs and s.runs[-1][0] == v:
                pv, pc = s.runs[-1]
                s.runs[-1] = (pv, pc + c)
            else:
                s.runs.append((v, int(c)))
            s.length += c
        return s

    def append(self, value, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if self.runs and self.runs[-1][0] == value:
            v, c = self.runs[-1]
            self.runs[-1] = (v, c + count)
        else:
            self.runs.append((value, count))
        self.length += count

    def is_constant(self) -> bool:
        return len(self.runs) <= 1

    @property
    def value(self):
        """The single value of a constant sequence."""
        if not self.is_constant():
            raise ValueError("sequence is not constant")
        if not self.runs:
            raise ValueError("sequence is empty")
        return self.runs[0][0]

    def first(self) -> int:
        if not self.runs:
            raise ValueError("sequence is empty")
        return self.runs[0][0]

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        for v, c in self.runs:
            for _ in range(c):
                yield v

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self.length
        if not 0 <= i < self.length:
            raise IndexError(i)
        for v, c in self.runs:
            if i < c:
                return v
            i -= c
        raise AssertionError("unreachable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueSeq):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash(tuple(self.runs))

    def total(self) -> int:
        """Sum of all (integer) values; vector values sum element totals."""
        out = 0
        for v, c in self.runs:
            if isinstance(v, tuple):
                out += sum(v) * c
            else:
                out += v * c
        return out

    def copy(self) -> "ValueSeq":
        s = ValueSeq.__new__(ValueSeq)
        s.runs = list(self.runs)
        s.length = self.length
        return s

    @staticmethod
    def _render_value(v) -> str:
        if isinstance(v, tuple):
            return "(" + " ".join(str(x) for x in v) + ")"
        return str(v)

    @staticmethod
    def _parse_value(text: str):
        if text.startswith("("):
            inner = text[1:-1].strip()
            return tuple(int(x) for x in inner.split()) if inner else ()
        return int(text)

    def serialize(self) -> str:
        if not self.runs:
            return "-"
        return ",".join(
            self._render_value(v) if c == 1
            else f"{self._render_value(v)}x{c}"
            for v, c in self.runs
        )

    @classmethod
    def parse(cls, text: str) -> "ValueSeq":
        text = text.strip()
        s = cls()
        if not text or text == "-":
            return s
        if "(" not in text and ")" not in text:
            parts = text.split(",")
        else:
            # vector values: split on commas outside parentheses
            parts, depth, cur = [], 0, []
            for ch in text:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                if ch == "," and depth == 0:
                    parts.append("".join(cur))
                    cur = []
                else:
                    cur.append(ch)
            parts.append("".join(cur))
        for part in parts:
            part = part.strip()
            if part.startswith("("):
                close = part.rindex(")")
                value = cls._parse_value(part[:close + 1])
                rest = part[close + 1:]
                count = int(rest[1:]) if rest.startswith("x") else 1
            elif "x" in part:
                v_s, c_s = part.rsplit("x", 1)
                value, count = cls._parse_value(v_s), int(c_s)
            else:
                value, count = cls._parse_value(part), 1
            s.append(value, count)
        return s

    def __repr__(self) -> str:
        return f"ValueSeq({self.serialize()})"
