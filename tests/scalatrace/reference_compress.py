"""Reference compression queue: ScalaTrace's three rewrite rules, done
literally.

After every append the queue tries coalesce, absorb and fold on its tail
until none fires, exactly in the order and over the widths that
:class:`repro.scalatrace.compress.CompressionQueue` tries them.  Windows
are compared by a structural walk and merged by rebuilding: a merge
makes new nodes whose parameter sequences are the two copies' sequences
concatenated, and never changes the nodes it merges.  No fingerprints,
no prefix table, no in-place merge and no replay cursor.  The
differential tests hold the production queue to byte-identical output
against it.  It shares no merge code with the production module, whose
merges extend the surviving node in place.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.compress import DEFAULT_MAX_WINDOW
from repro.scalatrace.rsd import EventNode, LoopNode, Node, ParamField
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

_PARAM_FIELDS = ("peer", "size", "tag", "root")


def _concat(a: ValueSeq, ca: int, b: ValueSeq,
            cb: int) -> Optional[ValueSeq]:
    """``a``'s ``ca`` instances followed by ``b``'s ``cb``, or None when
    either sequence is empty.  A constant sequence stands for its value
    on every instance."""
    if not a.length or not b.length:
        return None
    out = ValueSeq()
    for seq, count in ((a, ca), (b, cb)):
        if seq.is_constant():
            out.append(seq.value, count)
        else:
            for value, c in seq.runs:
                out.append(value, c)
    return out


def _concat_fields(fa: ParamField, fb: ParamField, ca: int,
                   cb: int) -> Optional[ParamField]:
    """The field of ``fa``'s instances followed by ``fb``'s, or None when
    the two do not combine (different expressions or rank sets, an
    empty sequence, or different kinds)."""
    if fa.seq is not None and fb.seq is not None:
        seq = _concat(fa.seq, ca, fb.seq, cb)
        return None if seq is None else ParamField(seq=seq)
    if fa.expr is not None and fb.expr is not None and fa.expr == fb.expr:
        return ParamField(expr=fa.expr)
    if fa.rank_map is not None and fb.rank_map is not None \
            and set(fa.rank_map) == set(fb.rank_map):
        merged = {r: _concat(s, ca, fb.rank_map[r], cb)
                  for r, s in fa.rank_map.items()}
        if any(s is None for s in merged.values()):
            return None
        return ParamField(rank_map=merged)
    return None


def _merge_events(a: EventNode, b: EventNode,
                  separate_entries: bool) -> Optional[EventNode]:
    """A new node for all instances of ``a`` followed by all of ``b``, or
    None when they do not merge.  A node without a timing sample per rank
    has no instance count and never merges.  Consecutive iterations of
    one loop entry (``separate_entries=False``) turn ``b``'s first
    samples into subsequent ones; copies that were each their own loop
    entry keep both firsts."""
    nr = max(len(a.ranks), 1)
    ca, cb = a.sample_count() // nr, b.sample_count() // nr
    if not (ca and cb):
        return None
    merged = {}
    for name in _PARAM_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        if (fa is None) != (fb is None):
            return None
        if fa is not None:
            fa = _concat_fields(fa, fb, ca, cb)
            if fa is None:
                return None
        merged[name] = fa
    time_first = a.time_first.copy()
    time_rest = a.time_rest.copy()
    if separate_entries:
        time_first.merge(b.time_first)
    else:
        time_rest.merge(b.time_first)
    time_rest.merge(b.time_rest)
    return EventNode(a.op, a.callsite, a.comm_id, a.ranks, a.instances,
                     merged["peer"], merged["size"], merged["tag"],
                     merged["root"], a.wait_offsets, time_first, time_rest)


def _merge_sequence(xs: List[Node], ys: List[Node],
                    separate_entries: bool = False) -> Optional[List[Node]]:
    out = []
    for x, y in zip(xs, ys):
        if isinstance(x, EventNode):
            m = _merge_events(x, y, separate_entries)
        else:
            # copies of a nested loop are distinct entries of that loop
            inner = _merge_sequence(x.body, y.body, separate_entries=True)
            m = (LoopNode(x.count, inner, x.ranks)
                 if inner is not None and x.count == y.count else None)
        if m is None:
            return None
        out.append(m)
    return out


def _same_structure(x: Node, y: Node) -> bool:
    """The same call-site structure: parameters and timing may differ."""
    if x.ranks != y.ranks:
        return False
    if isinstance(x, EventNode):
        return isinstance(y, EventNode) and x.signature() == y.signature()
    return (isinstance(y, LoopNode) and x.count == y.count
            and _same_sequence(x.body, y.body))


def _same_sequence(xs: List[Node], ys: List[Node]) -> bool:
    return len(xs) == len(ys) and all(
        _same_structure(x, y) for x, y in zip(xs, ys))


def _has_collective(node: Node) -> bool:
    if isinstance(node, EventNode):
        return node.op in COLLECTIVE_OPS
    return any(_has_collective(n) for n in node.body)


class ReferenceQueue:
    """Drop-in for ``CompressionQueue`` (``append_event``,
    ``append_node``, ``nodes``) with the rules done literally."""

    def __init__(self, rank: int, max_window: int = DEFAULT_MAX_WINDOW,
                 fold_collectives: bool = True):
        self.ranks = RankSet.single(rank)
        self.max_window = max_window
        self.fold_collectives = fold_collectives
        self.nodes: List[Node] = []

    def append_event(self, op, callsite, comm_id, peer=None, size=None,
                     tag=None, root=None, wait_offsets=None,
                     delta_t: float = 0.0) -> None:
        time_first = TimeHistogram()
        time_first.add(max(delta_t, 0.0))

        def field(value):
            return None if value is None else ParamField.of(value)

        self.append_node(EventNode(
            op, callsite, comm_id, self.ranks, 1, field(peer), field(size),
            field(tag), field(root), wait_offsets, time_first))

    def append_node(self, node: Node) -> None:
        self.nodes.append(node)
        while self._coalesce() or self._absorb() or self._fold():
            pass

    def _foldable(self, nodes: List[Node]) -> bool:
        return self.fold_collectives or not any(
            _has_collective(n) for n in nodes)

    def _coalesce(self) -> bool:
        q = self.nodes
        if len(q) < 2:
            return False
        a, b = q[-2], q[-1]
        if not (isinstance(a, LoopNode) and isinstance(b, LoopNode)) \
                or a.ranks != b.ranks or not _same_sequence(a.body, b.body):
            return False
        body = _merge_sequence(a.body, b.body)
        if body is None:
            return False
        q[-2:] = [LoopNode(a.count + b.count, body, a.ranks)]
        return True

    def _absorb(self) -> bool:
        q = self.nodes
        for w in range(1, min(self.max_window, len(q) - 1) + 1):
            prev, tail = q[-w - 1], q[-w:]
            if not isinstance(prev, LoopNode) or len(prev.body) != w \
                    or not _same_sequence(prev.body, tail) \
                    or not self._foldable(tail):
                continue
            body = _merge_sequence(prev.body, tail)
            if body is None:
                continue
            q[-w - 1:] = [LoopNode(prev.count + 1, body, prev.ranks)]
            return True
        return False

    def _fold(self) -> bool:
        q = self.nodes
        for w in range(1, min(self.max_window, len(q) // 2) + 1):
            first, second = q[-2 * w:-w], q[-w:]
            if not _same_sequence(first, second) \
                    or not self._foldable(second):
                continue
            body = _merge_sequence(first, second)
            if body is None:
                continue
            ranks = first[0].ranks
            for node in first[1:]:
                ranks = ranks | node.ranks
            q[-2 * w:] = [LoopNode(2, body, ranks)]
            return True
        return False
