"""Reference compression queue: ScalaTrace's three rewrite rules, done
literally.

After every append the queue tries coalesce, absorb and fold on its tail
until none fires, exactly in the order and over the widths that
:class:`repro.scalatrace.compress.CompressionQueue` tries them.  Windows
are compared by a structural walk and merged by ``_merge_sequence``
only: no fingerprints, no prefix table, no in-place merge and no replay
cursor.  The differential tests hold the production queue to
byte-identical output against it.  Only ``_merge_sequence`` (the rules'
definition of a merged node) is shared with the production module.
"""

from __future__ import annotations

from typing import List

from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.compress import DEFAULT_MAX_WINDOW, _merge_sequence
from repro.scalatrace.rsd import EventNode, LoopNode, Node, ParamField
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet


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
