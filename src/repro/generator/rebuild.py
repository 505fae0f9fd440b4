"""Re-trace a transformed event stream back into compressed form.

Algorithms 1 and 2 conceptually rewrite the trace (unified collective call
sites; resolved wildcard sources).  Both apply their outputs here, through
the paper's "append an RSD to the output queue, then compress" step: each
rank's stream is decompressed, substituted, and fed through the tracer's
on-the-fly compression and radix merge, then the merged trace is
recompressed globally.  That preserves the guarantees: one RSD per
collective, per-rank event order intact, output still compressed.

The work is done per *rank class*, not per rank.  ScalaTrace keeps a
trace near-constant in P (§3.1), so the substituted per-rank streams come
in a handful of shapes however many ranks there are (sweep3d 12, lu 6 at
any P).  One representative per class goes through the compression
queue.  Its folds depend only on the stream's shape: inside a per-rank
queue every parameter is a sequence, two sequences always concatenate,
and timing never decides a fold.  So a member's list is the
representative's structure with the member's rank set, its own parameter
values, and its own histograms, replayed from the adds and merges the
queue made (floating-point sums depend on that order).  Values and
deltas are read straight off the trace nodes; no member is expanded.

The pair merges keep the accumulator's binomial association order, and
:class:`~repro.scalatrace.merge.TraceMergeAccumulator` computes each
distinct pair alignment once per pair of partial shapes.  Rank-set
unions, parameter merges and histogram folds still run for every merge,
in the same order, so the bytes are those of rebuilding every rank
(``tests/generator/rebuild_oracle.py`` keeps that per-rank loop as the
differential tests' reference).  At most ``log2(P)+1`` partial merges
are live, plus one template per class.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.mpi.hooks import P2P_OPS, WAIT_OPS
from repro.scalatrace.compress import CompressionQueue, compress_node_list
from repro.scalatrace.merge import TraceMergeAccumulator
from repro.scalatrace.rsd import (EventNode, LoopNode, Node, ParamField, Trace,
                                  instance_deltas)
from repro.generator.traversal import TraversalResult
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

_PARAM_FIELDS = ("peer", "size", "tag", "root")


def rebuild_trace(trace: Trace, result: TraversalResult) -> Trace:
    """New compressed trace with the traversal's substitutions applied.

    Ranks are rebuilt without folding loops around collectives, so every
    rank presents its collectives at the same structural positions and
    the merge unifies them; resolved per-rank streams may otherwise fold
    differently (resolved sources differ) and split aligned collectives.
    The global recompression pass then restores the loop structure
    (§4.3's output-queue compression).
    """
    visited, classes = _rank_classes(trace, result)
    pending = Counter(classes)
    obs.count("generator.rank_classes", len(pending))
    reader = _Reader(trace, result)
    acc = TraceMergeAccumulator(trace.world_size, dict(trace.comm_table))
    templates: Dict[int, _Template] = {}
    # one span around the whole loop: the pair merges interleave with the
    # templates' recompression, and the span must enclose all of them
    with obs.span("scalatrace.merge", traces=trace.world_size):
        for rank, cls in enumerate(classes):
            template = templates.get(cls)
            if template is None:
                template = templates[cls] = _Template(
                    trace, result, visited[rank], rank)
            acc.add_nodes(template.instantiate(visited[rank], rank, reader))
            pending[cls] -= 1
            if not pending[cls]:
                del templates[cls]   # the class's last member is done
        rebuilt = acc.result()
    rebuilt.nodes = compress_node_list(rebuilt.nodes)
    return rebuilt


def _rank_classes(trace: Trace, result: TraversalResult
                  ) -> Tuple[List[List[Node]], List[int]]:
    """The trace nodes each rank visits (pre-order), and each rank's
    class id, numbered in order of first appearance.

    Two ranks share a class when their substituted event streams have
    the same shape (each event's
    :attr:`~repro.scalatrace.rsd.EventNode.shape`, the one rule for which
    events merge alike), so the compression queue folds them alike.  The
    key is read off the tree without expanding any event: the shape of
    every node the rank visits, in pre-order with loop ends marked, plus
    the canonical call sites Algorithm 1 gave the rank's collectives
    where they differ from the recorded ones.  Parameter values,
    resolved wildcard sources and timing are not shape; each member
    reads its own.
    """
    world = trace.world_size
    shapes: Dict[tuple, int] = {}
    keys: List[List[int]] = [[] for _ in range(world)]
    visited: List[List[Node]] = [[] for _ in range(world)]

    def walk(nodes: List[Node], scope: Optional[set]) -> None:
        for node in nodes:
            shape = (node.shape if isinstance(node, EventNode)
                     else ("loop", node.count))
            token = shapes.setdefault(shape, len(shapes))
            members = [r for r in node.ranks
                       if (r < world if scope is None else r in scope)]
            for r in members:
                visited[r].append(node)
                keys[r].append(token)
            if isinstance(node, LoopNode):
                walk(node.body, set(members))
                for r in members:
                    keys[r].append(-1)

    walk(trace.nodes, None)
    edits: Dict[int, list] = {}
    for (nid, rank, k), callsite in result.callsite_map.items():
        edits.setdefault(rank, []).append((nid, k, callsite))
    ids: Dict[tuple, int] = {}
    classes = []
    for rank in range(world):
        moved: frozenset = frozenset()
        if rank in edits:
            where = _positions(visited[rank])
            moved = frozenset(
                (where[nid], k, callsite) for nid, k, callsite in edits[rank]
                if callsite != visited[rank][where[nid]].callsite)
        classes.append(ids.setdefault((tuple(keys[rank]), moved), len(ids)))
    return visited, classes


def _positions(visited: List[Node]) -> Dict[int, int]:
    """id(node) -> its index in a rank's visited nodes."""
    return {id(node): p for p, node in enumerate(visited)}


class _Reader:
    """A rank's parameter values and timing deltas, read straight off
    the trace nodes (no per-rank expansion)."""

    def __init__(self, trace: Trace, result: TraversalResult):
        self.trace = trace
        self.resolutions = result.resolutions
        #: trace nodes with a resolved wildcard instance on some rank
        self.resolved = {nid for nid, _, _ in result.resolutions}
        #: id(node) -> (its instance_deltas, the ones drawn so far)
        self._deltas: Dict[int, Tuple[Iterator[float], List[float]]] = {}

    def deltas(self, node: EventNode, count: int) -> List[float]:
        """The node's first ``count`` instance deltas (the same on every
        rank it covers: ``Trace.iter_timed`` draws per node)."""
        found = self._deltas.get(id(node))
        if found is None:
            found = self._deltas[id(node)] = (instance_deltas(node), [])
        draws, out = found
        while len(out) < count:
            out.append(next(draws))
        return out

    def append(self, seq: ValueSeq, node: EventNode, name: str, rank: int,
               first: int, count: int) -> None:
        """Append ``rank``'s values of one parameter of ``node`` for
        ``count`` instances from ``first``, as ``Trace.iter_rank`` reads
        them (a resolved wildcard source replacing the recorded one)."""
        value, values = getattr(node, name).rank_values(
            self.trace.expr_rank(node.comm_id, rank))
        if name == "peer" and id(node) in self.resolved:
            for k in range(first, first + count):
                seq.append(self.resolutions.get(
                    (id(node), rank, k),
                    value if values is None else values[k]))
        elif values is None:
            seq.append(value, count)
        else:
            for k in range(first, first + count):
                seq.append(values[k])


class _History:
    """Stands in for a :class:`TimeHistogram` while a template is
    compressed: records the adds (as stream positions) and merges that
    build it, so :meth:`replay` rebuilds the histogram from any member's
    deltas with the same float sums in the same order."""

    __slots__ = ("count", "ops", "clock")

    def __init__(self, clock: list, count: int = 0, ops=()):
        #: shared [next stream position]: the queue adds each event's
        #: delta exactly once, in stream order
        self.clock = clock
        self.count = count
        self.ops: list = list(ops)

    def add(self, _t: float) -> None:
        self.ops.append(self.clock[0])
        self.clock[0] += 1
        self.count += 1

    def merge(self, other: "_History") -> None:
        if other.count:
            self.ops.append(tuple(other.ops))
            self.count += other.count

    def copy(self) -> "_History":
        return _History(self.clock, self.count, self.ops)

    @staticmethod
    def replay(ops, deltas: Tuple[float, ...]) -> TimeHistogram:
        hist = TimeHistogram()
        for op in ops:
            if isinstance(op, int):
                hist.add(deltas[op])
            else:
                hist.merge(_History.replay(op, deltas))
        return hist


class _TemplateQueue(CompressionQueue):
    """The rebuild's per-rank queue, with :class:`_History` timing."""

    def __init__(self, rank: int):
        super().__init__(rank, fold_collectives=False)
        self.clock = [0]

    def _make_event(self, *args, **kwargs) -> EventNode:
        node = super()._make_event(*args, **kwargs)
        node.time_first = _History(self.clock)
        node.time_first.add(0.0)
        node.time_rest = _History(self.clock)
        return node


class _Template:
    """One class's rebuilt structure, instantiated per member.

    The representative's substituted stream goes through the compression
    queue.  Each folded event then lists the stream positions it expands
    to, as ``[visited node index, first instance, count]`` runs; a member
    fills them from its own visited nodes.
    """

    def __init__(self, trace: Trace, result: TraversalResult,
                 visited: List[Node], rank: int):
        where = _positions(visited)
        queue = _TemplateQueue(rank)
        #: (visited node index, instance) of each stream position
        self.stream: List[Tuple[int, int]] = []
        for ev in trace.iter_rank(rank):
            node = ev.node
            key = (id(node), rank, ev.instance)
            kwargs = {}
            if ev.op in P2P_OPS:
                kwargs.update(peer=result.resolutions.get(key, ev.peer),
                              size=ev.size, tag=ev.tag)
            elif ev.op in WAIT_OPS:
                kwargs.update(wait_offsets=ev.wait_offsets)
            else:
                kwargs.update(size=ev.size, root=ev.root)
            queue.append_event(
                ev.op, result.callsite_map.get(key, node.callsite),
                ev.comm_id, **kwargs)
            self.stream.append((where[id(node)], ev.instance))
        self.nodes = queue.nodes
        # the queue added every delta once, in stream order (the timing
        # invariant of CompressionQueue), so positions index the stream
        assert queue.clock[0] == len(self.stream)
        #: visited node index -> how many of its instances are drawn
        self.needs: Dict[int, int] = {}
        for p, k in self.stream:
            self.needs[p] = max(self.needs.get(p, 0), k + 1)
        #: id(folded event) -> its stream runs
        self.runs: Dict[int, List[List[int]]] = {}
        for (p, k), slot in zip(self.stream, _event_slots(self.nodes)):
            runs = self.runs.setdefault(id(slot), [])
            if runs and runs[-1][0] == p and runs[-1][1] + runs[-1][2] == k:
                runs[-1][2] += 1
            else:
                runs.append([p, k, 1])
        #: the last member's deltas, and id(folded event) -> the
        #: histograms replayed from them: the next member shares them
        #: when its deltas are equal (nothing downstream mutates an input
        #: histogram); keeping only the last bounds the memory
        self.last: Tuple[tuple, Dict[int, tuple]] = ((), {})

    def instantiate(self, visited: List[Node], rank: int,
                    reader: _Reader) -> List[Node]:
        """The member ``rank``'s rebuilt list; ``visited`` are the trace
        nodes it visits, in the order the representative visits its."""
        drawn = {p: reader.deltas(visited[p], n)
                 for p, n in self.needs.items()}
        deltas = tuple(drawn[p][k] for p, k in self.stream)
        if deltas != self.last[0]:
            self.last = (deltas, {})
        hists = self.last[1]
        return self._copy(self.nodes, RankSet.single(rank), visited, rank,
                          reader, deltas, hists)

    def _copy(self, nodes: List[Node], ranks: RankSet, visited: List[Node],
              rank: int, reader: _Reader, deltas: Tuple[float, ...],
              hists: Dict[int, Tuple[TimeHistogram, TimeHistogram]]
              ) -> List[Node]:
        out: List[Node] = []
        for node in nodes:
            if isinstance(node, LoopNode):
                out.append(LoopNode(node.count, self._copy(
                    node.body, ranks, visited, rank, reader, deltas, hists),
                    ranks))
                continue
            timing = hists.get(id(node))
            if timing is None:
                timing = hists[id(node)] = (
                    _History.replay(node.time_first.ops, deltas),
                    _History.replay(node.time_rest.ops, deltas))
            runs = self.runs[id(node)]
            fields = []
            for name in _PARAM_FIELDS:
                if getattr(node, name) is None:
                    fields.append(None)
                    continue
                seq = ValueSeq()
                for p, first, count in runs:
                    reader.append(seq, visited[p], name, rank, first, count)
                fields.append(ParamField(seq=seq))
            out.append(EventNode(
                node.op, node.callsite, node.comm_id, ranks, node.instances,
                *fields, node.wait_offsets, *timing))
        return out


def _event_slots(nodes: List[Node]) -> Iterator[EventNode]:
    """The folded event each concrete event of a per-rank list expands
    from, in program order."""
    for node in nodes:
        if isinstance(node, EventNode):
            for _ in range(node.instances):
                yield node
        else:
            for _ in range(node.count):
                yield from _event_slots(node.body)
