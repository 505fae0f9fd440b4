"""Reference rebuild: every rank through its own compression queue and
the unshared pair merge.

This is the per-rank loop that :func:`repro.generator.rebuild.rebuild_trace`
replaced with one template per rank class and shared pair alignments.
It keeps its own copy of the pre-change decompression and timed walk
(``Trace.iter_rank``/``iter_timed``), so a change to those cannot move
both sides of a differential test at once.  The differential tests hold
the production rebuild to byte-identical output.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.generator import align, wildcard
from repro.generator.traversal import TraversalResult
from repro.mpi.hooks import P2P_OPS, WAIT_OPS
from repro.scalatrace.compress import CompressionQueue, compress_node_list
from repro.scalatrace.merge import TraceMergeAccumulator
from repro.scalatrace.rsd import EventNode, Node, Trace
from tests.scalatrace.eager_merge import unshared_merge


class _UnsharedAccumulator(TraceMergeAccumulator):
    """The accumulator with every pair merge aligned afresh."""

    _merge = unshared_merge


def rebuild_trace(trace: Trace, result: TraversalResult) -> Trace:
    """The traversal's substitutions applied rank by rank."""
    acc = _UnsharedAccumulator(trace.world_size, dict(trace.comm_table))
    for rank in range(trace.world_size):
        acc.add_nodes(_rebuild_rank(trace, result, rank))
    rebuilt = acc.result()
    rebuilt.nodes = compress_node_list(rebuilt.nodes)
    return rebuilt


def _rebuild_rank(trace: Trace, result: TraversalResult,
                  rank: int) -> List[Node]:
    queue = CompressionQueue(rank, fold_collectives=False)
    for node, k, delta in _iter_timed(trace, rank):
        key = (id(node), rank, k)
        erank = trace.expr_rank(node.comm_id, rank)
        callsite = result.callsite_map.get(key, node.callsite)
        values = {name: None if getattr(node, name) is None
                  else getattr(node, name).value_at(erank, k)
                  for name in ("peer", "size", "tag", "root")}
        kwargs = {}
        if node.op in P2P_OPS:
            kwargs.update(peer=result.resolutions.get(key, values["peer"]),
                          size=values["size"], tag=values["tag"])
        elif node.op in WAIT_OPS:
            kwargs.update(wait_offsets=node.wait_offsets)
        else:
            kwargs.update(size=values["size"], root=values["root"])
        queue.append_event(node.op, callsite, node.comm_id, delta_t=delta,
                           **kwargs)
    return queue.nodes


def _iter_timed(trace: Trace, rank: int):
    """(event node, instance, delta) per event of ``rank``, drawing each
    delta the way the pre-change ``Trace.iter_timed`` did."""
    draws: Dict[tuple, Iterator[float]] = {}
    for node, k in _expand(trace.nodes, rank, {}):
        period = node.first_period()
        rest = bool(node.time_rest.count) and (
            period is None or k % period != 0)
        it = draws.get((id(node), rest))
        if it is None:
            hist = node.time_rest if rest else node.time_first
            it = draws[(id(node), rest)] = hist.replay_values()
        yield node, k, next(it)


def _expand(nodes: List[Node], rank: int, counters: Dict[int, int]):
    for node in nodes:
        if rank not in node.ranks:
            continue
        if isinstance(node, EventNode):
            for _ in range(node.instances):
                k = counters.get(id(node), 0)
                counters[id(node)] = k + 1
                yield node, k
        else:
            for _ in range(node.count):
                yield from _expand(node.body, rank, counters)


@contextmanager
def per_rank_rebuild():
    """Route Algorithms 1 and 2 through the reference rebuild."""
    saved = align.rebuild_trace, wildcard.rebuild_trace
    align.rebuild_trace = wildcard.rebuild_trace = rebuild_trace
    try:
        yield
    finally:
        align.rebuild_trace, wildcard.rebuild_trace = saved
