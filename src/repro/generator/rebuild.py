"""Re-trace a transformed event stream back into compressed form.

Algorithms 1 and 2 conceptually rewrite the trace (unified collective call
sites; resolved wildcard sources).  We apply their outputs by decompressing
each rank's stream, substituting, and feeding the result through the same
on-the-fly compression and radix merge the tracer uses — which is exactly
the paper's "append an RSD to the output queue, then compress" step and
preserves its guarantees: one RSD per collective, per-rank event order
intact, output still compressed.  As in the tracer, each rank's rebuilt
node list is fed to the streaming merge accumulator as soon as it is
complete, so at most ``log2(P)+1`` partial merges are live, never P
per-rank traces.
"""

from __future__ import annotations

from typing import Dict, List

from repro import obs
from repro.mpi.hooks import P2P_OPS, WAIT_OPS
from repro.scalatrace.compress import CompressionQueue
from repro.scalatrace.merge import TraceMergeAccumulator
from repro.scalatrace.rsd import Node, Trace
from repro.generator.traversal import TraversalResult


def rebuild_trace(trace: Trace, result: TraversalResult,
                  fold_collectives: bool = True) -> Trace:
    """New compressed trace with the traversal's substitutions applied.

    ``fold_collectives=False`` defers all loop folding around collectives
    to the caller's global recompression pass (Algorithm 1), so that every
    rank presents its collectives at the same structural positions.
    """
    acc = TraceMergeAccumulator(trace.world_size, dict(trace.comm_table))
    # one span around the whole loop: the pair merges interleave with the
    # per-rank recompression, and the span must still enclose all of them
    with obs.span("scalatrace.merge", traces=trace.world_size):
        for rank in range(trace.world_size):
            acc.add_nodes(_rebuild_rank(trace, result, rank,
                                        fold_collectives))
        return acc.result()


def _rebuild_rank(trace: Trace, result: TraversalResult, rank: int,
                  fold_collectives: bool) -> List[Node]:
    """One rank's compressed node list with the substitutions applied."""
    queue = CompressionQueue(rank, fold_collectives=fold_collectives)
    replay: Dict[tuple, object] = {}

    def draw(node, kind, hist):
        it = replay.get((id(node), kind))
        if it is None:
            it = hist.replay_values()
            replay[(id(node), kind)] = it
        return next(it)

    for ev in trace.iter_rank(rank):
        node = ev.node
        # path-aware timing: loop-entry-first instances draw from the
        # first-iteration histogram, the rest from the subsequent one
        period = node.first_period()
        if period is not None and ev.instance % period == 0:
            delta = draw(node, "first", node.time_first)
        elif node.time_rest.count:
            delta = draw(node, "rest", node.time_rest)
        else:
            delta = draw(node, "first", node.time_first)
        key = (id(node), rank, ev.instance)
        callsite = result.callsite_map.get(key, node.callsite)
        peer = result.resolutions.get(key, ev.peer)
        kwargs = {}
        if ev.op in P2P_OPS:
            kwargs.update(peer=peer, size=ev.size, tag=ev.tag)
        elif ev.op in WAIT_OPS:
            kwargs.update(wait_offsets=ev.wait_offsets)
        else:
            kwargs.update(size=ev.size, root=ev.root)
        queue.append_event(ev.op, callsite, ev.comm_id, delta_t=delta,
                           **kwargs)
    return queue.nodes
