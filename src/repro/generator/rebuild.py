"""Re-trace a transformed event stream back into compressed form.

Algorithms 1 and 2 conceptually rewrite the trace (unified collective call
sites; resolved wildcard sources).  Both apply their outputs here, through
the paper's "append an RSD to the output queue, then compress" step: each
rank's stream is decompressed, substituted, and fed through the tracer's
on-the-fly compression and radix merge, then the merged trace is
recompressed globally.  That preserves the guarantees: one RSD per
collective, per-rank event order intact, output still compressed.  As in
the tracer, each rank's rebuilt node list is fed to the streaming merge
accumulator as soon as it is complete, so at most ``log2(P)+1`` partial
merges are live, never P per-rank traces.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.mpi.hooks import P2P_OPS, WAIT_OPS
from repro.scalatrace.compress import CompressionQueue, compress_node_list
from repro.scalatrace.merge import TraceMergeAccumulator
from repro.scalatrace.rsd import Node, Trace
from repro.generator.traversal import TraversalResult


def rebuild_trace(trace: Trace, result: TraversalResult) -> Trace:
    """New compressed trace with the traversal's substitutions applied.

    Ranks are rebuilt without folding loops around collectives, so every
    rank presents its collectives at the same structural positions and
    the merge unifies them; resolved per-rank streams may otherwise fold
    differently (resolved sources differ) and split aligned collectives.
    The global recompression pass then restores the loop structure
    (§4.3's output-queue compression).
    """
    acc = TraceMergeAccumulator(trace.world_size, dict(trace.comm_table))
    # one span around the whole loop: the pair merges interleave with the
    # per-rank recompression, and the span must still enclose all of them
    with obs.span("scalatrace.merge", traces=trace.world_size):
        for rank in range(trace.world_size):
            acc.add_nodes(_rebuild_rank(trace, result, rank))
        rebuilt = acc.result()
    rebuilt.nodes = compress_node_list(rebuilt.nodes)
    return rebuilt


def _rebuild_rank(trace: Trace, result: TraversalResult,
                  rank: int) -> List[Node]:
    """One rank's compressed node list with the substitutions applied."""
    queue = CompressionQueue(rank, fold_collectives=False)
    for ev, delta in trace.iter_timed(rank):
        node = ev.node
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
