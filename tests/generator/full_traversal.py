"""Reference Algorithm 1 traversal over every rank's full event stream.

:class:`~repro.generator.traversal.TraceScheduler` built with
``block_p2p=False`` walks only each rank's collective events.  This is
the scheduler as it was before that: every event of every rank
decompressed, each value read per instance through
:meth:`~repro.scalatrace.rsd.ParamField.value_at`, and every
point-to-point event passed over without blocking.  It keeps its own
copy of that expansion, so a change to ``Trace.iter_rank`` cannot move
both sides of the differential test at once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.generator.traversal import TraceScheduler
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import ConcreteEvent, EventNode, Node, Trace


class FullStreamScheduler(TraceScheduler):
    """Algorithm 1 with every event of every rank on the cursors."""

    def __init__(self, trace: Trace):
        super().__init__(trace, block_p2p=False)
        self._events = [list(expand(trace, trace.nodes, r, {}))
                        for r in range(self.nranks)]

    def _process(self, rank: int, ev: ConcreteEvent) -> bool:
        if ev.op in COLLECTIVE_OPS:
            return self._process_collective(rank, ev)
        return True   # Algorithm 1 never blocks at a point-to-point event


def expand(trace: Trace, nodes: List[Node], rank: int,
           counters: Dict[int, int]) -> Iterator[ConcreteEvent]:
    """``rank``'s events, each value read per instance."""
    for node in nodes:
        if rank not in node.ranks:
            continue
        if isinstance(node, EventNode):
            erank = trace.comm_ranks(node.comm_id).index(rank)
            for _ in range(node.instances):
                k = counters.get(id(node), 0)
                counters[id(node)] = k + 1
                yield ConcreteEvent(
                    rank, node.op, node.comm_id,
                    *(None if field is None else field.value_at(erank, k)
                      for field in (node.peer, node.size, node.tag,
                                    node.root)),
                    node.wait_offsets, node, k)
        else:
            for _ in range(node.count):
                yield from expand(trace, node.body, rank, counters)
