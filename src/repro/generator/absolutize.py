"""Absolute-rank conversion (§4.2).

Applications address peers and roots in *communicator* ranks; a line that
appears to send to rank 3 may really target world rank 8.  To keep the
generated benchmark readable, every rank-valued parameter is re-expressed
in MPI_COMM_WORLD ("absolute") ranks before code is emitted.

Closed forms are preserved where the communicator layout permits: a ring
on an arithmetically regular sub-communicator re-infers to a world-space
expression; irregular layouts fall back to explicit per-rank tables, which
the emitter renders as per-task-group statements.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.scalatrace.rsd import EventNode, ParamField
from repro.util.expr import ANY_SOURCE, ParamExpr
from repro.util.valueseq import ValueSeq


def absolutize_rank_field(field: ParamField, node_ranks: Sequence[int],
                          comm_ranks: Tuple[int, ...],
                          world_size: int) -> ParamField:
    """Convert a communicator-rank-valued field to world ranks.

    ``node_ranks`` are the (world) ranks covered by the RSD; expressions
    are re-inferred over exactly those ranks.
    """
    identity = comm_ranks == tuple(range(world_size))

    def to_world(comm_value):
        if comm_value == ANY_SOURCE:
            return ANY_SOURCE
        return comm_ranks[comm_value]

    if field.seq is not None:
        if identity:
            return field
        mapped = ValueSeq.from_runs(
            [(to_world(v), c) for v, c in field.seq.runs])
        return ParamField(seq=mapped)
    index = {w: i for i, w in enumerate(comm_ranks)}
    if field.rank_map is not None:
        # re-key by world rank, map values to world ranks
        m = {}
        for w in node_ranks:
            s = field.rank_map[index[w]]
            m[w] = s if identity else ValueSeq.from_runs(
                [(to_world(v), c) for v, c in s.runs])
        return ParamField(rank_map=m)
    samples = []
    for w in node_ranks:
        comm_peer = field.expr.evaluate(index[w])
        samples.append((w, to_world(comm_peer)))
    if any(v == ANY_SOURCE for _, v in samples):
        # wildcards must survive absolutization verbatim
        if all(v == ANY_SOURCE for _, v in samples):
            return ParamField(expr=ParamExpr.const(ANY_SOURCE))
        return ParamField(expr=ParamExpr.from_table(dict(samples)))
    return ParamField(expr=ParamExpr.infer(samples, comm_size=world_size))


def absolutize_p2p(node: EventNode, comm_ranks: Tuple[int, ...],
                    world_size: int
                    ) -> Tuple[ParamField, Optional[ParamField],
                               Optional[ParamField]]:
    """A point-to-point node's peer, size and tag fields keyed by world
    rank.  The peer's values become world ranks too; size and tag keep
    theirs."""
    ranks = list(node.ranks)
    peer = absolutize_rank_field(node.peer, ranks, comm_ranks, world_size)
    if comm_ranks == tuple(range(world_size)):
        return peer, node.size, node.tag
    return (peer,) + tuple(None if field is None else
                           _rekey(field, ranks, comm_ranks)
                           for field in (node.size, node.tag))


def _rekey(field: ParamField, node_ranks: Sequence[int],
           comm_ranks: Tuple[int, ...]) -> ParamField:
    """``field`` keyed by world rank instead of communicator rank, its
    values unchanged."""
    if field.seq is not None or (field.expr is not None
                                 and field.expr.is_constant()):
        return field
    index = {w: i for i, w in enumerate(comm_ranks)}
    if field.rank_map is not None:
        return ParamField(rank_map={w: field.rank_map[index[w]]
                                    for w in node_ranks})
    return ParamField(expr=ParamExpr.from_table(
        {w: field.expr.evaluate(index[w]) for w in node_ranks}))


def absolutize_value(comm_value: int, comm_ranks: Tuple[int, ...]) -> int:
    if comm_value == ANY_SOURCE:
        return ANY_SOURCE
    return comm_ranks[comm_value]
