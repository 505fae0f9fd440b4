"""Algorithm 2 (§4.4): eliminating nondeterminism from wildcard receives.

``MPI_ANY_SOURCE`` receives make a benchmark's performance depend on which
message happens to arrive first — unacceptable for a measurement tool.
This pass rewrites every wildcard receive in the trace to an *arbitrary
but valid* concrete source: a sender that matches the receive under a
deterministic traversal of the trace, inside the receive's communicator
and in FIFO order per channel.  The paper's lists L1/L2 correspond to our
scheduler's pending send/receive records, kept per communicator and
destination; the source is written back as the sender's rank in that
communicator, the space the receive's peer field is written in.

The traversal interprets blocking semantics faithfully, so if the traced
application admits a deadlocking execution (Fig. 5), the traversal itself
wedges and a :class:`~repro.errors.TraceDeadlockError` reports the cycle —
the paper's *sufficient* deadlock detection (it examines this trace's
event ordering, not all interleavings, so it may miss deadlocks a
different execution would expose).
"""

from __future__ import annotations

from repro import obs
from repro.generator.rebuild import rebuild_trace
from repro.generator.traversal import TraceScheduler
from repro.scalatrace.rsd import Trace
from repro.util.expr import ANY_SOURCE


def has_wildcards(trace: Trace) -> bool:
    """O(r) pre-check (§4.4): does any receive use MPI_ANY_SOURCE?"""
    for node in trace.iter_events():
        if node.op not in ("Recv", "Irecv") or node.peer is None:
            continue
        field = node.peer
        if field.expr is not None:
            if field.expr.is_constant() and \
                    field.expr.constant_value() == ANY_SOURCE:
                return True
            if field.expr.kind == "table" and \
                    ANY_SOURCE in field.expr.table.values():
                return True
            continue
        seqs = [field.seq] if field.seq is not None \
            else field.rank_map.values()
        if any(v == ANY_SOURCE for seq in seqs for v, _ in seq.runs):
            return True
    return False


def resolve_wildcards(trace: Trace, force: bool = False) -> Trace:
    """Return a trace with every wildcard receive bound to a concrete,
    deterministically chosen source.  Raises
    :class:`~repro.errors.TraceDeadlockError` if the trace admits a
    deadlocking execution."""
    if not force and not has_wildcards(trace):
        return trace
    with obs.span("generator.resolve"):
        result = TraceScheduler(trace, block_p2p=True).run()
        obs.count("generator.wildcards_resolved", len(result.resolutions))
        return rebuild_trace(trace, result)
