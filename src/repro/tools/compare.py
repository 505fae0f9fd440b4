"""Trace and profile comparison utilities.

§5.2's per-event check: two traces are *semantically equivalent* when
every rank's decompressed event stream matches on operation, communicator
membership, peers, sizes, tags, roots, and wait structure — ignoring the
call-stack signatures that always differ between an application and its
generated benchmark (hence the paper replays both traces through
ScalaReplay before comparing; our normalization achieves the same).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mpi.hooks import WAIT_OPS
from repro.scalatrace.rsd import Trace


#: bookkeeping events that generated benchmarks legitimately omit (their
#: communicators are static, §4.2), so equivalence ignores them
_BOOKKEEPING = frozenset({"Comm_split", "Comm_dup"})


def normalized_stream(trace: Trace, rank: int) -> List[tuple]:
    """Per-rank event stream with communicators canonicalized to their
    membership (ids differ across independently collected traces), the
    whole MPI_Wait family (Wait/Waitany/Waitsome) folded into MPI_Waitall
    — the generator emits one AWAITS statement for any of them — and
    communicator-management bookkeeping dropped."""
    out = []
    for ev in trace.iter_rank(rank):
        if ev.op in _BOOKKEEPING:
            continue
        op = "Waitall" if ev.op in WAIT_OPS else ev.op
        comm = tuple(trace.comm_ranks(ev.comm_id))
        out.append((op, comm, ev.peer, ev.size, ev.tag, ev.root,
                    ev.wait_offsets))
    return out


def traces_equivalent(a: Trace, b: Trace,
                      check_wildcards: bool = True) -> Tuple[bool, str]:
    """Semantic equivalence of two traces (per-event, per-rank).

    ``check_wildcards=False`` treats a wildcard receive as equal to any
    concrete-source receive with the same size/tag — useful when comparing
    an original trace against its Algorithm 2-resolved counterpart.
    """
    if a.world_size != b.world_size:
        return False, (f"world sizes differ: {a.world_size} vs "
                       f"{b.world_size}")
    from repro.util.expr import ANY_SOURCE

    for rank in range(a.world_size):
        sa = normalized_stream(a, rank)
        sb = normalized_stream(b, rank)
        if len(sa) != len(sb):
            return False, (f"rank {rank}: {len(sa)} vs {len(sb)} events")
        for i, (ea, eb) in enumerate(zip(sa, sb)):
            if ea == eb:
                continue
            if not check_wildcards:
                la, lb = list(ea), list(eb)
                if ANY_SOURCE in (la[2], lb[2]):
                    la[2] = lb[2] = None
                if la == lb:
                    continue
            return False, (f"rank {rank} event {i}: {ea} != {eb}")
    return True, "traces equivalent"


def total_recorded_time(trace: Trace) -> float:
    """Sum of all computation deltas recorded in the trace (all ranks)."""
    return sum((n.time.total for n in trace.iter_events()), 0.0)


def compression_ratio(trace: Trace) -> float:
    """Decompressed events per stored trace node."""
    nodes = trace.node_count()
    return trace.event_count() / nodes if nodes else 0.0
