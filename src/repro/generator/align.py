"""Algorithm 1 (§4.3): combining per-node collectives.

MPI allows the *same* logical collective to be issued from different
source lines on different ranks (Fig. 3's two MPI_Barrier calls inside a
rank conditional).  ScalaTrace distinguishes call sites, so such a
collective appears as several RSDs, each covering only part of the
communicator.  Generated code would then be unreadable — and its
participants impossible to express statically.

This pass detects the situation with a cheap O(r) scan (r = number of
RSDs, typically ≪ number of events), and only then runs the full
O(p·e) blocking traversal: every rank's cursor stops at each collective
until all members of the communicator arrive, the per-rank call sites are
unified to a single canonical one, and the trace is rebuilt — leaving one
RSD per logical collective, spanning the complete participant set.  The
rebuild (:mod:`repro.generator.rebuild`) recompresses one representative
per rank class, not every rank: a rank's canonical call sites are part
of its class key, everything else it needs is read off the trace.
"""

from __future__ import annotations

from repro import obs
from repro.generator.rebuild import rebuild_trace
from repro.generator.traversal import TraceScheduler
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import Trace


def needs_alignment(trace: Trace) -> bool:
    """O(r) pre-check (§4.3): is any collective RSD missing participants?

    A collective whose RSD covers only a subset of its communicator's
    members must have been recorded from multiple call sites.
    """
    for node in trace.iter_events():
        if node.op not in COLLECTIVE_OPS:
            continue
        members = set(trace.comm_ranks(node.comm_id))
        if set(node.ranks) != members:
            return True
    return False


def align_collectives(trace: Trace, force: bool = False) -> Trace:
    """Return a trace in which every logical collective is one RSD.

    Runs the blocking traversal only when the pre-check (or ``force``)
    says it is needed; otherwise returns the input unchanged.
    """
    if not force and not needs_alignment(trace):
        return trace
    with obs.span("generator.align"):
        result = TraceScheduler(trace, block_p2p=False).run()
        obs.count("generator.rsds_aligned", len(result.collectives))
        return rebuild_trace(trace, result)
