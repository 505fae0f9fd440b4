"""The ScalaTrace PMPI hook: lossless, compressed communication tracing.

Attach a :class:`ScalaTraceHook` to :func:`repro.mpi.run_spmd` and, when
the run ends, read the merged global trace off ``hook.trace``::

    tracer = ScalaTraceHook()
    run_spmd(app, nranks=16, hooks=[tracer])
    trace = tracer.trace          # compressed, all ranks

The whole path is streaming and bounded-memory.  Per rank, events flow
straight through on-the-fly loop compression (raw events are never
retained; the live set is the compression window plus compressed
output); computation time (the gap since the previous MPI call on that
rank, §3.1) is folded into per-event histograms.  The moment a rank
calls ``Finalize`` its compressed node list is handed — in rank order —
to a :class:`~repro.scalatrace.merge.TraceMergeAccumulator` and the
rank's queue is dropped, so at any instant the tracer holds the
not-yet-finalized queues plus at most ``log2(P)+1`` partial merges,
never all P per-rank traces at once.  The merged result is
byte-identical to the collect-then-merge tracer this replaced.

A hook traces exactly one run: reattaching it raises unless
:meth:`ScalaTraceHook.reset` is called first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import TraceError
from repro.mpi.hooks import MPIEvent, MPIHook, WAIT_OPS
from repro.scalatrace.compress import (CompressionQueue, DecisionTable,
                                       DEFAULT_MAX_WINDOW)
from repro.scalatrace.merge import TraceMergeAccumulator
from repro.scalatrace.rsd import Node, Trace, count_nodes


def ingest_event(queue: CompressionQueue, last_end: Dict[int, float],
                 event: MPIEvent) -> None:
    """Feed one :class:`MPIEvent` into a compression queue.

    The single place the event→RSD parameter dispatch lives; the hook
    uses it per event, and test/benchmark harnesses that drive queues
    directly (without a :class:`~repro.mpi.world.World`) reuse it so
    their traces match the hook's byte-for-byte."""
    delta = event.t_start - last_end.get(event.rank, 0.0)
    last_end[event.rank] = event.t_end

    op = event.op
    peer = size = tag = root = None
    offsets = None
    if op in _P2P_OPS:
        peer = event.peer
        tag = event.tag
        size = event.nbytes
    elif op in WAIT_OPS:
        offsets = event.wait_offsets
    else:  # collectives (incl. Comm_split/Comm_dup/Finalize)
        size = event.nbytes
        if event.root is not None:
            root = event.root
    queue.append_event(op, event.callsite, event.comm.id, peer, size, tag,
                       root, offsets, delta)


_P2P_OPS = frozenset({"Send", "Isend", "Recv", "Irecv"})


class ScalaTraceHook(MPIHook):
    """Interposition hook producing a compressed global :class:`Trace`.

    Per rank: a :class:`~repro.scalatrace.compress.CompressionQueue`,
    the end time of the rank's last MPI call, and the queue's live-node
    count as last sampled.  Per hook, made fresh for each run: one
    :class:`~repro.scalatrace.compress.DecisionTable` all the rank
    queues share, so the compression rules run once per distinct
    rank-free queue state however many ranks reach it; the merge
    accumulator and the parked lists; and the counters.
    """

    def __init__(self, max_window: int = DEFAULT_MAX_WINDOW):
        self.max_window = max_window
        self.trace: Optional[Trace] = None
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self._queues: Dict[int, CompressionQueue] = {}
        #: the compression decisions every rank queue of this run shares
        self._table = DecisionTable()
        self._last_end: Dict[int, float] = {}
        self._acc = TraceMergeAccumulator()
        #: Ranks that finalized out of order, parked until every lower
        #: rank has been fed (the accumulator consumes in rank order so
        #: its association tree matches the pairwise reduction exactly).
        self._parked: Dict[int, List[Node]] = {}
        self._next_rank = 0
        self._finished = False
        #: Raw MPI events ingested (→ ``scalatrace.events_in``).
        self.events_in = 0
        #: Of those, the events the queues' replay cursors took without
        #: building a node per event (→ ``scalatrace.cursor_events``).
        self.cursor_events = 0
        #: High-water mark of live nodes across queues, parked lists and
        #: merge partials (→ ``scalatrace.nodes_live_peak``).  Sampled
        #: at rank-flush points, where the set peaks.
        self.nodes_live_peak = 0
        #: Live nodes of each rank not yet fed to the accumulator (its
        #: queue as last counted, or its parked list), their sum, and the
        #: ranks whose queue took events since; a sample recounts only
        #: the queues that changed.
        self._live: Dict[int, int] = {}
        self._live_total = 0
        self._changed: set = set()

    def reset(self) -> None:
        """Discard all run state (including ``trace``) so this hook can
        be attached to another :func:`~repro.mpi.world.run_spmd` run."""
        self.trace = None
        self._reset_run_state()

    def _guard(self) -> None:
        if self._finished:
            raise TraceError(
                "ScalaTraceHook already traced a run; call reset() before "
                "attaching it to another run_spmd")

    def on_event(self, event: MPIEvent) -> None:
        if self._finished:
            self._guard()
        rank = event.rank
        if rank < self._next_rank or rank in self._parked:
            raise TraceError(
                f"rank {rank} issued an MPI call after Finalize")
        queue = self._queues.get(rank)
        if queue is None:
            queue = CompressionQueue(rank, self.max_window,
                                     table=self._table)
            self._queues[rank] = queue
        comm = event.comm
        if comm.id not in self._acc.comm_table:
            self._acc.comm_table[comm.id] = comm.world_ranks
        self.events_in += 1
        ingest_event(queue, self._last_end, event)
        self._changed.add(rank)
        if event.op == "Finalize":
            self._flush_rank(rank)

    # -- streaming flush ----------------------------------------------------
    def _flush_rank(self, rank: int) -> None:
        """Materialize one rank's compressed nodes, drop its queue, and
        feed the accumulator once every lower rank has been fed."""
        queue = self._queues.pop(rank, None)
        self._last_end.pop(rank, None)
        self._changed.discard(rank)
        nodes = self._parked[rank] = queue.nodes if queue is not None else []
        self._set_live(rank, count_nodes(nodes))
        if queue is not None:
            self.cursor_events += queue.cursor_events
        self._sample_live()
        while self._next_rank in self._parked:
            self._acc.add_nodes(self._parked.pop(self._next_rank))
            self._live_total -= self._live.pop(self._next_rank)
            self._next_rank += 1

    def _set_live(self, rank: int, count: int) -> None:
        self._live_total += count - self._live.get(rank, 0)
        self._live[rank] = count

    def _sample_live(self) -> None:
        for rank in self._changed:
            self._set_live(rank, self._queues[rank].live_node_count())
        self._changed.clear()
        live = self._acc.live_node_count() + self._live_total
        if live > self.nodes_live_peak:
            self.nodes_live_peak = live

    # -- finalization -------------------------------------------------------
    def finalize_trace(self, world_size: int,
                       comm_table: Optional[Dict[int, Tuple[int, ...]]] = None
                       ) -> Trace:
        """Flush any not-yet-finalized ranks (crashed/salvaged runs),
        merge, and return the global trace.  ``comm_table``, when given
        (the registry's full table), replaces the event-derived one on
        the result — membership for any comm actually referenced by
        nodes is identical either way, so merge decisions don't change.

        Public so harnesses that drive :meth:`on_event` directly (e.g.
        ``benchmarks/bench_trace_scale.py``) can finish without a World.
        """
        self._guard()
        for rank in range(world_size):
            if rank >= self._next_rank and rank not in self._parked:
                self._flush_rank(rank)
        if self._parked:
            raise TraceError(
                f"traced ranks {sorted(self._parked)} are outside "
                f"world size {world_size}")
        self._finished = True
        obs.count("scalatrace.events_in", self.events_in)
        obs.count("scalatrace.cursor_events", self.cursor_events)
        table = self._table
        obs.count("scalatrace.shared_decisions", table.shared_decisions)
        obs.count("scalatrace.decisions_made", table.decisions_made)
        obs.count("scalatrace.shared_plans", table.shared_plans)
        obs.count("scalatrace.plans_made", table.plans_made)
        obs.count("scalatrace.nodes_live_peak", self.nodes_live_peak)
        self._acc.world_size = world_size
        with obs.span("scalatrace.merge", traces=world_size):
            trace = self._acc.result()
        if comm_table is not None:
            trace.comm_table = dict(comm_table)
        self.trace = trace
        return trace

    def on_run_end(self, world) -> None:
        comm_table = {c.id: c.world_ranks for c in world.registry.all_comms()}
        self.finalize_trace(world.size, comm_table)
