"""Reference Algorithm 1 and 2 traversal: the scheduler as it matched
before its per-channel pending queues.

It keeps every send and receive ever posted, in one global posting order
(``gseq``), and resolves a lookup by scanning that whole history through
``_compatible``.  Peers are taken as world ranks and the communicator is
not compared, so it agrees with
:class:`~repro.generator.traversal.TraceScheduler` only on traces whose
point-to-point traffic stays on the world communicator.  It shares no
matching code with ``src``: the differential test
(``test_traversal_reference.py``) holds the production scheduler to it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import TraceDeadlockError, TraceError
from repro.mpi.hooks import COLLECTIVE_OPS, WAIT_OPS
from repro.scalatrace.rsd import ConcreteEvent, Trace, select_events
from repro.util.expr import ANY_SOURCE

ANY_TAG = -1


class _SendRec:
    __slots__ = ("gseq", "src", "dst", "tag", "event", "matched")

    def __init__(self, gseq, src, dst, tag, event):
        self.gseq = gseq
        self.src = src
        self.dst = dst
        self.tag = tag
        self.event = event
        self.matched = False


class _RecvRec:
    __slots__ = ("gseq", "rank", "src", "tag", "event", "matched",
                 "resolved_src")

    def __init__(self, gseq, rank, src, tag, event):
        self.gseq = gseq
        self.rank = rank
        self.src = src          # requested source (may be ANY_SOURCE)
        self.tag = tag
        self.event = event
        self.matched = False
        self.resolved_src: Optional[int] = None


class CollectiveInstance:
    """One logical collective operation: the k-th collective on a
    communicator, with every member's per-rank event."""

    __slots__ = ("comm_id", "seq", "op", "members", "canonical_callsite")

    def __init__(self, comm_id: int, seq: int, op: str):
        self.comm_id = comm_id
        self.seq = seq
        self.op = op
        self.members: Dict[int, ConcreteEvent] = {}
        self.canonical_callsite = None


class TraversalResult:
    """Everything the downstream passes need."""

    def __init__(self):
        #: (id(node), rank, instance) -> resolved source rank (world)
        self.resolutions: Dict[Tuple[int, int, int], int] = {}
        #: all collective instances, in completion order
        self.collectives: List[CollectiveInstance] = []
        #: (id(node), rank, instance) -> canonical callsite for collectives
        self.callsite_map: Dict[Tuple[int, int, int], object] = {}


class ReferenceScheduler:
    """Traverse a global trace on behalf of all ranks.

    ``block_p2p=False`` gives Algorithm 1 semantics: each rank's cursor
    walks its collective events only.  ``block_p2p=True`` walks every
    event and adds Algorithm 2's point-to-point interpretation and
    wildcard resolution.
    """

    def __init__(self, trace: Trace, block_p2p: bool):
        self.trace = trace
        self.block_p2p = block_p2p
        self.nranks = trace.world_size
        nodes = (None if block_p2p
                 else select_events(trace.nodes, COLLECTIVE_OPS))
        self._events: List[List[ConcreteEvent]] = [
            list(trace.iter_rank(r, nodes)) for r in range(self.nranks)]
        self._pos = [0] * self.nranks
        self._gseq = 0
        # matching state (Algorithm 2)
        self._sends_to: Dict[int, List[_SendRec]] = defaultdict(list)
        self._recvs_at: Dict[int, List[_RecvRec]] = defaultdict(list)
        self._outstanding: Dict[int, List[object]] = defaultdict(list)
        self._blocked_on: Dict[int, object] = {}
        # collective state
        self._coll_seq: Dict[Tuple[int, int], int] = defaultdict(int)
        self._coll: Dict[Tuple[int, int], CollectiveInstance] = {}
        self.result = TraversalResult()

    # -- public ------------------------------------------------------------
    def run(self) -> TraversalResult:
        iterations = 0
        alg = "resolve" if self.block_p2p else "align"
        with obs.span("generator.traversal", alg=alg, nranks=self.nranks):
            try:
                while True:
                    iterations += 1
                    progress = False
                    for rank in range(self.nranks):
                        if self._advance_rank(rank):
                            progress = True
                    if all(self._pos[r] >= len(self._events[r])
                           for r in range(self.nranks)):
                        self._check_unmatched()
                        return self.result
                    if not progress:
                        self._raise_deadlock()
            finally:
                obs.count("generator.scheduler_iterations", iterations)
                obs.count("generator.traversal_events",
                          sum(map(len, self._events)))

    # -- per-rank stepping ------------------------------------------------------
    def _advance_rank(self, rank: int) -> bool:
        made_progress = False
        while self._pos[rank] < len(self._events[rank]):
            ev = self._events[rank][self._pos[rank]]
            if not self._process(rank, ev):
                break
            self._pos[rank] += 1
            made_progress = True
        return made_progress

    def _process(self, rank: int, ev: ConcreteEvent) -> bool:
        """Interpret one event; return True if the cursor may advance."""
        op = ev.op
        if op in COLLECTIVE_OPS:
            return self._process_collective(rank, ev)
        if op == "Isend":
            self._post_send(rank, ev, blocking=False)
            return True
        if op == "Send":
            return self._post_send(rank, ev, blocking=True)
        if op == "Irecv":
            self._post_recv(rank, ev, blocking=False)
            return True
        if op == "Recv":
            return self._post_recv(rank, ev, blocking=True)
        if op in WAIT_OPS:
            return self._process_wait(rank, ev)
        # unknown / neutral events never block
        return True

    # -- point-to-point ------------------------------------------------------------
    def _post_send(self, rank: int, ev: ConcreteEvent, blocking: bool) -> bool:
        rec = self._blocked_on.get(rank)
        if isinstance(rec, _SendRec) and rec.event is ev:
            # re-checking a blocked send
            if rec.matched:
                del self._blocked_on[rank]
                return True
            return False
        rec = _SendRec(self._gseq, rank, int(ev.peer), ev.tag, ev)
        self._gseq += 1
        self._sends_to[rec.dst].append(rec)
        self._try_match_new_send(rec)
        if not blocking:
            self._outstanding[rank].append(rec)
            return True
        if rec.matched:
            return True
        self._blocked_on[rank] = rec
        return False

    def _post_recv(self, rank: int, ev: ConcreteEvent, blocking: bool) -> bool:
        rec = self._blocked_on.get(rank)
        if isinstance(rec, _RecvRec) and rec.event is ev:
            if rec.matched:
                del self._blocked_on[rank]
                return True
            return False
        src = ANY_SOURCE if ev.peer is None or ev.peer == ANY_SOURCE \
            else int(ev.peer)
        rec = _RecvRec(self._gseq, rank, src, ev.tag, ev)
        self._gseq += 1
        self._recvs_at[rank].append(rec)
        self._try_match_new_recv(rec)
        if not blocking:
            self._outstanding[rank].append(rec)
            return True
        if rec.matched:
            return True
        self._blocked_on[rank] = rec
        return False

    def _compatible(self, send: _SendRec, recv: _RecvRec) -> bool:
        if send.matched or recv.matched:
            return False
        if send.dst != recv.rank:
            return False
        if recv.src not in (ANY_SOURCE, send.src):
            return False
        if recv.tag not in (ANY_TAG, send.tag):
            return False
        return True

    def _commit(self, send: _SendRec, recv: _RecvRec) -> None:
        send.matched = True
        recv.matched = True
        recv.resolved_src = send.src
        if recv.src == ANY_SOURCE:
            key = (id(recv.event.node), recv.rank, recv.event.instance)
            self.result.resolutions[key] = send.src

    def _try_match_new_recv(self, recv: _RecvRec) -> None:
        if recv.src != ANY_SOURCE:
            # the send list is in traversal (gseq) order, so the first
            # compatible send is channel-FIFO correct
            for send in self._sends_to[recv.rank]:
                if self._compatible(send, recv):
                    self._commit(send, recv)
                    return
            return
        # wildcard: §4.4 allows any valid sender; among the currently
        # available candidates (channel heads) prefer the lowest rank,
        # which keeps the resolved pattern regular across iterations and
        # therefore compressible
        best = None
        for send in self._sends_to[recv.rank]:
            if self._compatible(send, recv):
                if best is None or send.src < best.src:
                    best = send
        if best is not None:
            self._commit(best, recv)

    def _try_match_new_send(self, send: _SendRec) -> None:
        # posted receives are consulted in their own posting order; the
        # send list being gseq-ordered keeps per-channel FIFO intact
        for recv in self._recvs_at[send.dst]:
            if self._compatible(send, recv):
                self._commit(send, recv)
                return

    def _process_wait(self, rank: int, ev: ConcreteEvent) -> bool:
        state = self._blocked_on.get(rank)
        if isinstance(state, tuple) and state[0] == "wait" \
                and state[1] is ev:
            recs = state[2]
        else:
            offsets = ev.wait_offsets or ()
            outstanding = self._outstanding[rank]
            for off in offsets:
                if off >= len(outstanding):
                    raise TraceError(
                        f"rank {rank}: wait offset {off} exceeds "
                        f"{len(outstanding)} outstanding ops")
            # snapshot before removal (offsets index the pre-wait list)
            recs = [outstanding[off] for off in offsets]
            for rec in recs:
                outstanding.remove(rec)
            self._blocked_on[rank] = ("wait", ev, recs)
        if all(r.matched for r in recs):
            del self._blocked_on[rank]
            return True
        return False

    # -- collectives ------------------------------------------------------------------
    def _process_collective(self, rank: int, ev: ConcreteEvent) -> bool:
        state = self._blocked_on.get(rank)
        if isinstance(state, CollectiveInstance) and \
                state.members.get(rank) is ev:
            if state.canonical_callsite is not None:
                del self._blocked_on[rank]
                return True
            return False
        members = self.trace.comm_ranks(ev.comm_id)
        seq = self._coll_seq[(rank, ev.comm_id)]
        self._coll_seq[(rank, ev.comm_id)] = seq + 1
        key = (ev.comm_id, seq)
        inst = self._coll.get(key)
        if inst is None:
            inst = CollectiveInstance(ev.comm_id, seq, ev.op)
            self._coll[key] = inst
        elif inst.op != ev.op:
            raise TraceError(
                f"collective mismatch on comm {ev.comm_id} (instance "
                f"{seq}): {inst.op} vs {ev.op} at rank {rank}")
        inst.members[rank] = ev
        if len(inst.members) == len(members):
            # all arrived: this is ONE logical collective; unify call sites
            lowest = min(inst.members)
            inst.canonical_callsite = inst.members[lowest].node.callsite
            for r, mev in inst.members.items():
                self.result.callsite_map[
                    (id(mev.node), r, mev.instance)] = \
                    inst.canonical_callsite
            self.result.collectives.append(inst)
            return True
        self._blocked_on[rank] = inst
        return False

    # -- failure reporting ------------------------------------------------------------
    def _describe_block(self, rank: int) -> str:
        state = self._blocked_on.get(rank)
        if isinstance(state, CollectiveInstance):
            members = self.trace.comm_ranks(state.comm_id)
            missing = [r for r in members if r not in state.members]
            return (f"collective {state.op} on comm {state.comm_id} "
                    f"awaiting ranks {missing}")
        if isinstance(state, _SendRec):
            return f"blocking Send to rank {state.dst} (unreceived)"
        if isinstance(state, _RecvRec):
            src = "ANY_SOURCE" if state.src == ANY_SOURCE else state.src
            return f"blocking Recv from {src} (no matching send)"
        if isinstance(state, tuple) and state and state[0] == "wait":
            pending = [r for r in state[2] if not r.matched]
            return f"wait on {len(pending)} unmatched requests"
        if self._pos[rank] >= len(self._events[rank]):
            return "finished"
        return "stuck"

    def _raise_deadlock(self) -> None:
        blocked = {r: self._describe_block(r) for r in range(self.nranks)
                   if self._pos[r] < len(self._events[r])}
        raise TraceDeadlockError(
            "trace traversal deadlocked — the application admits an "
            "execution that deadlocks (cf. paper Fig. 5): "
            + "; ".join(f"rank {r}: {d}" for r, d in sorted(blocked.items())),
            cycle=sorted(blocked))

    def _check_unmatched(self) -> None:
        if not self.block_p2p:
            return
        for dst, sends in self._sends_to.items():
            for s in sends:
                if not s.matched:
                    raise TraceError(
                        f"unmatched send from rank {s.src} to rank {dst} "
                        f"at end of trace")
        for rank, recvs in self._recvs_at.items():
            for r in recvs:
                if not r.matched:
                    raise TraceError(
                        f"unmatched receive at rank {rank} at end of trace")
