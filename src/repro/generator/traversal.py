"""Cursor-based multi-rank trace traversal (the engine behind Algorithms
1 and 2 of the paper).

Both algorithms walk the compressed trace on behalf of every rank at once,
maintaining a *traversal context* per rank, blocking a rank's cursor when
its next event cannot yet be interpreted, and switching to another rank
that can make progress:

* **Algorithm 1** (§4.3, collective alignment) blocks only at collectives:
  a rank waits at a collective until every other member of the communicator
  has arrived at its own corresponding collective call, at which point all
  the per-rank call sites are identified as *one* logical operation.
  Nothing else can block or be blocked on, so its cursors walk only the
  collective events (:func:`~repro.scalatrace.rsd.select_events`),
  numbered as in the full stream.
* **Algorithm 2** (§4.4, wildcard resolution) additionally interprets
  point-to-point matching under MPI's rules: inside one communicator, in
  FIFO order per channel (source, destination, communicator, tag).  Each
  destination keeps its pending sends per source and its pending receives
  in posting order (the paper's lists L1 and L2); a record leaves its
  queue when it matches.  Every ``MPI_ANY_SOURCE`` receive is bound to
  the lowest source among the compatible channel heads, turning a
  nondeterministic program into an equivalent deterministic one.

An event that can block names what it waits on: a blocking send or
receive its one record, a wait the records at its offsets, a collective
its instance.  A cursor advances past it once all of those are done.

If the traversal reaches a state where no cursor can advance, the trace
admits an execution that deadlocks (the paper's Fig. 5 scenario) and a
:class:`~repro.errors.TraceDeadlockError` is raised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.errors import TraceDeadlockError, TraceError
from repro.mpi.hooks import COLLECTIVE_OPS, P2P_OPS, WAIT_OPS
from repro.scalatrace.rsd import ConcreteEvent, Trace, select_events
from repro.util.expr import ANY_SOURCE

ANY_TAG = -1


class _Post:
    """One posted send or receive, in world ranks; a receive's ``src``
    may be ``ANY_SOURCE``."""

    __slots__ = ("src", "dst", "tag", "event", "done")

    def __init__(self, src: int, dst: int, tag, event: ConcreteEvent):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.event = event
        self.done = False


class CollectiveInstance:
    """One logical collective operation: the k-th collective on a
    communicator, with every member's per-rank event."""

    __slots__ = ("comm_id", "seq", "op", "members", "canonical_callsite",
                 "done")

    def __init__(self, comm_id: int, seq: int, op: str):
        self.comm_id = comm_id
        self.seq = seq
        self.op = op
        self.members: Dict[int, ConcreteEvent] = {}
        self.canonical_callsite = None
        self.done = False


class TraversalResult:
    """Everything the downstream passes need."""

    def __init__(self):
        #: (id(node), rank, instance) -> the matched sender's rank in the
        #: receive's communicator (the space its peer field is written in)
        self.resolutions: Dict[Tuple[int, int, int], int] = {}
        #: all collective instances, in completion order
        self.collectives: List[CollectiveInstance] = []
        #: (id(node), rank, instance) -> canonical callsite for collectives
        self.callsite_map: Dict[Tuple[int, int, int], object] = {}


class TraceScheduler:
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
        #: rank -> what its blocked event waits on
        self._blocked_on: Dict[int, Sequence] = {}
        # matching state (Algorithm 2): (comm, world dst) -> its pending
        # sends by world source and its pending receives, in posting order
        self._boxes: Dict[Tuple[int, int],
                          Tuple[Dict[int, List[_Post]], List[_Post]]] = {}
        self._outstanding: Dict[int, List[_Post]] = defaultdict(list)
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
        """Move ``rank``'s cursor past every event whose waits are done;
        return True if it moved."""
        events = self._events[rank]
        start = pos = self._pos[rank]
        while pos < len(events):
            waits = self._blocked_on.pop(rank, None)
            if waits is None:
                waits = self._process(rank, events[pos])
            if waits and not all(w.done for w in waits):
                self._blocked_on[rank] = waits
                break
            pos += 1
        self._pos[rank] = pos
        return pos > start

    def _process(self, rank: int, ev: ConcreteEvent) -> Sequence:
        """Interpret one event; return what it waits on."""
        op = ev.op
        if op in COLLECTIVE_OPS:
            return self._process_collective(rank, ev)
        if op in P2P_OPS:
            rec = self._post(rank, ev)
            if op in ("Send", "Recv"):
                return (rec,)
            self._outstanding[rank].append(rec)
            return ()
        if op in WAIT_OPS:
            return self._process_wait(rank, ev)
        # unknown / neutral events never block
        return ()

    # -- point-to-point ------------------------------------------------------------
    def _box(self, comm_id: int, dst: int):
        box = self._boxes.get((comm_id, dst))
        if box is None:
            box = self._boxes[(comm_id, dst)] = ({}, [])
        return box

    def _post(self, rank: int, ev: ConcreteEvent) -> _Post:
        """Post a send or receive and match it against the pending
        records of its communicator and destination."""
        ranks = self.trace.comm_ranks(ev.comm_id)
        if ev.op in ("Send", "Isend"):
            rec = _Post(rank, ranks[int(ev.peer)], ev.tag, ev)
            sends, recvs = self._box(ev.comm_id, rec.dst)
            # posted receives are consulted in their own posting order
            for i, recv in enumerate(recvs):
                if recv.src in (ANY_SOURCE, rank) and \
                        recv.tag in (ANY_TAG, rec.tag):
                    del recvs[i]
                    self._commit(rec, recv)
                    return rec
            sends.setdefault(rank, []).append(rec)
            return rec
        src = ANY_SOURCE if ev.peer is None or ev.peer == ANY_SOURCE \
            else ranks[int(ev.peer)]
        rec = _Post(src, rank, ev.tag, ev)
        sends, recvs = self._box(ev.comm_id, rank)
        # wildcard: §4.4 allows any valid sender; among the compatible
        # channel heads prefer the lowest rank, which keeps the resolved
        # pattern regular across iterations and therefore compressible
        for s in (sorted(sends) if src == ANY_SOURCE else (src,)):
            queue = sends.get(s, ())
            for i, send in enumerate(queue):
                if rec.tag in (ANY_TAG, send.tag):
                    del queue[i]
                    if not queue:
                        del sends[s]
                    self._commit(send, rec)
                    return rec
        recvs.append(rec)
        return rec

    def _commit(self, send: _Post, recv: _Post) -> None:
        send.done = recv.done = True
        if recv.src == ANY_SOURCE:
            ev = recv.event
            self.result.resolutions[(id(ev.node), recv.dst, ev.instance)] = \
                self.trace.expr_rank(ev.comm_id, send.src)

    def _process_wait(self, rank: int, ev: ConcreteEvent) -> List[_Post]:
        offsets = ev.wait_offsets or ()
        outstanding = self._outstanding[rank]
        for off in offsets:
            if off >= len(outstanding):
                raise TraceError(
                    f"rank {rank}: wait offset {off} exceeds "
                    f"{len(outstanding)} outstanding ops")
        # offsets index the pre-wait list
        self._outstanding[rank] = [rec for i, rec in enumerate(outstanding)
                                   if i not in offsets]
        return [outstanding[off] for off in offsets]

    # -- collectives ------------------------------------------------------------------
    def _process_collective(self, rank: int, ev: ConcreteEvent
                            ) -> Tuple[CollectiveInstance]:
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
            inst.done = True
        return (inst,)

    # -- failure reporting ------------------------------------------------------------
    def _describe_block(self, rank: int) -> str:
        waits = self._blocked_on[rank]
        op = self._events[rank][self._pos[rank]].op
        if op in COLLECTIVE_OPS:
            (inst,) = waits
            members = self.trace.comm_ranks(inst.comm_id)
            missing = [r for r in members if r not in inst.members]
            return (f"collective {inst.op} on comm {inst.comm_id} "
                    f"awaiting ranks {missing}")
        if op == "Send":
            return f"blocking Send to rank {waits[0].dst} (unreceived)"
        if op == "Recv":
            src = waits[0].src
            return (f"blocking Recv from "
                    f"{'ANY_SOURCE' if src == ANY_SOURCE else src} "
                    f"(no matching send)")
        pending = [r for r in waits if not r.done]
        return f"wait on {len(pending)} unmatched requests"

    def _raise_deadlock(self) -> None:
        blocked = {r: self._describe_block(r) for r in range(self.nranks)
                   if self._pos[r] < len(self._events[r])}
        raise TraceDeadlockError(
            "trace traversal deadlocked — the application admits an "
            "execution that deadlocks (cf. paper Fig. 5): "
            + "; ".join(f"rank {r}: {d}" for r, d in sorted(blocked.items())),
            cycle=sorted(blocked))

    def _check_unmatched(self) -> None:
        for (_, dst), (sends, _) in self._boxes.items():
            for queue in sends.values():
                raise TraceError(
                    f"unmatched send from rank {queue[0].src} to rank "
                    f"{dst} at end of trace")
        for (_, dst), (_, recvs) in self._boxes.items():
            if recvs:
                raise TraceError(
                    f"unmatched receive at rank {dst} at end of trace")
