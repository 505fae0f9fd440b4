"""Reference executor: the one-op-at-a-time main loop that
:func:`repro.sim.exec_batch.run_batch` must stay bit-identical to.

The oracle keeps its own code for everything the production executor
inlines or accelerates: an ``isinstance`` op dispatch, one op per
frame; a ready-heap pop (``Scheduler.pop_ready_policy`` under a
non-canonical policy); and a drain that scans every candidate channel,
with no candidate heaps or deferral memo, lets the policy pick a
horizon-safe wildcard's candidate (under the canonical policy, the
canonical minimum) and commits through its own arithmetic.  It shares
with production the ``MatchIndex`` queues, the policy pop, the generic
send ``Engine._apply_send`` and the resume, relaxed-progress, crash and
deadlock helpers.
:func:`reference_loop` swaps it in for the engine's executor, so any
entry point can run against the oracle; it records no ``--profile``
phases.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from types import MethodType

from repro.errors import MPIUsageError, SimulationError
from repro.sim import engine as production
from repro.sim.exec_batch import _CollInstance
from repro.sim.matching import _PendingRecv, arrival_est
from repro.sim.ops import (ANY_SOURCE, Collective, Compute, PostRecv,
                           PostSend, Test, WaitAll, WaitAny)
from repro.sim.requests import Request, Status
from repro.sim.sched import BLOCKED, DONE, READY

#: parametrisation ids for suites that run under both loops: ``scalar``
#: is this reference loop, ``batch`` the production cohort loop
LOOPS = ("scalar", "batch")

#: what :func:`_apply` returns when the rank blocks
_BLOCK = object()


def run_reference(eng) -> None:
    """Drive ``eng`` to completion one generator op at a time."""
    eng._drain = MethodType(_drain, eng)
    sched = eng._sched
    if eng.policy.canonical:
        def pop():
            # smallest-(clock, rank) READY rank; an entry is stale once
            # its rank was stepped or re-queued at a later clock
            while sched.ready_heap:
                clock, rank = heapq.heappop(sched.ready_heap)
                rs = sched.ranks[rank]
                if rs.state == READY and rs.clock == clock:
                    return rs
            return None
    else:
        def pop():
            return sched.pop_ready_policy(eng.policy)
    while True:
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        if eng._deferred_dsts:
            for dst in sorted(eng._deferred_dsts):
                eng._deferred_dsts.discard(dst)
                eng._drain(dst, relaxed=False)
        if eng._dirty:
            _resume_dirty(eng)
        rs = pop()
        if rs is not None:
            _step(eng, rs)
            continue
        if eng._done_count == eng.nranks:
            break
        # everyone blocked: try relaxed matching / resumption
        eng.deadlock_checks += 1
        if eng._relaxed_progress():
            continue
        if eng.crashed_ranks:
            eng._starve_blocked()
            break
        eng._raise_deadlock()


def _step(eng, rs) -> None:
    """Run ``rs`` until it blocks, finishes or crashes."""
    value = rs.pending_value
    rs.pending_value = None
    while True:
        if eng._crash_at is not None and rs.clock >= eng._crash_at[rs.rank]:
            eng._crash_rank(rs)
            return
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        try:
            op = rs.gen.send(value)
        except StopIteration:
            rs.state = DONE
            eng._done_count += 1
            eng._on_rank_done(rs)
            return
        value = _apply(eng, rs, op)
        if value is _BLOCK:
            rs.state = BLOCKED
            return


def _resume_dirty(eng) -> None:
    """Wake blocked ranks flagged by completions since the last pass.

    A WaitAny rank holding a complete request stays dirty even when it
    cannot resume yet: it waits on the safety horizon, which moves
    whenever another rank advances, so it must be polled.  Every other
    rank leaves the dirty set until a new completion re-flags it.
    """
    for rank in sorted(eng._dirty):
        rs = eng._ranks[rank]
        if rs.state != BLOCKED:
            eng._dirty.discard(rank)
            continue
        if eng._try_resume(rs, relaxed=False):
            eng._dirty.discard(rank)
        elif not (rs.blocked_kind == "waitany"
                  and any(r.complete for r in rs.blocked_data)):
            eng._dirty.discard(rank)


# -- one op ------------------------------------------------------------------
def _apply(eng, rs, op):
    """Step one op: its result for the generator, or :data:`_BLOCK`."""
    if isinstance(op, Compute):
        if eng._faults is not None:
            rs.clock += op.duration * eng._faults.compute_factor(rs.rank)
        else:
            rs.clock += op.duration
        return None
    if isinstance(op, PostSend):
        return eng._apply_send(rs, op)
    if isinstance(op, PostRecv):
        return _apply_recv(eng, rs, op)
    if isinstance(op, (WaitAll, WaitAny)):
        waitall = isinstance(op, WaitAll)
        done = (eng._try_waitall if waitall else eng._try_waitany)(
            rs, op.requests, relaxed=False)
        if done is not None:
            return done
        rs.blocked_kind = "waitall" if waitall else "waitany"
        rs.blocked_data = op.requests
        # route later completions to this rank; a WaitAny already holding
        # a complete request waits on the horizon, so it stays dirty
        any_complete = False
        for req in op.requests:
            if req.complete:
                any_complete = True
            else:
                req.waiter = rs.rank
        if any_complete and not waitall:
            eng._dirty.add(rs.rank)
        return _BLOCK
    if isinstance(op, Test):
        # a test succeeds only if the operation has completed by the
        # rank's current virtual time and never advances the clock
        req = op.request
        if req.complete and req.completion <= rs.clock:
            return (True, req.status)
        return (False, None)
    if isinstance(op, Collective):
        return _apply_collective(eng, rs, op)
    raise MPIUsageError(f"rank {rs.rank} yielded non-op {op!r}")


def _apply_recv(eng, rs, op):
    if op.src != ANY_SOURCE and op.src >= eng.nranks:
        raise MPIUsageError(
            f"rank {rs.rank} receives from nonexistent rank {op.src}")
    req = Request("recv", rs.rank)
    req.peer = op.src
    pr = _PendingRecv(eng._pr_seq, rs.rank, op.src, op.tag, op.comm_id,
                      rs.clock, req)
    eng._pr_seq += 1
    eng._match.add_recv(pr)
    eng._drain(rs.rank, relaxed=False)
    return req


def _apply_collective(eng, rs, op):
    if rs.rank not in op.group:
        raise MPIUsageError(
            f"rank {rs.rank} called collective on group excluding it")
    seq = rs.coll_seq.get(op.comm_id, 0)
    rs.coll_seq[op.comm_id] = seq + 1
    key = (op.comm_id, seq)
    inst = eng._coll.get(key)
    if inst is None:
        inst = _CollInstance(op.key, op.group, op.nbytes)
        eng._coll[key] = inst
    else:
        if inst.group != op.group or inst.key != op.key:
            raise MPIUsageError(
                f"collective mismatch on comm {op.comm_id} seq {seq}: "
                f"{inst.key}/{inst.group} vs {op.key}/{op.group}")
        inst.nbytes = max(inst.nbytes, op.nbytes)
    inst.arrivals[rs.rank] = rs.clock
    if len(inst.arrivals) == len(inst.group):
        start = max(inst.arrivals.values())
        inst.completion = start + eng.model.collective_cost(
            inst.key, len(inst.group), inst.nbytes)
        # the caller resumes immediately; blocked participants are woken
        # through the dirty set on the next scheduler pass
        for r in inst.arrivals:
            if r != rs.rank:
                eng._dirty.add(r)
        rs.clock = inst.completion
        return None
    rs.blocked_kind = "collective"
    rs.blocked_data = inst
    return _BLOCK


# -- matching ----------------------------------------------------------------
def _drain(eng, dst: int, relaxed: bool) -> bool:
    """Full-scan drain, bound as ``Engine._drain``: a wildcard waits
    until its earliest candidate is horizon-safe, then the policy picks
    its candidate; a wildcard that cannot match freezes its comm."""
    m = eng._match
    any_progress = False
    frozen_comms: set = set()
    it, _ = m.drain_buckets(dst)
    for pr in it:
        if pr.matched or pr.comm_id in frozen_comms:
            continue
        if pr.src == ANY_SOURCE:
            cands = m.candidates_for(pr)
            if not cands:
                frozen_comms.add(pr.comm_id)
                continue
            if not relaxed:
                arr = min(arrival_est(msg, pr.post_time) for msg in cands)
                if arr > eng._horizon(dst):
                    eng._deferred_dsts.add(dst)
                    frozen_comms.add(pr.comm_id)
                    continue
            if len(cands) == 1:
                msg = cands[0]
            else:
                msg = eng.policy.choose_match(pr, cands)
        else:
            msg = m.first_compatible_in_channel(
                (pr.src, dst, pr.comm_id), pr.tag)
            if msg is None:
                continue
        _commit(eng, pr, msg)
        any_progress = True
    return any_progress


def _commit(eng, pr, msg) -> None:
    eng.matches_committed += 1
    model = eng.model
    arrival = arrival_est(msg, pr.post_time)
    # message processing starts when the data is here, the receive is
    # posted, and the receiver's (serial) message processor is free
    completion = max(pr.post_time, arrival, eng._rx_busy[pr.rank])
    if msg.protocol == "eager" and arrival < pr.post_time:
        completion += model.unexpected_copy(msg.nbytes)
    completion += model.recv_overhead(msg.nbytes)
    eng._rx_busy[pr.rank] = completion
    pr.rreq.completion = completion
    pr.rreq.status = Status(msg.src, msg.tag, msg.nbytes)
    pr.rreq.message = msg
    if pr.rreq.waiter is not None:
        eng._dirty.add(pr.rreq.waiter)
    # sender-side completion for rendezvous / throttled sends
    if msg.sreq.completion is None:
        msg.sreq.completion = completion
        msg.sreq.status = Status(msg.src, msg.tag, msg.nbytes)
        if msg.sreq.waiter is not None:
            eng._dirty.add(msg.sreq.waiter)
    m = eng._match
    if msg.charged:
        m.unexpected_bytes[msg.dst] -= msg.nbytes
    m.retire_message(msg)
    m.retire_recv(pr)


@contextmanager
def reference_loop():
    """Run every engine in the block on :func:`run_reference`."""
    saved = production.run_batch
    production.run_batch = run_reference
    try:
        yield
    finally:
        production.run_batch = saved


@contextmanager
def executor(name: str):
    """Enter the executor named by a :data:`LOOPS` id."""
    if name == "scalar":
        with reference_loop():
            yield
    else:
        yield
