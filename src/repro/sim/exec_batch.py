"""Execution layer of the engine core: the cohort-batched main loop.

:func:`run_batch` is the simulator's only main loop.  Each pass polls
the deferred drains and the dirty set, picks the next runnable rank
(through the schedule policy when it is not canonical), and advances
that rank's *op cohort* — the run of operations it issues before
blocking — in one frame:

* class-identity dispatch on the concrete op classes with every hot
  container and model query bound to a local (any other yielded value
  is an :class:`~repro.errors.MPIUsageError`);
* the send is inline and is the engine's only send: it caches each
  message's fixed arrival estimate for the matching layer, and its
  optional stages are engine helpers bound to locals once per run — the
  receiver-stack leaky bucket, an eager message's fixed arrival (the
  routed fold, or the flat fabric's serial ejection wire with its
  backlog stall) and, under a fault plan, ``Engine._send_fault``;
* collective completion evaluates ``max`` over the whole
  ``_CollInstance`` arrival cohort at once;
* :func:`wait_value` is the engine's only wait rule, one clause per
  blocked kind (waitall, waitany, collective).  A ``WaitAll`` or
  ``WaitAny`` op calls it when issued, the dirty-set wakeup calls it
  for every flagged rank, and the all-blocked relaxed sweep calls it
  without the safety horizon; every resume goes through one push onto
  the ready queues;
* crash faults are checked per op, before the op is stepped, so a rank
  stops at the first op it would start at or past its crash time;
* ``--profile`` attributes wall time to the schedule / match / execute
  / fabric phases with timers at cohort boundaries, bound only when the
  engine profiles.

Byte-identity discipline: every float operation happens in the same
order as a one-op-at-a-time loop would run it, and counters (``steps``
etc.) are bumped at the same program points.  Every drain, canonical or
not, is :func:`repro.sim.matching.drain_batch`.  The golden suites under
``tests/sim/golden/`` and the Hypothesis equivalence tests pin this
bit-for-bit against the test-only ``tests/sim/reference_loop.py``,
which has its own dispatch, drain, send, waits and relaxed sweep.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Optional

from repro.errors import MPIUsageError, SimulationError
from repro.sim.matching import _Message, _PendingRecv
from repro.sim.network import FlatFabric, NetworkModel
from repro.sim.ops import (ANY_SOURCE, Collective, Compute, PostRecv,
                           PostSend, Test, WaitAll, WaitAny)
from repro.sim.requests import Request
from repro.sim.sched import BLOCKED, DONE, READY


class _CollInstance:
    __slots__ = ("key", "group", "nbytes", "arrivals", "completion",
                 "nleft")

    def __init__(self, key, group, nbytes):
        self.key = key
        self.group = group
        self.nbytes = nbytes
        self.arrivals: Dict[int, float] = {}
        self.completion: Optional[float] = None
        #: countdown of group members yet to arrive: the executor
        #: decrements it per arrival and completes the instance at zero
        self.nleft = len(group)


def _timed(fn, phase: str, acc: Dict[str, float], nested: list):
    """``fn`` wrapped to add its wall time to ``acc[phase]`` and to
    ``nested[0]``, which the enclosing phase timer subtracts."""
    perf = time.perf_counter

    def timed(*args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            acc[phase] += dt
            nested[0] += dt
    return timed


#: :func:`wait_value` results for a rank that cannot resume (its clock
#: untouched).  BLOCK: a completion it waits on is still unknown, and
#: that completion flags it dirty.  HELD: a waitany's earliest complete
#: request is past the safety horizon, which moves as other ranks run,
#: so the rank stays in the dirty set and is polled every pass.
BLOCK = object()
HELD = object()


def wait_value(rs, kind: str, data, relaxed: bool, horizon):
    """The engine's one wait rule: the value rank ``rs``, blocked in a
    ``kind`` wait on ``data``, resumes with, its clock moved to the wake
    time; :data:`BLOCK` or :data:`HELD` while it cannot resume.

    * ``"waitall"`` (``data``: the requests): every request is complete;
      the clock moves to the latest completion; the value is the
      statuses.
    * ``"waitany"`` (the requests): the earliest complete request wins
      if every request is complete, the pass is ``relaxed`` (every rank
      is blocked) or it completes within ``horizon(rank)``, before any
      other rank could complete an earlier one; the clock moves to its
      completion; the value is ``(index, status)``.
    * ``"collective"`` (the ``_CollInstance``): the instance has a
      completion time; the clock moves to it; the value is None.
    """
    if kind == "waitall":
        for q in data:
            if q.completion is None:
                return BLOCK
        if data:
            mx = max(q.completion for q in data)
            if mx > rs.clock:
                rs.clock = mx
        return [q.status for q in data]
    if kind == "waitany":
        done = [(q.completion, i) for i, q in enumerate(data)
                if q.completion is not None]
        if not done:
            return BLOCK
        t, i = min(done)
        if not relaxed and len(done) != len(data) and \
                t > horizon(rs.rank):
            return HELD
        if t > rs.clock:
            rs.clock = t
        return (i, data[i].status)
    comp = data.completion
    if comp is None:
        return BLOCK
    rs.clock = comp
    return None


def run_batch(eng) -> None:
    """Drive ``eng`` (an :class:`repro.sim.engine.Engine`) to completion
    with the cohort-batched executor.  Caller holds the run span and
    flushes counters; this function owns the loop."""
    ranks = eng._ranks
    nranks = eng.nranks
    sched = eng._sched
    ready = sched.ready_heap
    dirty = sched.dirty
    dirty_add = dirty.add
    dirty_discard = dirty.discard
    deferred = sched.deferred_dsts
    heappush = heapq.heappush
    heappop = heapq.heappop
    max_steps = eng.max_steps
    # int sentinel instead of +inf keeps the per-op limit check an
    # int/int compare; no run gets anywhere near 2**62 steps
    step_limit = max_steps if max_steps is not None else (1 << 62)
    faults = eng._faults
    no_faults = faults is None
    # per-rank crash times, None unless a crash plan is active: the only
    # per-op cost of crash support is this local's `is not None` test
    crash_at = eng._crash_at

    # --profile: match and fabric time wrap the engine's drain and
    # routed fold (before the drain is bound to a local below); schedule
    # and execute are timed at cohort boundaries, each net of the
    # nested match/fabric time
    profile = eng.profile
    if profile:
        perf = time.perf_counter
        acc = eng.profile_phases = {"schedule": 0.0, "match": 0.0,
                                    "execute": 0.0, "fabric": 0.0}
        nested = [0.0]
        eng._drain = _timed(eng._drain, "match", acc, nested)
        eng._routed_arrival = _timed(eng._routed_arrival, "fabric", acc,
                                     nested)
    t_poll = 0.0
    t_cohort = None

    model = eng.model
    match = eng._match
    drain = eng._drain
    # deferral-memo fast path, inlined from the top of drain_batch: a
    # valid memo still past the horizon means the drain would be a
    # no-op re-defer, so skip the call outright
    defer_memo = match.defer_memo
    defer_version = match.defer_version
    horizon = eng._horizon
    deferred_add = deferred.add
    add_message = match.add_message
    add_recv = match.add_recv
    has_recv = match.has_compatible_recv
    unexpected = match.unexpected_bytes
    send_overhead = model.send_overhead
    stall_penalty = model.stall_penalty
    transit = model.transit_time
    coll_cost = model.collective_cost
    eager_threshold = model.eager_threshold
    unexpected_capacity = model.unexpected_capacity
    min_latency = eng._min_latency
    colls = eng._coll

    # the send's optional stages, bound once per run: the receiver-stack
    # leaky bucket, the fixed arrival of an eager message (the routed
    # fold, or the flat fabric's serial ejection wire) and the fault fate
    overload = (eng._overload_backoff
                if model.overload_drain_rate is not None else None)
    if eng._routed:
        arrive = eng._routed_arrival
    elif model.wire_queueing:
        arrive = eng._wire_arrival
    else:
        arrive = None
    send_fault = None if no_faults else eng._send_fault
    fabric = getattr(model, "fabric", None)
    flat = (type(fabric) is FlatFabric
            and type(model).transit_time is NetworkModel.transit_time)
    if flat:
        fab_lat = fabric.latency
        fab_bw = fabric.bandwidth

    steps = 0
    messages_sent = 0
    bytes_sent = 0
    msg_seq = eng._msg_seq
    pr_seq = eng._pr_seq

    # membership memo for iterative collectives: programs yield the same
    # group tuple every iteration (ops.Collective memoizes the sorted
    # form by identity), so the O(|group|) `rank in tuple` scan collapses
    # to one frozenset lookup after the first instance
    memo_group = None
    memo_member = frozenset()

    # resume queue: dirty-set resumes arrive in ascending rank order, and
    # for a completed collective all 63 peers resume at the same clock —
    # already sorted by the heap's (clock, rank) key.  Appending them to
    # a plain list consumed by index skips ~two heap sifts per resume;
    # the pop below merges the queue front against the heap's valid top,
    # so pop order is exactly the heap's smallest valid (clock, rank).
    # Any resume that would break the queue's sortedness goes to the
    # heap instead.
    rq = []
    rq_append = rq.append
    rq_i = 0

    # non-canonical schedule policy: cohort ordering routes through
    # sched.pop_ready_policy, and the resume-queue shortcut is disabled
    # (its front-of-queue pops would bypass the policy's cohort
    # collection).  The defer-memo fast paths stay valid: under a policy
    # drain_batch never writes the memo, so the memo lookups never hit.
    policy_tie = None if eng.policy.canonical else eng.policy

    def resume(r, value) -> None:
        """Make blocked rank ``r`` READY at its clock with ``value``."""
        r.pending_value = value
        r.state = READY
        r.blocked_kind = None
        r.blocked_data = None
        entry = (r.clock, r.rank)
        if policy_tie is None and (not rq or rq[-1] <= entry):
            rq_append(entry)
        else:
            heappush(ready, entry)

    def relaxed_progress() -> bool:
        """The pass taken when every live rank is blocked: commit the
        earliest-arriving deferred wildcard match, else resume every
        wait the safety horizon held back.  True if anything moved."""
        for dst in sorted(match.pending_recvs):
            if drain(dst, True):
                eng.deferred_commits += 1
                return True
        progress = False
        for r in ranks:
            if r.state == BLOCKED:
                value = wait_value(r, r.blocked_kind, r.blocked_data,
                                   True, horizon)
                if value is not BLOCK:
                    resume(r, value)
                    dirty_discard(r.rank)
                    progress = True
        return progress

    try:
        while True:
            if profile:
                # close the previous cohort's execute interval, open
                # this pass's schedule interval
                t_poll = perf()
                if t_cohort is not None:
                    acc["execute"] += t_poll - t_cohort - nested[0]
                    t_cohort = None
                nested[0] = 0.0
            steps += 1
            if steps > step_limit:
                raise SimulationError(
                    f"exceeded max_steps={max_steps}; likely livelock")
            if deferred:
                for dst in sorted(deferred):
                    memo = defer_memo.get(dst)
                    if memo is not None and \
                            memo[1] == defer_version[dst] and \
                            memo[0] > horizon(dst):
                        continue  # still futile; stays deferred
                    deferred.discard(dst)
                    drain(dst, False)
            if dirty:
                # dirty-set wakeup in sorted rank order.  Nothing inside
                # a resume mutates the dirty set, so the per-rank
                # discards collapse into one clear at the end; a HELD
                # waitany is re-added (it must be polled until the
                # horizon lets it go)
                stays = None
                for rank in sorted(dirty):
                    r = ranks[rank]
                    if r.state != BLOCKED:
                        continue
                    value = wait_value(r, r.blocked_kind, r.blocked_data,
                                       False, horizon)
                    if value is HELD:
                        if stays is None:
                            stays = [rank]
                        else:
                            stays.append(rank)
                    elif value is not BLOCK:
                        resume(r, value)
                dirty.clear()
                if stays is not None:
                    dirty.update(stays)
            # pop: two-way merge of the resume queue's valid front and
            # the lazy-deletion ready heap's valid top, in (clock, rank)
            # order; an entry is stale once its rank was stepped or
            # re-queued at a later clock
            rs = None
            if policy_tie is not None:
                # the resume queue is empty (appends gated off above),
                # so the policy pop sees the full same-clock cohort
                rs = sched.pop_ready_policy(policy_tie)
            else:
                qe = None
                qlen = len(rq)
                while rq_i < qlen:
                    qe = rq[rq_i]
                    qr = ranks[qe[1]]
                    if qr.state == READY and qr.clock == qe[0]:
                        break
                    rq_i += 1
                else:
                    qe = None
                    if qlen:
                        del rq[:]
                        rq_i = 0
                while ready:
                    he = ready[0]
                    hr = ranks[he[1]]
                    if hr.state == READY and hr.clock == he[0]:
                        break
                    heappop(ready)
                if qe is not None and (not ready or qe <= ready[0]):
                    rs = qr
                    rq_i += 1
                    if rq_i == len(rq):
                        del rq[:]
                        rq_i = 0
                elif ready:
                    heappop(ready)
                    rs = hr
            if rs is None:
                if eng._done_count == nranks:
                    break
                eng.deadlock_checks += 1
                if relaxed_progress():
                    continue
                if eng.crashed_ranks:
                    # graceful degradation: ranks waiting on a crashed
                    # peer can never progress — record the diagnostic
                    # and end the run so its trace prefix survives
                    eng._starve_blocked()
                    break
                eng._raise_deadlock()
            if profile:
                t_cohort = perf()
                acc["schedule"] += t_cohort - t_poll - nested[0]
                nested[0] = 0.0
            # -- op cohort: run this rank's generator until it blocks ----
            # Consecutive PostRecv drains coalesce into one flush: no
            # clock moves and no other rank observes state mid-cohort,
            # and one drain walks the same receives in the same post
            # order with the same horizon, so the flush is bit-identical
            # to draining after every post.  The flush must land before
            # anything that reads completion state: WaitAll / WaitAny /
            # Test evaluation, a send to self (its unexpected-buffer
            # charge checks our own receive queue), and rank completion
            # (a crash included).
            gen_send = rs.gen.send
            value = rs.pending_value
            rs.pending_value = None
            recv_pending = False
            while True:
                # a crash stops the rank before it starts an op at or
                # past its crash time (clocks advance inside a cohort)
                if crash_at is not None and \
                        rs.clock >= crash_at[rs.rank]:
                    if recv_pending:
                        recv_pending = False
                        drain(rs.rank, False)
                    eng._crash_rank(rs)
                    break
                steps += 1
                if steps > step_limit:
                    raise SimulationError(
                        f"exceeded max_steps={max_steps}; likely livelock")
                try:
                    op = gen_send(value)
                except StopIteration:
                    if recv_pending:
                        recv_pending = False
                        drain(rs.rank, False)
                    rs.state = DONE
                    eng._done_count += 1
                    eng._on_rank_done(rs)
                    break
                cls = op.__class__
                if cls is Compute:
                    if no_faults:
                        rs.clock += op.duration
                    else:
                        rs.clock += op.duration * \
                            faults.compute_factor(rs.rank)
                    value = None
                    continue
                if cls is PostSend:
                    if recv_pending and op.dst == rs.rank:
                        recv_pending = False
                        drain(rs.rank, False)
                    dst = op.dst
                    if dst >= nranks:
                        raise MPIUsageError(
                            f"rank {rs.rank} sends to nonexistent "
                            f"rank {dst}")
                    nbytes = op.nbytes
                    req = Request("send", rs.rank)
                    req.peer = dst
                    inject = rs.clock + send_overhead(nbytes)
                    rs.clock = inject
                    eager = nbytes <= eager_threshold
                    if eager:
                        if overload is not None:
                            inject = overload(rs, dst, nbytes, inject)
                        if arrive is not None:
                            inject, t = arrive(rs, dst, nbytes, inject)
                        elif flat:
                            t = inject + (fab_lat + nbytes / fab_bw)
                        else:
                            t = inject + transit(nbytes, rs.rank, dst)
                        msg = _Message(msg_seq, rs.rank, dst, op.tag,
                                       op.comm_id, nbytes, "eager", req)
                        msg.est = t
                    else:
                        msg = _Message(msg_seq, rs.rank, dst, op.tag,
                                       op.comm_id, nbytes, "rdv", req)
                        msg.rdv_ready = inject + min_latency
                        msg.rdv_transit = (fab_lat + nbytes / fab_bw) \
                            if flat else transit(nbytes, rs.rank, dst)
                    msg_seq += 1
                    req.message = msg
                    messages_sent += 1
                    bytes_sent += nbytes
                    value = req
                    if send_fault is not None and send_fault(msg, inject):
                        # lost: a buffered (eager) send still completes
                        # locally, but nothing ever reaches the receiver
                        if eager:
                            req.completion = inject
                        continue
                    if eager:
                        if not has_recv(dst, rs.rank, op.tag, op.comm_id):
                            if unexpected_capacity is not None and \
                                    unexpected[dst] + nbytes > \
                                    unexpected_capacity:
                                msg.throttled = True
                                msg.est += stall_penalty(nbytes)
                            msg.charged = True
                            unexpected[dst] += nbytes
                        if not msg.throttled:
                            req.completion = inject
                    add_message(msg)
                    memo = defer_memo.get(dst)
                    if memo is not None and \
                            memo[1] == defer_version[dst] and \
                            memo[0] > horizon(dst):
                        deferred_add(dst)
                    else:
                        drain(dst, False)
                    continue
                if cls is PostRecv:
                    src = op.src
                    if src != ANY_SOURCE and src >= nranks:
                        raise MPIUsageError(
                            f"rank {rs.rank} receives from nonexistent "
                            f"rank {src}")
                    req = Request("recv", rs.rank)
                    req.peer = src
                    pr = _PendingRecv(pr_seq, rs.rank, src, op.tag,
                                      op.comm_id, rs.clock, req)
                    pr_seq += 1
                    add_recv(pr)
                    recv_pending = True
                    value = req
                    continue
                if cls is WaitAll or cls is WaitAny:
                    if recv_pending:
                        recv_pending = False
                        drain(rs.rank, False)
                    reqs = op.requests
                    kind = "waitall" if cls is WaitAll else "waitany"
                    value = wait_value(rs, kind, reqs, False, horizon)
                    if value is not BLOCK and value is not HELD:
                        continue
                    if value is HELD:
                        dirty_add(rs.rank)
                    rs.blocked_kind = kind
                    rs.blocked_data = reqs
                    for q in reqs:
                        if q.completion is None:
                            q.waiter = rs.rank
                    rs.state = BLOCKED
                    break
                if cls is Collective:
                    if recv_pending:
                        recv_pending = False
                        drain(rs.rank, False)
                    group = op.group
                    rank = rs.rank
                    if group is not memo_group:
                        memo_group = group
                        memo_member = frozenset(group)
                    if rank not in memo_member:
                        raise MPIUsageError(
                            f"rank {rank} called collective on group "
                            f"excluding it")
                    cseq = rs.coll_seq
                    seq = cseq.get(op.comm_id, 0)
                    cseq[op.comm_id] = seq + 1
                    ckey = (op.comm_id, seq)
                    inst = colls.get(ckey)
                    if inst is None:
                        inst = _CollInstance(op.key, group, op.nbytes)
                        colls[ckey] = inst
                    else:
                        if (inst.group is not group
                                and inst.group != group) \
                                or inst.key != op.key:
                            raise MPIUsageError(
                                f"collective mismatch on comm "
                                f"{op.comm_id} seq {seq}: "
                                f"{inst.key}/{inst.group} vs "
                                f"{op.key}/{op.group}")
                        if op.nbytes > inst.nbytes:
                            inst.nbytes = op.nbytes
                    arrivals = inst.arrivals
                    arrivals[rank] = rs.clock
                    nleft = inst.nleft - 1
                    inst.nleft = nleft
                    if not nleft:
                        comp = max(arrivals.values()) + coll_cost(
                            inst.key, len(inst.group), inst.nbytes)
                        inst.completion = comp
                        # blocked participants wake through the dirty
                        # set on the next loop top (resuming them here
                        # would advance their clocks early and shift
                        # wildcard horizons).  Bulk update, preserving
                        # any prior membership of the completing rank.
                        had = rank in dirty
                        dirty.update(arrivals)
                        if not had:
                            dirty_discard(rank)
                        rs.clock = comp
                        value = None
                        continue
                    rs.blocked_kind = "collective"
                    rs.blocked_data = inst
                    rs.state = BLOCKED
                    break
                if cls is Test:
                    if recv_pending:
                        recv_pending = False
                        drain(rs.rank, False)
                    q = op.request
                    comp = q.completion
                    if comp is not None and comp <= rs.clock:
                        value = (True, q.status)
                    else:
                        value = (False, None)
                    continue
                # dispatch is on the exact op class: anything else,
                # an op subclass included, is a usage error
                raise MPIUsageError(f"rank {rs.rank} yielded non-op {op!r}")
    finally:
        eng.steps += steps
        eng.messages_sent += messages_sent
        eng.bytes_sent += bytes_sent
        eng._msg_seq = msg_seq
        eng._pr_seq = pr_seq
