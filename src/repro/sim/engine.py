"""Deterministic discrete-event engine for SPMD rank programs.

Rank programs are generator coroutines yielding :mod:`repro.sim.ops`
operations.  The engine advances per-rank *virtual clocks* and matches
messages under MPI semantics:

* per-(source, destination, communicator) FIFO ("non-overtaking") order;
* tag-selective matching, with ANY_SOURCE / ANY_TAG wildcards;
* posted-receive queue scanned in post order.

Scheduling is conservative: the runnable rank with the smallest clock runs
next, and a wildcard receive is only matched once no other rank could still
produce an earlier-arriving candidate (``arrival <= horizon`` where the
horizon is the minimum over other live ranks of clock + minimum latency).
When every rank is blocked, the engine commits the earliest-arriving
deferred candidate instead (the only event that can happen next).  The
result is a bit-deterministic simulation that still exhibits honest
message races for ANY_SOURCE receives — the nondeterminism Algorithm 2 of
the paper exists to remove from *generated* benchmarks.

Timing uses the pluggable :class:`~repro.sim.network.NetworkModel`,
including eager/rendezvous protocols, unexpected-message copy costs, and
finite-buffer flow control (see the paper's Fig. 7 discussion).

The core is layered (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.sim.sched` — ready/clock heaps, the wildcard safety
  horizon, dirty-set wakeup, deferred destinations;
* :mod:`repro.sim.matching` — per-(src, dst, comm) channels, indexed
  pending receives, cached arrival estimates, wildcard candidate heaps,
  and the drain (:func:`~repro.sim.matching.drain_batch`);
* :mod:`repro.sim.exec_batch` — the cohort executor, the one main loop
  every run goes through (crash faults and ``--profile`` included);
* this module — protocol semantics (send/receive/collective timing
  arithmetic, flow control, faults) and the generic op handlers the
  executor falls back to outside its inlined fast paths.

Commit order, tie-breaking, timing and counters are pinned by the golden
suites in ``tests/sim/golden/``; the Hypothesis equivalence tests hold
the executor to a one-op-at-a-time reference loop that lives with the
tests (``tests/sim/reference_loop.py``).
"""

from __future__ import annotations

from types import MethodType
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import MPIUsageError, SimDeadlockError, SimulationError
from repro.sim.diagnostics import (BlockedOp, DeadlockDiagnostic,
                                   find_cycle)
from repro.sim.exec_batch import _BLOCK, _CollInstance, run_batch
from repro.sim.matching import (MatchIndex, _Message, _PendingRecv,
                                arrival_est, drain_batch)
from repro.sim.network import NetworkModel
from repro.sim.ops import (ANY_SOURCE, Collective, Compute, Op, PostRecv,
                           PostSend, Test, WaitAll, WaitAny)
from repro.sim.policy import drain_policy, resolve_policy
from repro.sim.queueing import resolve_queue_discipline
from repro.sim.requests import Request, Status
from repro.sim.sched import BLOCKED, DONE, READY, Scheduler


class _RankState:
    __slots__ = ("rank", "gen", "clock", "state", "blocked_kind",
                 "blocked_data", "pending_value", "coll_seq")

    def __init__(self, rank: int, gen: Generator):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.state = READY
        self.blocked_kind: Optional[str] = None   # "waitall"|"waitany"|"collective"
        self.blocked_data = None
        self.pending_value = None
        self.coll_seq: Dict[int, int] = {}        # comm_id -> collective counter


class Engine:
    """Run a set of rank generator programs to completion in virtual time.

    The run options (``max_steps``, ``faults``, ``profile``,
    ``schedule_policy``/``schedule_seed`` and
    ``queue_discipline``/``queue_params``) are declared here only;
    :class:`~repro.mpi.world.World`, :func:`~repro.mpi.world.run_spmd`
    and :meth:`ConceptualProgram.run
    <repro.conceptual.compiler.ConceptualProgram.run>` forward them as
    ``**engine_options``.
    """

    def __init__(self, nranks: int, model: NetworkModel,
                 max_steps: Optional[int] = None, faults=None,
                 profile: bool = False,
                 schedule_policy=None, schedule_seed: Optional[int] = None,
                 queue_discipline=None, queue_params=None):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.nranks = nranks
        self.model = model
        self.max_steps = max_steps
        #: tie-break policy for wildcard matches and same-clock cohorts;
        #: canonical (the default) leaves every hot path untouched —
        #: see repro.sim.policy.  Validated here, at construction.
        self.policy = resolve_policy(schedule_policy, schedule_seed)
        #: per-phase wall-time attribution (``repro pipeline --profile``)
        self.profile = bool(profile)
        self.profile_phases: Optional[Dict[str, float]] = None
        #: the FaultInjector driving this run, if any; a null-plan
        #: injector deactivates itself so the no-fault path is untouched
        self.faults = faults
        self._faults = faults if faults is not None and faults.active \
            else None
        self._crash_at: Optional[List[float]] = None
        self.crashed_ranks: List[int] = []
        self.starved_ranks: List[int] = []
        self.diagnostic: Optional[DeadlockDiagnostic] = None
        self._ranks: List[_RankState] = []
        self._min_latency = model.min_latency()
        # -- layered core: matching + scheduling state ----------------------
        self._match = MatchIndex()
        s = self._sched = Scheduler(self._min_latency)
        # hot-path aliases: the drains address the scheduler's
        # containers directly (same objects)
        self._dirty = s.dirty
        self._deferred_dsts = s.deferred_dsts
        self._horizon = s.horizon
        # the drain: candidate-heap matching for the canonical schedule;
        # a non-canonical policy needs the full candidate enumeration to
        # choose from (the heaps answer canonical-minimum queries only)
        self._drain = MethodType(
            drain_batch if self.policy.canonical else drain_policy, self)
        # -- protocol-side per-rank state -----------------------------------
        # receive-side message processing is serial: a rank's "receive
        # processor" finishes one message before starting the next, so a
        # burst arriving faster than recv_overhead can drain queues up —
        # the physical mechanism behind the paper's Fig. 7 discussion
        self._rx_busy: Dict[int, float] = {}
        # the ejection link to each rank is also serial (wire queueing):
        # simultaneous arrivals stretch, paced arrivals do not
        self._wire_free: Dict[int, float] = {}
        # routed-fabric mode: eager messages fold through every named
        # link on their route instead of just the destination's ejection
        # queue — _link_free generalizes _wire_free from per-destination
        # to per-link (see repro.topology.fabric.RoutedFabric)
        self._routed = bool(getattr(model, "routed", False))
        self._link_free: Dict[str, float] = {}
        self._link_msgs: Dict[str, int] = {}
        self._link_busy: Dict[str, float] = {}
        self._link_wait: Dict[str, float] = {}
        #: per-link admission rule for the routed fold; None is the
        #: default FIFO (the original inline arithmetic, untouched —
        #: that is the byte-identity contract the goldens pin).
        #: Validated here, at construction — see repro.sim.queueing.
        self._qdisc = resolve_queue_discipline(queue_discipline,
                                               queue_params)
        if self._qdisc is not None and not self._routed:
            raise ValueError(
                f"queue discipline {self._qdisc.describe()!r} needs a "
                "routed fabric (named links to queue on); flat fabrics "
                "have only the per-destination ejection wire")
        self._link_drops: Dict[str, int] = {}
        # leaky-bucket overload accounting: (last update time, level bytes)
        self._overload: Dict[int, Tuple[float, float]] = {}
        self.overload_events = 0
        self._coll: Dict[Tuple[int, int], _CollInstance] = {}
        self._done_count = 0
        # per-engine sequence counters: two engines in one process assign
        # identical seq-based tie-breaks for identical programs
        self._msg_seq = 0
        self._pr_seq = 0
        self._ran = False
        self.steps = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.matches_committed = 0
        self.deferred_commits = 0
        self.deadlock_checks = 0

    # -- public API --------------------------------------------------------
    def run(self, programs: Sequence[Generator]) -> float:
        """Drive ``programs`` (one generator per rank) to completion.

        Returns the simulated makespan: the maximum final rank clock.
        Raises :class:`SimDeadlockError` if the programs deadlock.  An
        :class:`Engine` instance drives exactly one run; reuse raises
        :class:`SimulationError` (stale channel/collective state would
        silently corrupt a second simulation).
        """
        if self._ran:
            raise SimulationError(
                "Engine.run() called twice on the same instance; channel "
                "and collective state is per-run — create a new Engine")
        self._ran = True
        if len(programs) != self.nranks:
            raise ValueError(
                f"expected {self.nranks} programs, got {len(programs)}")
        self._ranks = [_RankState(i, g) for i, g in enumerate(programs)]
        if self._faults is not None:
            self._crash_at = [self._faults.crash_time(i)
                              for i in range(self.nranks)]
        self._match.seed(self.nranks)
        self._sched.seed(self._ranks)
        for i in range(self.nranks):
            self._rx_busy[i] = 0.0
            self._wire_free[i] = 0.0
            self._overload[i] = (0.0, 0.0)

        with obs.span("engine.run", nranks=self.nranks):
            try:
                run_batch(self)
            finally:
                self._flush_counters()
        return self.total_time

    def _flush_counters(self) -> None:
        """Publish this run's accumulated probe totals (cheap: the hot
        loop only bumps plain ints; the bus sees aggregates once).

        Counters are emitted in sorted-name order — deterministic
        regardless of link discovery order or fault-counter insertion
        order, so JSONL metrics output is byte-stable across runs.
        """
        pairs = [
            ("engine.steps", self.steps),
            ("engine.matches", self.matches_committed),
            ("engine.deferred_commits", self.deferred_commits),
            ("engine.deadlock_checks", self.deadlock_checks),
            ("engine.messages_sent", self.messages_sent),
            ("engine.bytes_sent", self.bytes_sent),
            ("engine.overload_events", self.overload_events),
        ]
        if self._routed and self._link_msgs:
            span = self.total_time
            for name in self._link_msgs:
                pairs.append((f"engine.link.{name}.msgs",
                              self._link_msgs[name]))
                pairs.append((f"engine.link.{name}.busy_s",
                              self._link_busy.get(name, 0.0)))
                pairs.append((f"engine.link.{name}.wait_s",
                              self._link_wait.get(name, 0.0)))
            pairs.append(("engine.links_used", len(self._link_msgs)))
            pairs.append(("engine.link_busy_s_total",
                          sum(self._link_busy.values())))
            pairs.append(("engine.link_wait_s_total",
                          sum(self._link_wait.values())))
            if span > 0.0:
                pairs.append(("engine.link_util_max",
                              max(self._link_busy.values()) / span))
            if self._qdisc is not None:
                # drop accounting exists only under a real discipline;
                # the default FIFO counter set is unchanged byte-for-byte
                for name, drops in self._link_drops.items():
                    pairs.append((f"engine.link.{name}.drops", drops))
                pairs.append(("engine.link_drops_total",
                              sum(self._link_drops.values())))
        if self._faults is not None:
            for name, value in self._faults.snapshot().items():
                pairs.append((f"engine.fault.{name}", value))
            pairs.append(("engine.fault.crashed_ranks",
                          len(self.crashed_ranks)))
            pairs.append(("engine.fault.starved_ranks",
                          len(self.starved_ranks)))
        if self.profile_phases is not None:
            for phase, secs in self.profile_phases.items():
                pairs.append((f"engine.profile.{phase}_s", secs))
        for name, value in sorted(pairs):
            obs.count(name, value)

    @property
    def total_time(self) -> float:
        return max((rs.clock for rs in self._ranks), default=0.0)

    @property
    def link_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-link contention accounting for routed fabrics.

        ``{link_name: {"msgs": count, "busy_s": occupied seconds,
        "wait_s": seconds messages queued for the link}}`` — empty for
        flat fabrics (no named links).  Under a non-FIFO queue
        discipline each entry also carries ``"drops"`` (counted
        retransmissions); the default FIFO shape is unchanged so the
        golden suites and downstream consumers see the same bytes.
        """
        if self._qdisc is not None:
            return {name: {"msgs": self._link_msgs[name],
                           "busy_s": self._link_busy.get(name, 0.0),
                           "wait_s": self._link_wait.get(name, 0.0),
                           "drops": self._link_drops.get(name, 0)}
                    for name in sorted(self._link_msgs)}
        return {name: {"msgs": self._link_msgs[name],
                       "busy_s": self._link_busy.get(name, 0.0),
                       "wait_s": self._link_wait.get(name, 0.0)}
                for name in sorted(self._link_msgs)}

    def now(self, rank: int) -> float:
        return self._ranks[rank].clock

    # -- generic op dispatch ------------------------------------------------
    def _apply(self, rs: _RankState, op: Op):
        if isinstance(op, Compute):
            if self._faults is not None:
                rs.clock += op.duration * \
                    self._faults.compute_factor(rs.rank)
            else:
                rs.clock += op.duration
            return None
        if isinstance(op, PostSend):
            return self._apply_send(rs, op)
        if isinstance(op, PostRecv):
            return self._apply_recv(rs, op)
        if isinstance(op, WaitAll):
            done = self._try_waitall(rs, op.requests, relaxed=False)
            if done is not None:
                return done
            rs.blocked_kind = "waitall"
            rs.blocked_data = op.requests
            self._register_waiter(rs, op.requests)
            return _BLOCK
        if isinstance(op, WaitAny):
            done = self._try_waitany(rs, op.requests, relaxed=False)
            if done is not None:
                return done
            rs.blocked_kind = "waitany"
            rs.blocked_data = op.requests
            self._register_waiter(rs, op.requests)
            return _BLOCK
        if isinstance(op, Test):
            # A test succeeds only if the operation has completed by the
            # rank's current virtual time; testing never advances the clock
            # past the completion (matching MPI_Test semantics).
            req = op.request
            if req.complete and req.completion <= rs.clock:
                return (True, req.status)
            return (False, None)
        if isinstance(op, Collective):
            return self._apply_collective(rs, op)
        raise MPIUsageError(f"rank {rs.rank} yielded non-op {op!r}")

    def _register_waiter(self, rs: _RankState, requests) -> None:
        """Route future completions of ``requests`` to the blocking rank.

        A rank blocking on WaitAny with an already-complete request goes
        straight onto the dirty set: its resumability depends on the
        safety horizon (which moves as other ranks run), not on any new
        completion, so it must be re-examined every scheduler pass.
        """
        any_complete = False
        for req in requests:
            if req.complete:
                any_complete = True
            else:
                req.waiter = rs.rank
        if any_complete and rs.blocked_kind == "waitany":
            self._dirty.add(rs.rank)

    # -- sends ----------------------------------------------------------------
    def _apply_send(self, rs: _RankState, op: PostSend) -> Request:
        if op.dst >= self.nranks:
            raise MPIUsageError(
                f"rank {rs.rank} sends to nonexistent rank {op.dst}")
        model = self.model
        req = Request("send", rs.rank)
        req.peer = op.dst
        post_time = rs.clock
        rs.clock += model.send_overhead(op.nbytes)
        inject = rs.clock
        eager = op.nbytes <= model.eager_threshold
        fate = None
        if self._faults is not None:
            fate = self._faults.send_fate(self._msg_seq)
        lost = fate is not None and fate.lost
        charged = False
        throttled = False
        arrival = None
        if eager and model.overload_drain_rate is not None:
            # leaky bucket: the destination's protocol stack drains at a
            # fixed rate; sustained offered load above it builds standing
            # backlog, and senders to an overloaded stack back off
            last_t, level = self._overload[op.dst]
            level = max(0.0, level - (inject - last_t)
                        * model.overload_drain_rate)
            if level > model.overload_capacity:
                rs.clock += model.overload_penalty
                inject = rs.clock
                self.overload_events += 1
                level = max(0.0, level - model.overload_penalty
                            * model.overload_drain_rate)
            level += op.nbytes
            self._overload[op.dst] = (inject, level)
        route_links: Tuple[str, ...] = ()
        if eager and self._routed:
            route_links, inject, arrival = self._routed_arrival(
                rs, op, inject)
        elif eager and model.wire_queueing:
            # the destination's ejection link is serial: this message's
            # data starts landing when the link frees up
            reach = inject + model.transit_time(0)
            backlog = self._wire_free[op.dst] - reach
            threshold = model.backlog_stall_threshold
            if threshold is not None and backlog > threshold:
                # flow control: the sender stalls until the destination's
                # queue drains back to the window (graduated backpressure);
                # the cost lands on the sender's clock directly
                rs.clock += (backlog - threshold
                             + model.stall_penalty(op.nbytes))
                inject = rs.clock
                reach = inject + model.transit_time(0)
            start = max(reach, self._wire_free[op.dst])
            arrival = start + model.eject_time(op.nbytes)
            self._wire_free[op.dst] = arrival
        fault_delay = 0.0
        if fate is not None and not lost:
            fault_delay = fate.delay
            if self._routed and not route_links:
                # rendezvous in routed mode: the route was not folded
                # through the links, but link-targeted degradation
                # windows still need to see which links the data crosses
                route_links = model.fabric.route(rs.rank, op.dst)
            lat_f, bw_f = self._faults.window_factors(op.dst, inject,
                                                      links=route_links)
            if lat_f != 1.0 or bw_f != 1.0:
                base = model.transit_time(0)
                extra = (lat_f - 1.0) * base + (bw_f - 1.0) * \
                    (model.transit_time(op.nbytes) - base)
                fault_delay += extra
                self._faults.delay_injected += extra
            if arrival is not None and fault_delay:
                # wire-queued eager: bake the injected delay into the
                # fixed arrival and keep the ejection link busy until
                # the late (retransmitted/degraded) copy lands
                arrival += fault_delay
                if self._routed:
                    self._link_free[route_links[-1]] = arrival
                else:
                    self._wire_free[op.dst] = arrival
                fault_delay = 0.0
            if fate.duplicate:
                # the spurious copy consumes receive-side resources
                if self._routed:
                    self._link_free[route_links[-1]] = \
                        self._link_free.get(route_links[-1], 0.0) + \
                        model.eject_time(op.nbytes)
                elif model.wire_queueing:
                    self._wire_free[op.dst] += model.eject_time(op.nbytes)
                else:
                    self._rx_busy[op.dst] += model.recv_overhead(op.nbytes)
        if eager and lost:
            # every transmission attempt dropped: the buffered send still
            # completes locally, but nothing ever arrives at the receiver
            req.completion = inject
        elif eager:
            preposted = self._match.has_compatible_recv(
                op.dst, rs.rank, op.tag, op.comm_id)
            if not preposted:
                cap = model.unexpected_capacity
                pending = self._match.unexpected_bytes[op.dst]
                if cap is not None and pending + op.nbytes > cap:
                    throttled = True
                charged = True
                self._match.unexpected_bytes[op.dst] += op.nbytes
            if not throttled:
                req.completion = inject  # local completion, buffered send
        msg = _Message(self._msg_seq, rs.rank, op.dst, op.tag, op.comm_id,
                       op.nbytes, post_time, inject,
                       "eager" if eager else "rdv", throttled, charged, req,
                       arrival=arrival, fault_delay=fault_delay)
        self._msg_seq += 1
        req.message = msg
        if lost:
            # a rendezvous send whose message is lost never completes —
            # the sender's wait will block and (absent other progress)
            # surface as a structured deadlock/starvation diagnostic
            self.messages_sent += 1
            self.bytes_sent += op.nbytes
            return req
        # cache the arrival estimate: every input (inject time, fixed
        # arrival, fault delay, throttle stall) is immutable once the
        # message is in a channel, and the operation order below matches
        # the original per-query arithmetic exactly — see
        # repro.sim.matching.arrival_est
        if eager:
            t = (arrival if arrival is not None
                 else inject + model.transit_time(op.nbytes, rs.rank,
                                                  op.dst))
            if fault_delay:
                t += fault_delay
            if throttled:
                t += model.stall_penalty(op.nbytes)
            msg.est = t
        else:
            handshake = inject + self._min_latency
            if fault_delay:
                handshake += fault_delay
            msg.rdv_ready = handshake
            msg.rdv_transit = model.transit_time(op.nbytes, rs.rank, op.dst)
        self._match.add_message(msg)
        self.messages_sent += 1
        self.bytes_sent += op.nbytes
        self._drain(op.dst, relaxed=False)
        return req

    def _routed_arrival(self, rs: _RankState, op: PostSend,
                        inject: float) -> Tuple[Tuple[str, ...], float,
                                                float]:
        """Fold an eager message through its route's per-link FIFOs.

        Store-and-forward over named links: the message reaches link *i*
        one hop latency after clearing link *i-1*, waits for the link to
        free (FIFO), then occupies it for the serialization time.  The
        final link is the destination node's ejection link, so endpoint
        delivery serializes exactly like the flat fabric's per-
        destination wire queue.  Flow control (``backlog_stall_threshold``)
        is checked against the ejection link's standing backlog, same as
        the flat path.  Returns ``(route_links, inject, arrival)`` —
        ``inject`` may have advanced if the sender was stalled.

        The fold is deliberately sequential: per-link FIFO order is part
        of the defined semantics (each start time depends on the
        previous link's), so it cannot be vectorized without changing
        results.
        """
        model = self.model
        fabric = model.fabric
        links = fabric.route(rs.rank, op.dst)
        hop = fabric.hop_latency
        ser = fabric.serialize_time(op.nbytes)
        free = self._link_free
        threshold = model.backlog_stall_threshold
        if threshold is not None:
            reach = inject + len(links) * hop
            backlog = free.get(links[-1], 0.0) - reach
            if backlog > threshold:
                # flow control: stall the sender until the destination's
                # ejection queue drains back to the window
                rs.clock += (backlog - threshold
                             + model.stall_penalty(op.nbytes))
                inject = rs.clock
        t = inject
        msgs = self._link_msgs
        busy = self._link_busy
        qdisc = self._qdisc
        if qdisc is None:
            # default FIFO: the original inline fold, byte-identical to
            # the goldens — disciplines must not perturb this path
            for link in links:
                reach = t + hop
                avail = free.get(link, 0.0)
                if avail > reach:
                    self._link_wait[link] = \
                        self._link_wait.get(link, 0.0) + (avail - reach)
                    start = avail
                else:
                    start = reach
                t = start + ser
                free[link] = t
                msgs[link] = msgs.get(link, 0) + 1
                busy[link] = busy.get(link, 0.0) + ser
            return links, inject, t
        for link in links:
            reach = t + hop
            avail = free.get(link, 0.0)
            start, drops = qdisc.admit(link, reach, ser, avail)
            if start > reach:
                self._link_wait[link] = \
                    self._link_wait.get(link, 0.0) + (start - reach)
            if drops:
                self._link_drops[link] = \
                    self._link_drops.get(link, 0) + drops
            t = start + ser
            free[link] = t
            msgs[link] = msgs.get(link, 0) + 1
            busy[link] = busy.get(link, 0.0) + ser
        return links, inject, t

    # -- receives ---------------------------------------------------------------
    def _apply_recv(self, rs: _RankState, op: PostRecv) -> Request:
        if op.src != ANY_SOURCE and op.src >= self.nranks:
            raise MPIUsageError(
                f"rank {rs.rank} receives from nonexistent rank {op.src}")
        req = Request("recv", rs.rank)
        req.peer = op.src
        pr = _PendingRecv(self._pr_seq, rs.rank, op.src, op.tag, op.comm_id,
                          rs.clock, req)
        self._pr_seq += 1
        self._match.add_recv(pr)
        self._drain(rs.rank, relaxed=False)
        return req

    # -- matching ------------------------------------------------------------
    def _commit_match(self, pr: _PendingRecv, msg: _Message) -> None:
        self.matches_committed += 1
        model = self.model
        arrival = arrival_est(msg, pr.post_time)
        # message processing starts when the data is here, the receive is
        # posted, and the receiver's (serial) message processor is free
        start = max(pr.post_time, arrival, self._rx_busy[pr.rank])
        completion = start
        if msg.protocol == "eager" and arrival < pr.post_time:
            completion += model.unexpected_copy(msg.nbytes)
        completion += model.recv_overhead(msg.nbytes)
        self._rx_busy[pr.rank] = completion
        pr.rreq.completion = completion
        pr.rreq.status = Status(msg.src, msg.tag, msg.nbytes)
        pr.rreq.message = msg
        if pr.rreq.waiter is not None:
            self._dirty.add(pr.rreq.waiter)
        # sender-side completion for rendezvous / throttled sends
        if msg.sreq.completion is None:
            msg.sreq.completion = completion
            msg.sreq.status = Status(msg.src, msg.tag, msg.nbytes)
            if msg.sreq.waiter is not None:
                self._dirty.add(msg.sreq.waiter)
        m = self._match
        if msg.charged:
            m.unexpected_bytes[msg.dst] -= msg.nbytes
        m.retire_message(msg)
        m.retire_recv(pr)

    # -- waits ----------------------------------------------------------------
    def _try_waitall(self, rs: _RankState, requests, relaxed: bool):
        if not all(r.complete for r in requests):
            return None
        if requests:
            rs.clock = max(rs.clock, max(r.completion for r in requests))
        return [r.status for r in requests]

    def _try_waitany(self, rs: _RankState, requests, relaxed: bool):
        done = [(r.completion, i) for i, r in enumerate(requests) if r.complete]
        if not done:
            return None
        t, i = min(done)
        if not relaxed and not all(r.complete for r in requests):
            # an incomplete request might still finish earlier
            if t > self._horizon(rs.rank):
                return None
        rs.clock = max(rs.clock, t)
        return (i, requests[i].status)

    # -- collectives ------------------------------------------------------------
    def _apply_collective(self, rs: _RankState, op: Collective):
        if rs.rank not in op.group:
            raise MPIUsageError(
                f"rank {rs.rank} called collective on group excluding it")
        seq = rs.coll_seq.get(op.comm_id, 0)
        rs.coll_seq[op.comm_id] = seq + 1
        key = (op.comm_id, seq)
        inst = self._coll.get(key)
        if inst is None:
            inst = _CollInstance(op.key, op.group, op.nbytes)
            self._coll[key] = inst
        else:
            if inst.group != op.group or inst.key != op.key:
                raise MPIUsageError(
                    f"collective mismatch on comm {op.comm_id} seq {seq}: "
                    f"{inst.key}/{inst.group} vs {op.key}/{op.group}")
            inst.nbytes = max(inst.nbytes, op.nbytes)
        inst.arrivals[rs.rank] = rs.clock
        inst.nleft -= 1  # kept in step for the executor's countdown
        if len(inst.arrivals) == len(inst.group):
            start = max(inst.arrivals.values())
            inst.completion = start + self.model.collective_cost(
                inst.key, len(inst.group), inst.nbytes)
            # the caller resumes immediately; blocked participants are
            # woken through the dirty set on the next scheduler pass
            for r in inst.arrivals:
                if r != rs.rank:
                    self._dirty.add(r)
            rs.clock = inst.completion
            return None
        rs.blocked_kind = "collective"
        rs.blocked_data = inst
        return _BLOCK

    # -- resumption -------------------------------------------------------------
    def _try_resume(self, rs: _RankState, relaxed: bool) -> bool:
        """Attempt to unblock one rank; True if it became READY."""
        if rs.blocked_kind == "waitall":
            res = self._try_waitall(rs, rs.blocked_data, relaxed)
            if res is None:
                return False
            rs.pending_value = res
        elif rs.blocked_kind == "waitany":
            res = self._try_waitany(rs, rs.blocked_data, relaxed)
            if res is None:
                return False
            rs.pending_value = res
        elif rs.blocked_kind == "collective":
            inst = rs.blocked_data
            if inst.completion is None:
                return False
            rs.clock = inst.completion
            rs.pending_value = None
        else:  # pragma: no cover - defensive
            raise AssertionError(rs.blocked_kind)
        self._sched.make_ready(rs)
        return True

    def _resume_resumable(self, relaxed: bool) -> bool:
        """Full sweep over all blocked ranks (the rare all-blocked path)."""
        progress = False
        for rs in self._ranks:
            if rs.state != BLOCKED:
                continue
            if self._try_resume(rs, relaxed):
                self._dirty.discard(rs.rank)
                progress = True
        return progress

    def _relaxed_progress(self) -> bool:
        # 1. deferred wildcard matches, earliest arrival first
        for dst in sorted(self._match.pending_recvs):
            if self._drain(dst, relaxed=True):
                self.deferred_commits += 1
                return True
        # 2. waits resumable without the safety horizon
        if self._resume_resumable(relaxed=True):
            return True
        return False

    # -- faults ------------------------------------------------------------
    def _crash_rank(self, rs: _RankState) -> None:
        """Rank ``rs`` hits its plan crash time: it stops executing, its
        generator is closed, and anything it owes other ranks is simply
        never produced (they starve gracefully, see
        :meth:`_starve_blocked`)."""
        rs.state = DONE
        self._done_count += 1
        self.crashed_ranks.append(rs.rank)
        rs.gen.close()

    def _starve_blocked(self) -> None:
        """End a run in which the remaining blocked ranks wait on crashed
        peers.  Builds the structured diagnostic first (the blocked set
        is the interesting part), then retires every blocked rank at its
        current clock so the run terminates with a partial result."""
        self.diagnostic = self._build_diagnostic()
        for rs in self._ranks:
            if rs.state == BLOCKED:
                rs.state = DONE
                self._done_count += 1
                self.starved_ranks.append(rs.rank)
                rs.gen.close()

    # -- termination ------------------------------------------------------------
    def _on_rank_done(self, rs: _RankState) -> None:
        # A finished rank cannot post new sends; wildcard horizons improve.
        live = self._match.pending_live[rs.rank]
        if live:
            raise MPIUsageError(
                f"rank {rs.rank} finished with {live} unmatched receives")

    def _describe_block(self, rs: _RankState) -> str:
        if rs.blocked_kind == "collective":
            inst = rs.blocked_data
            missing = [r for r in inst.group if r not in inst.arrivals]
            return f"collective {inst.key} awaiting ranks {missing}"
        if rs.blocked_kind in ("waitall", "waitany"):
            pending = [r for r in rs.blocked_data if not r.complete]
            kinds = ", ".join(f"{r.kind}" for r in pending[:4])
            return f"{rs.blocked_kind} on {len(pending)} requests ({kinds})"
        return str(rs.blocked_kind)

    def _waits_on(self, rs: _RankState) -> Tuple[int, ...]:
        """Ranks whose progress could unblock ``rs`` (wait-for edges)."""
        waits: set = set()
        if rs.blocked_kind == "collective":
            inst = rs.blocked_data
            waits.update(r for r in inst.group if r not in inst.arrivals)
        elif rs.blocked_kind in ("waitall", "waitany"):
            for req in rs.blocked_data:
                if req.complete:
                    continue
                if req.peer == ANY_SOURCE:
                    # a wildcard could be satisfied by any live rank
                    waits.update(r.rank for r in self._ranks
                                 if r.state != DONE)
                elif req.peer is not None:
                    waits.add(req.peer)
        waits.discard(rs.rank)
        return tuple(sorted(waits))

    def _build_diagnostic(self) -> DeadlockDiagnostic:
        """Structured wait-for picture of the currently blocked ranks."""
        blocked: Dict[int, BlockedOp] = {}
        for rs in self._ranks:
            if rs.state != BLOCKED:
                continue
            blocked[rs.rank] = BlockedOp(
                rank=rs.rank, kind=rs.blocked_kind or "?",
                detail=self._describe_block(rs),
                waits_on=self._waits_on(rs))
        cycle = find_cycle({r: b.waits_on for r, b in blocked.items()})
        return DeadlockDiagnostic(blocked=blocked, cycle=cycle,
                                  crashed=tuple(self.crashed_ranks),
                                  time=self.total_time)

    def _raise_deadlock(self) -> None:
        self.diagnostic = self._build_diagnostic()
        blocked = {rs.rank: self._describe_block(rs)
                   for rs in self._ranks if rs.state == BLOCKED}
        raise SimDeadlockError(blocked, diagnostic=self.diagnostic)
