"""Scheduling layer of the engine core: clocks, readiness, wakeup.

This module owns the *when does who run next* half of the simulator,
split out of the monolithic engine (see ``docs/ARCHITECTURE.md``):

* a lazy-deletion **ready heap** of ``(clock, rank)`` entries — the
  runnable rank with the smallest virtual clock always runs next;
* a lazy-deletion **clock heap** over all non-DONE ranks powering the
  conservative wildcard safety **horizon** (minimum live clock plus the
  fabric's minimum latency);
* the **dirty set** of blocked ranks whose waited-on work completed
  since the last scheduler pass (request and collective completions
  land here instead of triggering a sweep over every rank; the
  executor's wait rule, :func:`repro.sim.exec_batch.wait_value`,
  decides which of them resume);
* the **deferred destination set**: receivers whose wildcard match was
  horizon-unsafe and must be re-drained at the top of the next pass.

The scheduler knows nothing about messages or matching; it sees only
rank states (:class:`repro.sim.engine._RankState`) and clocks.  Its
containers are plain heaps/sets so the cohort executor
(:mod:`repro.sim.exec_batch`) can bind them as locals in its hot loop,
push resumed ranks and pop the ready heap inline; a ready-heap entry is
stale once its rank was stepped or re-queued at a later clock.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

READY = "ready"
BLOCKED = "blocked"
DONE = "done"

_INF = float("inf")


class Scheduler:
    """Ready/clock heaps, dirty-set wakeup, and the safety horizon."""

    __slots__ = ("ranks", "ready_heap", "clock_heap", "dirty",
                 "deferred_dsts", "min_latency")

    def __init__(self, min_latency: float):
        #: bound to the engine's rank-state list at run start
        self.ranks: List = []
        #: lazy-deletion heap of (clock, rank) for READY ranks
        self.ready_heap: List[Tuple[float, int]] = []
        #: lazy-deletion heap of (clock, rank) over non-DONE ranks, one
        #: live entry per rank, powering the incremental horizon
        self.clock_heap: List[Tuple[float, int]] = []
        #: blocked ranks whose waited-on work completed since last sweep
        self.dirty: set = set()
        #: receivers with a horizon-deferred wildcard to re-drain
        self.deferred_dsts: set = set()
        self.min_latency = min_latency

    def seed(self, ranks: List) -> None:
        """Bind the rank-state list and enqueue every rank at clock 0."""
        self.ranks = ranks
        push = heapq.heappush
        for rs in ranks:
            push(self.ready_heap, (0.0, rs.rank))
            push(self.clock_heap, (0.0, rs.rank))

    def pop_ready_policy(self, policy) -> Optional[object]:
        """The next READY rank under a non-canonical
        :class:`~repro.sim.policy.SchedulerPolicy`.

        The executor pops the ready heap inline under the canonical
        policy (smallest ``(clock, rank)``) and calls this otherwise:
        all READY ranks tied at the smallest clock are collected (the
        full legal cohort — duplicate lazy heap entries deduplicate
        through the rank set), the policy picks one, and the rest are
        pushed back untouched.  A singleton cohort consumes no policy
        decision, so RNG draws happen only at real choice points.
        """
        heap = self.ready_heap
        ranks = self.ranks
        pop = heapq.heappop
        first = None
        while heap:
            clock, rank = pop(heap)
            rs = ranks[rank]
            if rs.state == READY and rs.clock == clock:
                first = rs
                break
        if first is None:
            return None
        clock = first.clock
        ties = {first.rank}
        while heap and heap[0][0] == clock:
            _, rank = pop(heap)
            rs = ranks[rank]
            if rs.state == READY and rs.clock == clock:
                ties.add(rank)
        if len(ties) == 1:
            return first
        chosen = policy.pick_rank(sorted(ties))
        push = heapq.heappush
        for rank in ties:
            if rank != chosen:
                push(heap, (clock, rank))
        return ranks[chosen]

    def min_live_clock_excluding(self, exclude_rank: int) -> float:
        """Minimum clock over non-DONE ranks other than ``exclude_rank``.

        The clock heap holds exactly one entry per live rank; stale
        entries (the rank's clock advanced) are refreshed in place, DONE
        ranks are dropped, and an excluded top entry is set aside and
        pushed back — all O(log ranks) amortized per query.
        """
        heap = self.clock_heap
        ranks = self.ranks
        skipped = None
        result = _INF
        while heap:
            clock, rank = heap[0]
            rs = ranks[rank]
            if rs.state == DONE:
                heapq.heappop(heap)
                continue
            if clock != rs.clock:  # stale: clock advanced since push
                heapq.heapreplace(heap, (rs.clock, rank))
                continue
            if rank == exclude_rank:
                skipped = heapq.heappop(heap)
                continue
            result = clock
            break
        if skipped is not None:
            heapq.heappush(heap, skipped)
        return result

    def horizon(self, exclude_rank: int) -> float:
        """Earliest virtual time at which any rank other than
        ``exclude_rank`` could inject a new message."""
        return self.min_live_clock_excluding(exclude_rank) \
            + self.min_latency
