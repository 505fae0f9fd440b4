"""Matching layer of the engine core: channels, candidates, commits.

This module owns the *which message pairs with which receive* half of
the simulator, split out of the monolithic engine:

* per-``(src, dst, comm)`` FIFO **channels** of in-flight messages
  (matched entries are tombstoned in place and purged from heads);
* pending-receive queues **indexed** per ``(dst, src, comm)`` plus a
  per-``(dst, comm)`` wildcard queue, walked in post order;
* fixed **arrival estimates** cached on each message at send time
  (every input — inject time, fixed arrival, fault delay, throttle
  stall — is immutable once the message is in a channel, so the
  float arithmetic runs once, in the same operation order as the
  original per-query computation: bit-identical by construction);
* a per-``(dst, comm)`` **wildcard candidate heap** of channel heads
  ordered by the canonical tie-break tuple ``(est, src, seq)``, used by
  :func:`drain_batch` to answer ANY_SOURCE/ANY_TAG queries in O(log n)
  instead of scanning every live channel.  Rendezvous heads (whose
  estimate depends on the receive post time) are counted per
  ``(dst, comm)``; any query that could involve one — or a
  tag-selective wildcard — falls back to the full scan
  (:meth:`MatchIndex.candidates_for` + ``min``).

The Hypothesis equivalence suite compares the heap against that scan:
the test-only reference loop (``tests/sim/reference_loop.py``) drains
by the full scan alone.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.sim.ops import ANY_SOURCE, ANY_TAG
from repro.sim.requests import Status

_seq_of = attrgetter("seq")

__all__ = ["_Message", "_PendingRecv", "_purge_head", "arrival_est",
           "MatchIndex", "drain_batch"]


class _Message:
    __slots__ = ("seq", "src", "dst", "tag", "comm_id", "nbytes", "post_time",
                 "inject_time", "protocol", "throttled", "charged", "sreq",
                 "arrival", "matched", "fault_delay", "est", "rdv_ready",
                 "rdv_transit")

    def __init__(self, seq, src, dst, tag, comm_id, nbytes, post_time,
                 inject_time, protocol, throttled, charged, sreq,
                 arrival=None, fault_delay=0.0):
        self.seq = seq                # per-engine, allocated in post order
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.nbytes = nbytes
        self.post_time = post_time
        self.inject_time = inject_time
        self.protocol = protocol      # "eager" or "rdv"
        self.throttled = throttled
        self.charged = charged        # counted against dst's unexpected buffer
        self.sreq = sreq
        self.arrival = arrival        # fixed arrival (wire-queued eager)
        self.matched = False          # tombstone: matched, awaiting purge
        self.fault_delay = fault_delay  # injected retransmit/reorder delay
        # cached arrival estimate (set by the engine at send time):
        # eager messages have a fixed ``est``; rendezvous messages carry
        # the (handshake-ready, transit) pair and are estimated per query
        self.est: Optional[float] = None
        self.rdv_ready = 0.0
        self.rdv_transit = 0.0


class _PendingRecv:
    __slots__ = ("seq", "rank", "src", "tag", "comm_id", "post_time", "rreq",
                 "matched")

    def __init__(self, seq, rank, src, tag, comm_id, post_time, rreq):
        self.seq = seq                # per-engine, allocated in post order
        self.rank = rank
        self.src = src
        self.tag = tag
        self.comm_id = comm_id
        self.post_time = post_time
        self.rreq = rreq
        self.matched = False          # tombstone: matched, awaiting purge


def _purge_head(dq: deque) -> None:
    """Drop matched entries from the front of a queue (tombstone purge)."""
    while dq and dq[0].matched:
        dq.popleft()


def arrival_est(msg: _Message, recv_post: float) -> float:
    """Estimated data-arrival time of ``msg`` for a receive posted at
    ``recv_post``.

    Reads the estimate cached at send time.  Eager estimates are fixed;
    rendezvous data moves once both sides are ready, so the handshake
    time folds in the receive post time per query.  The cached values
    were computed with the exact operation order of the original
    per-query arithmetic, so results are bit-identical.
    """
    est = msg.est
    if est is not None:
        return est
    return max(msg.rdv_ready, recv_post) + msg.rdv_transit


class MatchIndex:
    """Channel and pending-receive state with wildcard candidate heaps."""

    __slots__ = ("channels", "chan_live", "channels_by_dst",
                 "srcs_by_dst_comm", "pending_recvs", "pending_live",
                 "recv_index", "wild_index", "unexpected_bytes",
                 "cand_heap", "head_seq", "head_rdv", "rdv_heads",
                 "head_tag", "head_tag_count", "comms_by_dst",
                 "directed_live", "wild_live", "defer_version",
                 "defer_memo", "wild_seen")

    def __init__(self) -> None:
        # (src, dst, comm_id) -> deque of _Message in send order (matched
        # messages are tombstoned in place and purged from the head)
        self.channels: Dict[Tuple[int, int, int], deque] = {}
        # live (unmatched) message count per channel key
        self.chan_live: Dict[Tuple[int, int, int], int] = {}
        # dst -> set of channel keys with unmatched messages
        self.channels_by_dst: Dict[int, set] = {}
        # (dst, comm_id) -> set of srcs with unmatched messages
        self.srcs_by_dst_comm: Dict[Tuple[int, int], set] = {}
        # dst -> deque of _PendingRecv in post order (tombstoned)
        self.pending_recvs: Dict[int, deque] = {}
        # live (unmatched) pending-receive count per dst
        self.pending_live: Dict[int, int] = {}
        # (dst, src, comm_id) -> deque of directed _PendingRecv, post order
        self.recv_index: Dict[Tuple[int, int, int], deque] = {}
        # (dst, comm_id) -> deque of ANY_SOURCE _PendingRecv, post order
        self.wild_index: Dict[Tuple[int, int], deque] = {}
        self.unexpected_bytes: Dict[int, int] = {}
        # -- wildcard candidate heap ------------------------------------
        # (dst, comm_id) -> heap of (est, src, seq, msg) entries, one per
        # *registered channel head*; stale entries (head moved on) are
        # dropped lazily on pop by comparing seq against head_seq
        self.cand_heap: Dict[Tuple[int, int], List[tuple]] = {}
        # channel key -> seq of the currently registered head message
        self.head_seq: Dict[Tuple[int, int, int], int] = {}
        # channel key -> True when the registered head is rendezvous
        self.head_rdv: Dict[Tuple[int, int, int], bool] = {}
        # (dst, comm_id) -> number of live channels with a rdv head;
        # nonzero forces the full scan (rdv estimates depend on the
        # receive post time, so a fixed-key heap cannot order them)
        self.rdv_heads: Dict[Tuple[int, int], int] = {}
        # channel key -> tag of the currently registered head message
        self.head_tag: Dict[Tuple[int, int, int], int] = {}
        # (dst, comm_id) -> {tag: registered-head count}: when every
        # live head carries the queried tag, each channel's head IS its
        # first tag-compatible message, so the candidate heap answers
        # tag-selective wildcards too (the common single-tag case)
        self.head_tag_count: Dict[Tuple[int, int], Dict[int, int]] = {}
        # dst -> set of comm ids with live (unmatched) messages
        self.comms_by_dst: Dict[int, set] = {}
        # dst -> live directed / wildcard pending-receive counts, letting
        # drain_buckets skip bucket classes that cannot contribute
        self.directed_live: Dict[int, int] = {}
        self.wild_live: Dict[int, int] = {}
        # -- deferral memo ----------------------------------------------
        # dst -> version, bumped by every event that can change what a
        # drain at dst would do: any head (re)registration on one of its
        # channels (covers new channels, new comms, head tag/rdv flips —
        # mid-channel appends never move a head) and any pending-receive
        # add or retire at dst
        self.defer_version: Dict[int, int] = {}
        # dst -> (est, version, tag) recorded when a non-relaxed batch
        # drain reduced to a single wildcard bucket answered by the
        # candidate heap and deferred on the horizon.  While the version
        # holds, a re-drain would rediscover the same candidate with the
        # same fixed est, so the whole walk collapses to one horizon
        # check (rank clocks only advance, so the horizon creeps up
        # toward est; the memo dies on the first structural change).
        # One structural change is survivable: a fresh eager head whose
        # est is no earlier than the memoed candidate's and whose tag
        # still satisfies the recorded query cannot change the defer
        # decision — the heap only gained a no-better entry — so
        # ``_set_head`` keeps the memo alive across it.
        self.defer_memo: Dict[int, Tuple[float, int, int]] = {}
        # dsts that have ever posted an ANY_SOURCE receive.  Candidate
        # heaps only answer wildcard queries, so all head bookkeeping
        # (heap pushes, head seq/tag/rdv counts) is skipped for purely
        # directed receivers and activated retroactively — by
        # registering every live channel head — on the first wildcard
        # post (:meth:`_activate_wild`)
        self.wild_seen: set = set()

    def seed(self, nranks: int) -> None:
        for i in range(nranks):
            self.pending_recvs[i] = deque()
            self.pending_live[i] = 0
            self.unexpected_bytes[i] = 0
            self.channels_by_dst[i] = set()
            self.comms_by_dst[i] = set()
            self.directed_live[i] = 0
            self.wild_live[i] = 0
            self.defer_version[i] = 0

    # -- head registration --------------------------------------------------
    def _activate_wild(self, dst: int) -> None:
        """First ANY_SOURCE receive at ``dst``: bring the candidate-head
        bookkeeping up to date by registering the current head of every
        live channel (nothing was tracked while ``dst`` was purely
        directed).  Registration order is a set walk, but the heap is
        keyed by the full ``(est, src, seq)`` tuple, so pop order — the
        only thing read — is order-independent."""
        self.wild_seen.add(dst)
        for key in self.channels_by_dst[dst]:
            chan = self.channels[key]
            _purge_head(chan)
            self._set_head(key, (dst, key[2]), chan[0])

    def _set_head(self, key, dc, msg: Optional[_Message]) -> None:
        """Register ``msg`` as the new head of channel ``key`` (or clear
        the registration when the channel went dead)."""
        dst = dc[0]
        memo = self.defer_memo.get(dst)
        if memo is None:
            self.defer_version[dst] += 1
        elif (msg is not None
              and memo[1] == self.defer_version[dst]
              and msg.est is not None and msg.est >= memo[0]
              and (memo[2] == ANY_TAG or msg.tag == memo[2])):
            # a fresh eager head that arrives no earlier than the
            # deferred candidate and still matches the recorded query:
            # the re-drain's decision cannot change, keep the memo
            pass
        else:
            self.defer_version[dst] += 1
            del self.defer_memo[dst]
        if msg is None:
            old_tag = self.head_tag.pop(key, None)
            if old_tag is not None:
                tc = self.head_tag_count[dc]
                n = tc[old_tag] - 1
                if n:
                    tc[old_tag] = n
                else:
                    del tc[old_tag]
            self.head_seq.pop(key, None)
            if self.head_rdv.get(key, False):
                self.rdv_heads[dc] -= 1
                self.head_rdv[key] = False
            return
        tag = msg.tag
        old_tag = self.head_tag.get(key)
        if old_tag != tag:
            # successive heads usually carry the same tag, in which case
            # the count decrement/increment would cancel — skip both
            self.head_tag[key] = tag
            tc = self.head_tag_count.get(dc)
            if tc is None:
                tc = self.head_tag_count[dc] = {}
            tc[tag] = tc.get(tag, 0) + 1
            if old_tag is not None:
                n = tc[old_tag] - 1
                if n:
                    tc[old_tag] = n
                else:
                    del tc[old_tag]
        old_rdv = self.head_rdv.get(key, False)
        self.head_seq[key] = msg.seq
        est = msg.est
        new_rdv = est is None
        if new_rdv != old_rdv:
            if new_rdv:
                self.rdv_heads[dc] = self.rdv_heads.get(dc, 0) + 1
            else:
                self.rdv_heads[dc] -= 1
            self.head_rdv[key] = new_rdv
        if not new_rdv:
            heap = self.cand_heap.get(dc)
            if heap is None:
                heap = self.cand_heap[dc] = []
            heapq.heappush(heap, (est, msg.src, msg.seq, msg))

    def best_candidate(self, dst: int, comm_id: int) -> Optional[_Message]:
        """Earliest-arriving wildcard candidate by ``(est, src, seq)``.

        Only valid when every live channel head for ``(dst, comm_id)``
        is eager (``rdv_heads`` is zero) and the receive is ANY_TAG —
        then the heap minimum equals the full scan's ``min`` over
        per-channel heads, because the entry key is exactly the scan's
        tie-break tuple and seqs are unique.  Returns None when no live
        channel exists.
        """
        heap = self.cand_heap.get((dst, comm_id))
        if not heap:
            return None
        head_seq = self.head_seq
        while heap:
            entry = heap[0]
            msg = entry[3]
            if msg.matched or head_seq.get(
                    (msg.src, dst, comm_id)) != entry[2]:
                heapq.heappop(heap)  # stale: head moved on
                continue
            return msg
        return None

    # -- message side -------------------------------------------------------
    def add_message(self, msg: _Message) -> None:
        key = (msg.src, msg.dst, msg.comm_id)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = deque()
            self.chan_live[key] = 0
        chan.append(msg)
        live = self.chan_live[key] + 1
        self.chan_live[key] = live
        self.channels_by_dst[msg.dst].add(key)
        dc = (msg.dst, msg.comm_id)
        srcs = self.srcs_by_dst_comm.get(dc)
        if srcs is None:
            srcs = self.srcs_by_dst_comm[dc] = set()
        if not srcs:
            self.comms_by_dst[msg.dst].add(msg.comm_id)
        srcs.add(msg.src)
        if live == 1 and msg.dst in self.wild_seen:
            # the channel was dead, so this message is its first
            # unmatched entry: the new head
            self._set_head(key, dc, msg)

    def retire_message(self, msg: _Message) -> None:
        """Tombstone a matched message and update channel bookkeeping.

        Mid-queue entries are purged lazily once they reach a queue
        head; the candidate-head registration moves to the next live
        head (the deque front after the purge) when the committed
        message was the head.
        """
        msg.matched = True
        key = (msg.src, msg.dst, msg.comm_id)
        live = self.chan_live[key] - 1
        self.chan_live[key] = live
        chan = self.channels[key]
        tracked = msg.dst in self.wild_seen
        was_head = tracked and self.head_seq.get(key) == msg.seq
        _purge_head(chan)
        dc = (msg.dst, msg.comm_id)
        if not live:
            self.channels_by_dst[msg.dst].discard(key)
            srcs = self.srcs_by_dst_comm.get(dc)
            if srcs is not None:
                srcs.discard(msg.src)
                if not srcs:
                    self.comms_by_dst[msg.dst].discard(msg.comm_id)
            if was_head:
                self._set_head(key, dc, None)
        elif was_head:
            # live > 0 guarantees the purge stopped at an unmatched
            # entry, which is the earliest one: the new head
            self._set_head(key, dc, chan[0])

    # -- receive side -------------------------------------------------------
    def add_recv(self, pr: _PendingRecv) -> None:
        self.pending_recvs[pr.rank].append(pr)
        self.pending_live[pr.rank] += 1
        self.defer_version[pr.rank] += 1
        if pr.src == ANY_SOURCE:
            self.wild_live[pr.rank] += 1
            if pr.rank not in self.wild_seen:
                self._activate_wild(pr.rank)
            self.wild_index.setdefault(
                (pr.rank, pr.comm_id), deque()).append(pr)
        else:
            self.directed_live[pr.rank] += 1
            self.recv_index.setdefault(
                (pr.rank, pr.src, pr.comm_id), deque()).append(pr)

    def retire_recv(self, pr: _PendingRecv) -> None:
        pr.matched = True
        self.pending_live[pr.rank] -= 1
        self.defer_version[pr.rank] += 1
        if pr.src == ANY_SOURCE:
            self.wild_live[pr.rank] -= 1
        else:
            self.directed_live[pr.rank] -= 1
        _purge_head(self.pending_recvs[pr.rank])

    def has_compatible_recv(self, dst: int, src: int, tag: int,
                            comm_id: int) -> bool:
        directed = self.recv_index.get((dst, src, comm_id))
        if directed:
            _purge_head(directed)
            for pr in directed:
                if not pr.matched and pr.tag in (tag, ANY_TAG):
                    return True
        wild = self.wild_index.get((dst, comm_id))
        if wild:
            _purge_head(wild)
            for pr in wild:
                if not pr.matched and pr.tag in (tag, ANY_TAG):
                    return True
        return False

    # -- candidate enumeration ----------------------------------------------
    def first_compatible_in_channel(self, key, tag) -> Optional[_Message]:
        chan = self.channels.get(key)
        if not chan:
            return None
        _purge_head(chan)
        for msg in chan:
            if msg.matched:
                continue
            if tag == ANY_TAG or tag == msg.tag:
                return msg
        return None

    def candidates_for(self, pr: _PendingRecv) -> List[_Message]:
        """First tag-compatible unmatched message of each eligible channel."""
        out = []
        if pr.src == ANY_SOURCE:
            srcs = self.srcs_by_dst_comm.get((pr.rank, pr.comm_id))
            if not srcs:
                return out
            for src in sorted(srcs):
                msg = self.first_compatible_in_channel(
                    (src, pr.rank, pr.comm_id), pr.tag)
                if msg is not None:
                    out.append(msg)
        else:
            msg = self.first_compatible_in_channel(
                (pr.src, pr.rank, pr.comm_id), pr.tag)
            if msg is not None:
                out.append(msg)
        return out

    def drain_buckets(self, dst: int):
        """Pending receives at ``dst`` that could currently match or
        freeze, merged in post (seq) order.

        Only directed receives whose channel holds a live message and
        wildcard receives on communicators with live messages are
        considered — everything else provably cannot match during this
        drain (no new messages appear mid-drain), so the full post-order
        queue is never scanned.

        Returns ``(iterator, single_wild_comm)`` where the second item
        is the communicator id when the iteration is exactly one
        wildcard bucket (every candidate shares that comm, letting the
        batch drain stop at the first freeze), else None.  Seqs are
        unique, so the merge order is independent of bucket order.
        """
        buckets = []
        wild_only_comm = None
        if self.directed_live[dst]:
            for key in self.channels_by_dst[dst]:
                src, _, comm_id = key
                directed = self.recv_index.get((dst, src, comm_id))
                if directed:
                    _purge_head(directed)
                    if directed:
                        buckets.append(directed)
        if self.wild_live[dst]:
            for comm_id in self.comms_by_dst[dst]:
                wild = self.wild_index.get((dst, comm_id))
                if wild:
                    _purge_head(wild)
                    if wild:
                        buckets.append(wild)
                        wild_only_comm = comm_id
        if len(buckets) == 1:
            single = wild_only_comm if (
                wild_only_comm is not None
                and buckets[0] is self.wild_index.get(
                    (dst, wild_only_comm))) else None
            return iter(buckets[0]), single
        if not buckets:
            return iter(()), None
        # buckets are short in practice (one per live neighbor channel),
        # so flatten-and-sort beats heapq.merge's generator machinery;
        # seqs are unique, making the order identical
        prs: List[_PendingRecv] = []
        for b in buckets:
            prs.extend(b)
        prs.sort(key=_seq_of)
        return iter(prs), None


def drain_batch(self, dst: int, relaxed: bool) -> bool:
    """The engine's one drain: match pending receives at ``dst``.

    Bound as ``Engine._drain`` under every schedule policy; ``self`` is
    the engine.  Receives are scanned in post order: a directed receive
    matches its channel's first tag-compatible message, a wildcard
    receive an ``(est, src, seq)``-earliest candidate only when
    horizon-safe, and an unsafe wildcard freezes its communicator.  One
    pass is exhaustive (a commit only removes state).  Returns True if
    any match was committed.  These are the semantics of the full
    candidate scan (the test-only reference loop's drain), with two pure
    accelerations:

    * ANY_SOURCE/ANY_TAG candidates come from the per-``(dst, comm)``
      candidate heap when every live channel head is eager, instead of
      scanning every channel (`MatchIndex.best_candidate` documents the
      equivalence); tag-selective wildcards and rendezvous heads fall
      back to the full scan;
    * when the drain walks a single wildcard bucket, the first freeze
      ends it (every remaining receive shares the frozen communicator).

    Under a non-canonical schedule policy the heap is skipped (it
    answers canonical-minimum queries only), so the deferral memo is
    never written.  The horizon still gates *when* a wildcard matches,
    on the earliest candidate's arrival; once it may, the policy picks
    *which* of two or more candidates it takes
    (:meth:`~repro.sim.policy.SchedulerPolicy.choose_match`).
    """
    m = self._match
    if not m.channels_by_dst[dst] or not m.pending_live[dst]:
        # nothing to match: no live messages or no live receives — a
        # full scan would walk empty buckets and commit nothing
        return False
    if not relaxed:
        memo = m.defer_memo.get(dst)
        if memo is not None:
            if memo[1] == m.defer_version[dst]:
                if memo[0] > self._horizon(dst):
                    # still futile: same sole candidate, still past the
                    # horizon — re-defer without walking anything
                    self._deferred_dsts.add(dst)
                    return False
                del m.defer_memo[dst]
            else:
                del m.defer_memo[dst]
    # None under the canonical policy: the heap and the canonical
    # minimum answer every wildcard
    policy = None if self.policy.canonical else self.policy
    any_progress = False
    frozen_comms: set = set()
    # the horizon is constant for the whole drain (no rank clock moves
    # while it runs), so one lazy computation serves every candidate
    hzn = None
    rdv_heads = m.rdv_heads
    srcs_by_dc = m.srcs_by_dst_comm
    tag_counts = m.head_tag_count
    best_candidate = m.best_candidate
    retire_message = m.retire_message
    retire_recv = m.retire_recv
    model = self.model
    unexpected_copy = model.unexpected_copy
    recv_overhead = model.recv_overhead
    rx_busy = self._rx_busy
    dirty_add = self._dirty.add
    unexpected = m.unexpected_bytes
    horizon = self._horizon
    it, single_wild_comm = m.drain_buckets(dst)
    for pr in it:
        if pr.matched or pr.comm_id in frozen_comms:
            continue
        if pr.src == ANY_SOURCE:
            best = None
            heap_best = False
            dc = (dst, pr.comm_id)
            if policy is None and not rdv_heads.get(dc):
                if pr.tag == ANY_TAG:
                    best = best_candidate(dst, pr.comm_id)
                else:
                    # tag-selective wildcard: the heap is the full scan's
                    # answer when every live head carries this tag (each
                    # head is then its channel's first compatible)
                    srcs = srcs_by_dc.get(dc)
                    tc = tag_counts.get(dc)
                    if srcs and tc is not None and \
                            tc.get(pr.tag, 0) == len(srcs):
                        best = best_candidate(dst, pr.comm_id)
                if best is not None:
                    arr = best.est
                    heap_best = True
            if best is None:
                cands = m.candidates_for(pr)
                if not cands:
                    # nothing available yet; this wildcard blocks any
                    # later recv on its communicator from stealing what
                    # it might match
                    if pr.comm_id == single_wild_comm:
                        break
                    frozen_comms.add(pr.comm_id)
                    continue
                best = min(cands, key=lambda msg: (
                    arrival_est(msg, pr.post_time), msg.src, msg.seq))
                arr = arrival_est(best, pr.post_time)
            if not relaxed:
                if hzn is None:
                    hzn = horizon(dst)
                if arr > hzn:
                    self._deferred_dsts.add(dst)
                    if pr.comm_id == single_wild_comm:
                        if heap_best and not m.directed_live[dst]:
                            # sole wildcard bucket, heap-answered, no
                            # directed receives that a mid-channel
                            # message could unblock: until
                            # defer_version moves, every re-drain
                            # reduces to `arr > horizon`
                            m.defer_memo[dst] = (arr,
                                                 m.defer_version[dst],
                                                 pr.tag)
                        break
                    frozen_comms.add(pr.comm_id)
                    continue
            if policy is None or len(cands) == 1:
                msg = best
            else:
                msg = policy.choose_match(pr, cands)
                arr = arrival_est(msg, pr.post_time)
        else:
            msg = m.first_compatible_in_channel(
                (pr.src, dst, pr.comm_id), pr.tag)
            if msg is None:
                continue
            arr = arrival_est(msg, pr.post_time)
        # commit: the receive completes once the data is here, the
        # receive is posted and the receiver's serial message processor
        # is free
        self.matches_committed += 1
        post = pr.post_time
        completion = post if post >= arr else arr
        busy = rx_busy[dst]
        if busy > completion:
            completion = busy
        if arr < post and msg.protocol == "eager":
            completion += unexpected_copy(msg.nbytes)
        completion += recv_overhead(msg.nbytes)
        rx_busy[dst] = completion
        rreq = pr.rreq
        rreq.completion = completion
        rreq.status = Status(msg.src, msg.tag, msg.nbytes)
        rreq.message = msg
        if rreq.waiter is not None:
            dirty_add(rreq.waiter)
        sreq = msg.sreq
        if sreq.completion is None:
            sreq.completion = completion
            sreq.status = Status(msg.src, msg.tag, msg.nbytes)
            if sreq.waiter is not None:
                dirty_add(sreq.waiter)
        if msg.charged:
            unexpected[dst] -= msg.nbytes
        retire_message(msg)
        retire_recv(pr)
        any_progress = True
    return any_progress
