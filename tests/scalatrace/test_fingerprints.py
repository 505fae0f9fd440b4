"""Fingerprint table and replay-cursor invariants of the compression queue.

The streaming compressor gates its coalesce/absorb/fold rules on Rabin
fingerprints of node windows and replays steady-state loop iterations
through a cursor that skips node construction entirely.  Both are pure
accelerations: these tests pin the fingerprint algebra and check — both on
hand-built streams and differentially against the rule-at-a-time slow
path — that the compressed output is identical.
"""

import random

import pytest

from repro.scalatrace.compress import CompressionQueue, _fp_pow
from repro.scalatrace.rsd import FP_BASE, FP_MOD, EventNode, LoopNode, Trace
from repro.scalatrace.serialize import dumps_trace
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet


def cs(n):
    return Callsite.synthetic("app", n)


def stream(q, events):
    for op, site, kw in events:
        q.append_event(op, cs(site), 0, delta_t=1e-6, **kw)


def phase_events(iters):
    """A loop-shaped stream: the canonical cursor-engaging workload."""
    out = []
    for i in range(iters):
        out.append(("Irecv", 1, {"peer": -1, "size": 0, "tag": 0}))
        out.append(("Isend", 2, {"peer": (i % 4) + 1, "size": 1024, "tag": 0}))
        out.append(("Waitall", 3, {"wait_offsets": (0, 1)}))
    return out


class TestNodeFingerprints:
    def test_identical_events_share_fp(self):
        ranks = RankSet.single(0)
        a = EventNode("Send", cs(1), 0, ranks, wait_offsets=None)
        b = EventNode("Send", cs(1), 0, ranks, wait_offsets=None)
        assert a.fp == b.fp

    def test_identity_fields_change_fp(self):
        ranks = RankSet.single(0)
        base = EventNode("Send", cs(1), 0, ranks)
        assert base.fp != EventNode("Recv", cs(1), 0, ranks).fp
        assert base.fp != EventNode("Send", cs(2), 0, ranks).fp
        assert base.fp != EventNode("Send", cs(1), 3, ranks).fp
        assert base.fp != EventNode("Send", cs(1), 0, ranks,
                                    wait_offsets=(0,)).fp

    def test_param_values_do_not_change_fp(self):
        # fp covers the mergeability identity only; parameter *values* are
        # what ValueSeqs absorb, so they must not perturb the fingerprint.
        from repro.scalatrace.rsd import ParamField
        ranks = RankSet.single(0)
        a = EventNode("Send", cs(1), 0, ranks, peer=ParamField.of(3))
        b = EventNode("Send", cs(1), 0, ranks, peer=ParamField.of(9))
        assert a.fp == b.fp

    def test_bump_count_matches_fresh_construction(self):
        ranks = RankSet.single(0)
        body = [EventNode("Send", cs(1), 0, ranks)]
        bumped = LoopNode(2, body, ranks)
        bumped.bump_count(3)
        fresh = LoopNode(5, [EventNode("Send", cs(1), 0, ranks)], ranks)
        assert bumped.fp == fresh.fp
        assert bumped.body_fp == fresh.body_fp


class TestPrefixTable:
    def _check_table(self, q):
        nodes = q.nodes            # flushes any cursor state
        pref = q._prefix
        assert len(pref) == len(nodes) + 1
        acc = 0
        for i, node in enumerate(nodes):
            assert pref[i] == acc
            acc = (acc * FP_BASE + node.fp) % FP_MOD
        assert pref[-1] == acc

    def test_table_tracks_folding_stream(self):
        q = CompressionQueue(rank=0)
        stream(q, phase_events(50))
        self._check_table(q)

    def test_table_tracks_mixed_stream(self):
        q = CompressionQueue(rank=0)
        rng = random.Random(3)
        for _ in range(400):
            site = rng.randint(1, 5)
            q.append_event("Send", cs(site), 0, peer=rng.randint(0, 3),
                           size=64, tag=0, delta_t=1e-6)
            self._check_table(q)

    def test_window_fp_matches_direct_hash(self):
        q = CompressionQueue(rank=0)
        for site in (1, 2, 3, 4):
            q.append_event("Send", cs(site), 0, peer=1, size=8, tag=0)
        n = len(q.nodes)
        for a in range(n):
            for b in range(a, n):
                acc = 0
                for node in q.nodes[a:b]:
                    acc = (acc * FP_BASE + node.fp) % FP_MOD
                assert q._window_fp(a, b) == acc

    def test_fp_pow_table(self):
        assert _fp_pow(0) == 1
        assert _fp_pow(1) == FP_BASE
        assert _fp_pow(7) == pow(FP_BASE, 7, FP_MOD)


class TestReplayCursor:
    def test_nodes_property_flushes_partial_window(self):
        # Engage the cursor with a steady loop, then stop mid-iteration:
        # reading .nodes must materialise the two buffered events exactly
        # as the slow path would have appended them.
        events = phase_events(20)
        partial = events[:len(events) - 1]   # 20th Waitall missing

        q = CompressionQueue(rank=0)
        stream(q, partial)
        seen = q.nodes
        ref = CompressionQueue(rank=0)
        ref._try_engage = lambda: None       # cursor never engages
        stream(ref, partial)

        assert dumps_trace(Trace(1, seen)) == dumps_trace(Trace(1, ref.nodes))
        # the partial iteration's events sit after the folded loop
        assert isinstance(seen[0], LoopNode)
        assert [n.op for n in seen[1:]] == ["Irecv", "Isend"]

    def test_cursor_reengages_after_flush(self):
        q = CompressionQueue(rank=0)
        stream(q, phase_events(10))
        assert q._frames
        _ = q.nodes                          # external read flushes
        assert not q._frames
        stream(q, phase_events(10))          # steady state resumes
        assert q._frames
        assert len(q.nodes) == 1
        assert q.nodes[0].count == 20

    def test_mixed_append_node_flushes_first(self):
        q = CompressionQueue(rank=0)
        stream(q, phase_events(10))
        foreign = EventNode("Barrier", cs(9), 0, RankSet.single(0))
        q.append_node(foreign)
        assert not q._frames
        assert q.nodes[-1].op == "Barrier"

    @pytest.mark.parametrize("seed", range(12))
    def test_differential_cursor_vs_slow_path(self, seed):
        """Random loopy streams compress identically with the cursor
        disabled — the fast path may only change speed, never output."""
        rng = random.Random(seed)
        events = []
        for _ in range(rng.randint(2, 5)):
            body = []
            for j in range(rng.randint(1, 3)):
                body.append((rng.choice(["Send", "Irecv", "Allreduce"]),
                             rng.randint(1, 6),
                             {"peer": rng.randint(0, 3), "size": 64,
                              "tag": 0}))
            for _ in range(rng.randint(1, 30)):
                events.extend(body)
                if rng.random() < 0.1:
                    events.append(("Wait", 7, {"wait_offsets": (0,)}))

        fast = CompressionQueue(rank=0)
        stream(fast, events)
        slow = CompressionQueue(rank=0)
        slow._try_engage = lambda: None
        stream(slow, events)
        assert dumps_trace(Trace(1, fast.nodes)) == \
            dumps_trace(Trace(1, slow.nodes))
