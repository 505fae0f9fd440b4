"""Unit tests for inter-rank trace merging."""

import pytest

from repro import obs
from repro.scalatrace import merge
from repro.scalatrace.compress import CompressionQueue
from repro.scalatrace.merge import (TraceMergeAccumulator, merge_node_lists,
                                    merge_traces, set_merge_fastpath)
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.scalatrace.serialize import dumps_trace
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet


@pytest.fixture
def no_fastpath():
    prev = set_merge_fastpath(False)
    yield
    set_merge_fastpath(prev)


def cs(n):
    return Callsite.synthetic("app", n)


def build_rank(rank, script, world=4, comm_table=None):
    """script: list of (op, kwargs) appended for one rank."""
    q = CompressionQueue(rank)
    for op, kw in script:
        q.append_event(op, kw.pop("cs", cs(1)), kw.pop("comm", 0), **kw)
    return Trace(world, q.nodes, comm_table or {0: tuple(range(world))})


class TestRankMerging:
    def test_identical_events_union_ranks(self):
        traces = [build_rank(r, [("Barrier", {"size": 0})]) for r in range(4)]
        merged = merge_traces(traces)
        assert merged.node_count() == 1
        node = merged.nodes[0]
        assert list(node.ranks) == [0, 1, 2, 3]

    def test_ring_peers_become_relative_expr(self):
        world = 4
        traces = []
        for r in range(world):
            traces.append(build_rank(
                r, [("Send", {"peer": (r + 1) % world, "size": 64, "tag": 0})],
                world=world))
        merged = merge_traces(traces)
        assert merged.node_count() == 1
        node = merged.nodes[0]
        assert node.peer.expr is not None
        assert node.peer.expr.kind == "rel"
        assert node.peer.expr.mod == world
        # decompression resolves each rank's peer correctly
        for r in range(world):
            evs = list(merged.iter_rank(r))
            assert evs[0].peer == (r + 1) % world

    def test_irregular_peers_fall_back_to_table(self):
        peers = {0: 3, 1: 3, 2: 0, 3: 1}
        traces = [build_rank(r, [("Send", {"peer": peers[r], "size": 8,
                                           "tag": 0})]) for r in range(4)]
        merged = merge_traces(traces)
        assert merged.node_count() == 1
        for r in range(4):
            (ev,) = merged.iter_rank(r)
            assert ev.peer == peers[r]

    def test_different_callsites_interleave(self):
        # rank 0 sends from line 1; ranks 1-3 receive at line 2
        traces = [build_rank(0, [("Send", {"cs": cs(1), "peer": 1,
                                           "size": 8, "tag": 0})])]
        for r in range(1, 4):
            traces.append(build_rank(r, [("Recv", {"cs": cs(2), "peer": 0,
                                                   "size": 8, "tag": 0})]))
        merged = merge_traces(traces)
        assert merged.node_count() == 2
        send, recv = merged.nodes
        assert send.op == "Send" and list(send.ranks) == [0]
        assert recv.op == "Recv" and list(recv.ranks) == [1, 2, 3]

    def test_loops_merge_when_counts_equal(self):
        def script(r):
            return [("Send", {"peer": (r + 1) % 4, "size": 8, "tag": 0})
                    for _ in range(100)]

        traces = [build_rank(r, script(r)) for r in range(4)]
        merged = merge_traces(traces)
        assert merged.node_count() == 2  # LoopNode + EventNode
        loop = merged.nodes[0]
        assert isinstance(loop, LoopNode)
        assert loop.count == 100
        assert list(loop.ranks) == [0, 1, 2, 3]

    def test_loops_with_different_counts_stay_separate(self):
        t0 = build_rank(0, [("Send", {"peer": 1, "size": 8, "tag": 0})] * 10,
                        world=2)
        t1 = build_rank(1, [("Send", {"peer": 0, "size": 8, "tag": 0})] * 20,
                        world=2)
        merged = merge_traces([t0, t1])
        assert merged.event_count(0) == 10
        assert merged.event_count(1) == 20

    def test_mixed_structure_inside_loop(self):
        # all ranks loop 50x; rank 0's body sends, others' bodies receive
        t0 = build_rank(0, [("Send", {"cs": cs(1), "peer": 1, "size": 8,
                                      "tag": 0})] * 50, world=2)
        t1 = build_rank(1, [("Recv", {"cs": cs(2), "peer": 0, "size": 8,
                                      "tag": 0})] * 50, world=2)
        merged = merge_traces([t0, t1])
        # loops can't merge (bodies disjoint) but totals must be preserved
        assert merged.event_count(0) == 50
        assert merged.event_count(1) == 50
        assert [e.op for e in merged.iter_rank(0)] == ["Send"] * 50

    def test_time_histograms_merge_across_ranks(self):
        traces = []
        for r in range(2):
            q = CompressionQueue(r)
            q.append_event("Barrier", cs(1), 0, size=0, delta_t=1e-3 * (r + 1))
            traces.append(Trace(2, q.nodes, {0: (0, 1)}))
        merged = merge_traces(traces)
        node = merged.nodes[0]
        assert node.time.count == 2
        assert node.time.total == pytest.approx(3e-3)

    def test_trace_size_constant_in_ranks(self):
        def world_trace(world):
            traces = []
            for r in range(world):
                script = [("Isend", {"cs": cs(1), "peer": (r + 1) % world,
                                     "size": 1024, "tag": 0}),
                          ("Irecv", {"cs": cs(2),
                                     "peer": (r - 1) % world,
                                     "size": 0, "tag": 0}),
                          ("Waitall", {"cs": cs(3), "wait_offsets": (0, 1)})
                          ] * 100
                traces.append(build_rank(r, script, world=world))
            return merge_traces(traces).node_count()

        assert world_trace(4) == world_trace(16) == world_trace(32)

    def test_sizes_varying_by_rank_become_expr_or_table(self):
        traces = [build_rank(r, [("Send", {"peer": 0, "size": 100 * (r + 1),
                                           "tag": 0})]) for r in range(4)]
        merged = merge_traces(traces)
        assert merged.node_count() == 1
        for r in range(4):
            (ev,) = merged.iter_rank(r)
            assert ev.size == 100 * (r + 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([])

    def test_single_trace_passthrough(self):
        t = build_rank(0, [("Barrier", {"size": 0})], world=1,
                       comm_table={0: (0,)})
        merged = merge_traces([t])
        assert merged.node_count() == 1

    def test_disjoint_op_sequences_interleave(self):
        # No call site is shared between the two ranks: nothing aligns,
        # the merge is a pure interleave preserving both program orders.
        t0 = build_rank(0, [("Send", {"cs": cs(1), "peer": 1, "size": 8,
                                      "tag": 0}),
                            ("Send", {"cs": cs(2), "peer": 1, "size": 8,
                                      "tag": 1})], world=2)
        t1 = build_rank(1, [("Recv", {"cs": cs(3), "peer": 0, "size": 8,
                                      "tag": 0}),
                            ("Recv", {"cs": cs(4), "peer": 0, "size": 8,
                                      "tag": 1})], world=2)
        merged = merge_traces([t0, t1])
        assert merged.node_count() == 4
        assert [e.op for e in merged.iter_rank(0)] == ["Send", "Send"]
        assert [e.op for e in merged.iter_rank(1)] == ["Recv", "Recv"]


def ring_traces(world, iters=60):
    """Iterative SPMD workload: every rank records the same structure."""
    traces = []
    for r in range(world):
        script = [("Isend", {"cs": cs(1), "peer": (r + 1) % world,
                             "size": 1024, "tag": 0}),
                  ("Irecv", {"cs": cs(2), "peer": (r - 1) % world,
                             "size": 0, "tag": 0}),
                  ("Waitall", {"cs": cs(3), "wait_offsets": (0, 1)})
                  ] * iters
        script.append(("Finalize", {"cs": cs(9), "size": 0}))
        traces.append(build_rank(r, script, world=world))
    return traces


def reference_level_order(traces):
    """The seed's merge_traces: level-order pairwise LCS reduction."""
    world_size = traces[0].world_size
    comm_table = {}
    for t in traces:
        comm_table.update(t.comm_table)
    level = list(traces)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nodes = merge_node_lists(level[i].nodes, level[i + 1].nodes,
                                     comm_table)
            nxt.append(Trace(world_size, nodes, comm_table))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    result = level[0]
    result.comm_table = comm_table
    return result


class TestTreeReductionByteIdentity:
    """The streaming accumulator and the fast path must both be
    invisible: merge output stays byte-identical to the seed's
    level-order pairwise LCS reduction."""

    @pytest.mark.parametrize("world", [2, 3, 5, 8, 13])
    def test_accumulator_matches_reference(self, world, no_fastpath):
        traces = ring_traces(world)
        expected = dumps_trace(reference_level_order(ring_traces(world)))
        assert dumps_trace(merge_traces(traces)) == expected

    @pytest.mark.parametrize("world", [2, 3, 8])
    def test_fastpath_matches_lcs(self, world):
        with_fp = dumps_trace(merge_traces(ring_traces(world)))
        prev = set_merge_fastpath(False)
        try:
            without_fp = dumps_trace(merge_traces(ring_traces(world)))
        finally:
            set_merge_fastpath(prev)
        assert with_fp == without_fp

    def test_fastpath_hits_counted_and_lcs_skipped(self):
        with obs.instrumented() as inst:
            merge_traces(ring_traces(4))
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        # 3 pair merges, each hitting at the top level (plus once per
        # merged loop body) — and no LCS DP cell is ever touched.
        assert counters.get("scalatrace.merge_fastpath_hits", 0) >= 3
        assert "scalatrace.lcs_cells" not in counters

    def test_lcs_cells_counted_without_fastpath(self, no_fastpath):
        with obs.instrumented() as inst:
            merge_traces(ring_traces(4))
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters.get("scalatrace.lcs_cells", 0) > 0
        assert "scalatrace.merge_fastpath_hits" not in counters

    def test_lcs_counters_cover_only_built_alignments(self, no_fastpath):
        def loop(rank, sites):
            body = [EventNode("Isend", cs(s), 0, RankSet.single(rank),
                              peer=ParamField.of(0), size=ParamField.of(8),
                              tag=ParamField.of(0)) for s in sites]
            return LoopNode(2, body, RankSet.single(rank))

        # rank 0's loop could merge with either of rank 1's; the second
        # shares more and wins, so the first pair's body DP is off-path
        xs = [loop(0, [1])]
        ys = [loop(1, [1]), loop(1, [1, 2])]
        with obs.instrumented() as inst:
            merged = merge_node_lists(xs, ys, {0: (0, 1)})
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert [len(n.body) for n in merged] == [1, 2]
        # top level 1x2 + the chosen pair's 1x2 body; not the 1x1 body
        assert counters["scalatrace.lcs_cells"] == 4
        assert counters["scalatrace.lcs_alignments"] == 2

    def test_equal_count_loops_with_shared_events_fall_back(self):
        # Two distinct loops with equal counts that share a call site:
        # the one configuration where the diagonal splice could diverge
        # from the DP's cross-merge preference — the fast path must
        # decline, keeping bytes identical to the LCS baseline.
        def ranked(r):
            shared = ("Isend", {"cs": cs(7), "peer": (r + 1) % 2,
                                "size": 8, "tag": 0})
            a = [("Allreduce", {"cs": cs(1), "size": 8}), shared] * 30
            b = [("Allreduce", {"cs": cs(2), "size": 8}), shared] * 30
            return build_rank(r, a + b + [("Finalize", {"cs": cs(9),
                                                        "size": 0})],
                              world=2)

        with_fp = dumps_trace(merge_traces([ranked(0), ranked(1)]))
        prev = set_merge_fastpath(False)
        try:
            without_fp = dumps_trace(merge_traces([ranked(0), ranked(1)]))
        finally:
            set_merge_fastpath(prev)
        assert with_fp == without_fp


class TestTraceMergeAccumulator:
    def test_streaming_add_equals_merge_traces(self):
        traces = ring_traces(6)
        acc = TraceMergeAccumulator()
        for t in ring_traces(6):
            acc.add(t)
        assert dumps_trace(acc.result()) == dumps_trace(merge_traces(traces))

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            TraceMergeAccumulator().result()

    def test_partials_stay_logarithmic(self):
        acc = TraceMergeAccumulator(world_size=64)
        for t in ring_traces(64):
            acc.add_nodes(t.nodes, t.comm_table)
            assert len(acc._partials) <= 7  # log2(64) + 1
        assert len(acc._partials) == 1  # 64 is a power of two
        acc.result()

    @pytest.mark.parametrize("enabled, aligned", [(True, 1), (False, 7)])
    def test_equal_shapes_share_one_alignment(self, monkeypatch, enabled,
                                              aligned):
        # SPMD ranks present one shape, and merging two lists of that
        # shape gives it again, so one alignment serves all 7 merges of
        # 8 ranks.  With the fast path off every merge aligns afresh.
        made = []

        class Counting(merge._PairMerge):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(merge, "_PairMerge", Counting)
        prev = set_merge_fastpath(enabled)
        try:
            with obs.instrumented() as inst:
                merged = dumps_trace(merge_traces(ring_traces(8)))
        finally:
            set_merge_fastpath(prev)
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters["scalatrace.pair_merges"] == 7
        assert len(made) == aligned
        assert merged == dumps_trace(reference_level_order(ring_traces(8)))

    def test_live_node_count_tracks_partials(self):
        acc = TraceMergeAccumulator(world_size=4)
        assert acc.live_node_count() == 0
        for t in ring_traces(4):
            acc.add(t)
        assert acc.live_node_count() == acc.result().node_count()
