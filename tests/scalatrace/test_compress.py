"""Unit tests for intra-rank loop compression (RSD/PRSD folding)."""

import pytest

from repro.scalatrace.compress import CompressionQueue, compress_node_list
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.scalatrace.serialize import dumps_trace, loads_trace
from repro.util.callsite import Callsite
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

from tests.scalatrace.reference_compress import ReferenceQueue


def cs(n):
    return Callsite.synthetic("app", n)


def make_queue():
    return CompressionQueue(rank=0)


class TestFolding:
    def test_single_event_stays_event(self):
        q = make_queue()
        q.append_event("Send", cs(1), 0, peer=1, size=10, tag=0)
        assert len(q.nodes) == 1
        assert isinstance(q.nodes[0], EventNode)

    def test_two_identical_events_fold_to_loop(self):
        q = make_queue()
        for _ in range(2):
            q.append_event("Send", cs(1), 0, peer=1, size=10, tag=0)
        assert len(q.nodes) == 1
        loop = q.nodes[0]
        assert isinstance(loop, LoopNode)
        assert loop.count == 2
        assert isinstance(loop.body[0], EventNode)

    def test_n_iterations_single_loop(self):
        q = make_queue()
        for _ in range(1000):
            q.append_event("Irecv", cs(1), 0, peer=-1, size=0, tag=0)
            q.append_event("Isend", cs(2), 0, peer=1, size=1024, tag=0)
            q.append_event("Waitall", cs(3), 0, wait_offsets=(0, 1))
        assert len(q.nodes) == 1
        loop = q.nodes[0]
        assert loop.count == 1000
        assert len(loop.body) == 3
        assert [n.op for n in loop.body] == ["Irecv", "Isend", "Waitall"]

    def test_different_callsites_do_not_fold(self):
        q = make_queue()
        q.append_event("Send", cs(1), 0, peer=1, size=10, tag=0)
        q.append_event("Send", cs(2), 0, peer=1, size=10, tag=0)
        assert len(q.nodes) == 2

    def test_different_wait_offsets_do_not_fold(self):
        q = make_queue()
        q.append_event("Wait", cs(1), 0, wait_offsets=(0,))
        q.append_event("Wait", cs(1), 0, wait_offsets=(1,))
        assert len(q.nodes) == 2

    def test_varying_size_folds_into_value_seq(self):
        q = make_queue()
        for size in (100, 200, 300):
            q.append_event("Send", cs(1), 0, peer=1, size=size, tag=0)
        assert len(q.nodes) == 1
        loop = q.nodes[0]
        assert loop.count == 3
        ev = loop.body[0]
        assert list(ev.size.seq) == [100, 200, 300]

    def test_varying_peer_preserved(self):
        q = make_queue()
        for peer in (1, 2, 1, 2):
            q.append_event("Send", cs(1), 0, peer=peer, size=8, tag=0)
        trace = Trace(4, q.nodes)
        peers = [e.peer for e in trace.iter_rank(0)]
        assert peers == [1, 2, 1, 2]

    def test_nested_loops(self):
        # outer loop of 5: inner loop of 3 sends then one barrier
        q = make_queue()
        for _ in range(5):
            for _ in range(3):
                q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0)
            q.append_event("Barrier", cs(2), 0, size=0)
        assert len(q.nodes) == 1
        outer = q.nodes[0]
        assert isinstance(outer, LoopNode) and outer.count == 5
        inner = outer.body[0]
        assert isinstance(inner, LoopNode) and inner.count == 3
        assert outer.body[1].op == "Barrier"

    def test_decompression_roundtrip_exact(self):
        q = make_queue()
        script = []
        for i in range(50):
            q.append_event("Send", cs(1), 0, peer=(i % 4), size=8 * i, tag=0)
            script.append(("Send", i % 4, 8 * i))
            if i % 5 == 0:
                q.append_event("Allreduce", cs(2), 0, size=64)
                script.append(("Allreduce", None, 64))
        trace = Trace(8, q.nodes)
        replayed = [(e.op, e.peer, e.size) for e in trace.iter_rank(0)]
        assert replayed == script

    def test_compression_is_sublinear(self):
        def nodes_for(iters):
            q = make_queue()
            for _ in range(iters):
                q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0)
                q.append_event("Recv", cs(2), 0, peer=1, size=8, tag=0)
            return Trace(2, q.nodes).node_count()

        assert nodes_for(10) == nodes_for(1000)

    def test_timing_histograms_accumulate(self):
        q = make_queue()
        for i in range(10):
            q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0,
                           delta_t=1e-6 * (i + 1))
        loop = q.nodes[0]
        hist = loop.body[0].time
        assert hist.count == 10
        assert hist.total == pytest.approx(sum(1e-6 * (i + 1)
                                               for i in range(10)))

    def test_negative_delta_clamped(self):
        q = make_queue()
        q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0, delta_t=-0.5)
        assert q.nodes[0].time.total == 0.0


class TestIrregularTails:
    def test_partial_repeat_not_folded(self):
        # A B A  -> the trailing A must not disappear into a bogus loop
        q = make_queue()
        q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0)
        q.append_event("Recv", cs(2), 0, peer=1, size=8, tag=0)
        q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0)
        trace = Trace(2, q.nodes)
        ops = [e.op for e in trace.iter_rank(0)]
        assert ops == ["Send", "Recv", "Send"]

    def test_prologue_body_epilogue(self):
        q = make_queue()
        q.append_event("Bcast", cs(0), 0, size=4, root=0)
        for _ in range(100):
            q.append_event("Send", cs(1), 0, peer=1, size=8, tag=0)
        q.append_event("Reduce", cs(9), 0, size=4, root=0)
        trace = Trace(2, q.nodes)
        ops = [e.op for e in trace.iter_rank(0)]
        assert ops == ["Bcast"] + ["Send"] * 100 + ["Reduce"]
        assert trace.node_count() <= 4


def event(site, peers, op="Send"):
    """A rank-0 event node with one timing sample per peer value: the
    first a first-iteration sample, the rest subsequent ones."""
    time_first, time_rest = TimeHistogram(), TimeHistogram()
    for k in range(len(peers)):
        (time_rest if k else time_first).add(1.0 + k)
    return EventNode(op, cs(site), 0, RankSet.single(0), instances=1,
                     peer=ParamField(seq=ValueSeq(peers)),
                     size=ParamField.of(8), time_first=time_first,
                     time_rest=time_rest)


def dump(nodes):
    return dumps_trace(Trace(2, nodes))


class TestAppendNode:
    """The queue folds a deep copy of what ``append_node`` is given."""

    def test_event_argument_unchanged_when_its_copy_folds(self):
        node = event(1, [1])
        before = dump([node])
        q = make_queue()
        q.append_node(node)
        q.append_event("Send", cs(1), 0, peer=0, size=8, delta_t=2.0)
        # the copy became the loop's body and took the second iteration
        assert len(q.nodes) == 1 and q.nodes[0].count == 2
        assert list(q.nodes[0].body[0].peer.seq) == [1, 0]
        assert dump([node]) == before

    def test_loop_argument_unchanged_when_coalesced_with_itself(self):
        loop = LoopNode(3, [event(1, [1, 0, 1]), event(2, [0, 0, 1], "Recv")],
                        RankSet.single(0))
        before = dump([loop])
        q = make_queue()
        q.append_node(loop)
        q.append_node(loop)
        assert len(q.nodes) == 1 and q.nodes[0].count == 6
        assert list(q.nodes[0].body[0].peer.seq) == [1, 0, 1] * 2
        assert dump([loop]) == before


class TestNodesWithoutSamples:
    """A node without a timing sample per rank has no instance count to
    extend its parameter sequences by, so it never folds: recompressing
    such nodes keeps them as they are, in the queue and in the
    literal-rules oracle alike, and the result reloads."""

    def nodes(self):
        def bare():
            return EventNode("Send", cs(1), 0, RankSet.single(0),
                             peer=ParamField.of(1), size=ParamField.of(8))
        ranks = RankSet.single(0)
        return [bare() for _ in range(4)] + [
            LoopNode(2, [bare()], ranks) for _ in range(2)]

    def test_recompression_keeps_them_and_reloads(self):
        text = dump(compress_node_list(self.nodes()))
        reloaded = loads_trace(text).nodes
        assert len(reloaded) == 6 and dump(reloaded) == text
        ref = ReferenceQueue(0)
        for node in self.nodes():
            ref.append_node(node)
        assert dump(ref.nodes) == text
