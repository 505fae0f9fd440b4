"""Unit tests for absolute-rank conversion (§4.2)."""


from repro.generator.absolutize import (absolutize_p2p,
                                        absolutize_rank_field,
                                        absolutize_value)
from repro.scalatrace.rsd import EventNode, ParamField
from repro.util.callsite import Callsite
from repro.util.expr import ANY_SOURCE, ParamExpr
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

WORLD = 8


class TestValueConversion:
    def test_plain(self):
        assert absolutize_value(2, (1, 3, 5, 7)) == 5

    def test_wildcard_preserved(self):
        assert absolutize_value(ANY_SOURCE, (1, 3)) == ANY_SOURCE


class TestSeqFields:
    def test_identity_comm_untouched(self):
        f = ParamField(seq=ValueSeq([1, 2, 1]))
        out = absolutize_rank_field(f, [0, 1], tuple(range(WORLD)), WORLD)
        assert out is f

    def test_subcomm_values_mapped(self):
        # comm ranks (0, 2, 4, 6): comm peer 1 is world rank 2
        f = ParamField(seq=ValueSeq([1, 3, 1]))
        out = absolutize_rank_field(f, [0, 2], (0, 2, 4, 6), WORLD)
        assert list(out.seq) == [2, 6, 2]


class TestExprFields:
    def test_ring_on_even_subcomm(self):
        # comm = even ranks; comm-relative ring (r+1) mod 4 becomes the
        # world-space expression (w+2) mod 8
        f = ParamField(expr=ParamExpr.rel(1, mod=4))
        out = absolutize_rank_field(f, [0, 2, 4, 6], (0, 2, 4, 6), WORLD)
        assert out.expr is not None
        for w, expected in ((0, 2), (2, 4), (4, 6), (6, 0)):
            assert out.expr.evaluate(w) == expected

    def test_const_root_mapped(self):
        f = ParamField(expr=ParamExpr.const(2))
        out = absolutize_rank_field(f, [1, 3], (1, 3, 5, 7), WORLD)
        assert out.expr.is_constant()
        assert out.expr.constant_value() == 5

    def test_irregular_subcomm_falls_back_to_table(self):
        # comm ranks (0, 1, 5): comm ring has no affine world form
        f = ParamField(expr=ParamExpr.rel(1, mod=3))
        out = absolutize_rank_field(f, [0, 1, 5], (0, 1, 5), WORLD)
        assert out.expr.kind == "table"
        assert out.expr.evaluate(0) == 1
        assert out.expr.evaluate(1) == 5
        assert out.expr.evaluate(5) == 0

    def test_wildcard_const_survives(self):
        f = ParamField(expr=ParamExpr.const(ANY_SOURCE))
        out = absolutize_rank_field(f, [0, 2], (0, 2), WORLD)
        assert out.expr.constant_value() == ANY_SOURCE


class TestRankMapFields:
    def test_rekeyed_to_world_ranks(self):
        # comm (1, 3): comm rank 0 -> world 1, comm rank 1 -> world 3
        f = ParamField(rank_map={0: ValueSeq([1, 0]),
                                 1: ValueSeq([0, 1])})
        out = absolutize_rank_field(f, [1, 3], (1, 3), WORLD)
        assert set(out.rank_map) == {1, 3}
        assert list(out.rank_map[1]) == [3, 1]
        assert list(out.rank_map[3]) == [1, 3]


class TestP2PNode:
    """A p2p node's peer maps keys and values to world ranks; its size
    and tag map keys only."""

    @staticmethod
    def _send(ranks, size, tag):
        return EventNode("Send", Callsite.synthetic("site", 0), 1,
                         RankSet(ranks), peer=ParamField.of(0), size=size,
                         tag=tag)

    def test_size_table_rekeyed_values_kept(self):
        # comm (4, 5, 6, 7): comm ranks 1..3 are world ranks 5..7
        node = self._send([5, 6, 7],
                          ParamField(expr=ParamExpr.from_table(
                              {1: 8, 2: 16, 3: 24})),
                          ParamField(expr=ParamExpr.rel(0)))
        peer, size, tag = absolutize_p2p(node, (4, 5, 6, 7), WORLD)
        assert peer.constant_value() == 4
        assert size.expr.table == {5: 8, 6: 16, 7: 24}
        assert tag.expr.table == {5: 1, 6: 2, 7: 3}

    def test_rank_map_rekeyed_values_kept(self):
        size = ParamField(rank_map={0: ValueSeq([2, 3]),
                                    1: ValueSeq([4, 5])})
        node = self._send([1, 3], size, ParamField.of(7))
        _, out, tag = absolutize_p2p(node, (1, 3), WORLD)
        assert {w: list(s) for w, s in out.rank_map.items()} == \
            {1: [2, 3], 3: [4, 5]}
        assert tag.constant_value() == 7

    def test_world_communicator_untouched(self):
        size = ParamField(expr=ParamExpr.from_table({0: 8, 1: 16}))
        node = self._send([0, 1], size, None)
        _, out, tag = absolutize_p2p(node, tuple(range(WORLD)), WORLD)
        assert out is size and tag is None
