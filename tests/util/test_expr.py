"""Unit tests for repro.util.expr (ParamExpr inference and rendering)."""

import pytest

from repro.util.expr import ParamExpr


class TestInference:
    def test_const(self):
        e = ParamExpr.infer([(0, 5), (1, 5), (7, 5)])
        assert e.kind == "const"
        assert e.evaluate(3) == 5
        assert e.is_constant() and e.constant_value() == 5

    def test_rel_positive(self):
        e = ParamExpr.infer([(0, 1), (1, 2), (2, 3)])
        assert e.kind == "rel" and e.delta == 1 and e.mod is None
        assert e.evaluate(10) == 11

    def test_rel_negative(self):
        e = ParamExpr.infer([(1, 0), (2, 1)])
        assert e.kind == "rel" and e.delta == -1

    def test_rel_mod_ring(self):
        # ring send on 4 ranks: 0->1, 1->2, 2->3, 3->0
        e = ParamExpr.infer([(0, 1), (1, 2), (2, 3), (3, 0)], comm_size=4)
        assert e.kind == "rel" and e.delta == 1 and e.mod == 4
        assert e.evaluate(3) == 0

    def test_table_fallback(self):
        pairs = [(0, 3), (1, 3), (2, 0)]
        e = ParamExpr.infer(pairs, comm_size=4)
        assert e.kind == "table"
        assert all(e.evaluate(r) == v for r, v in pairs)

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            ParamExpr.infer([])

    def test_table_missing_rank_raises(self):
        e = ParamExpr.from_table({0: 1})
        with pytest.raises(KeyError):
            e.evaluate(5)


class TestMerge:
    def test_merge_two_rel_fragments(self):
        # each half inferred separately still merges to a single rel expr
        a = ParamExpr.infer([(0, 1), (1, 2)])
        b = ParamExpr.infer([(2, 3), (3, 4)])
        m = a.merge([0, 1], b, [2, 3])
        assert m.kind == "rel" and m.delta == 1

    def test_merge_const_with_conflicting_const_becomes_table(self):
        a = ParamExpr.const(0)
        b = ParamExpr.const(9)
        m = a.merge([0, 1], b, [2])
        assert m.kind == "table"
        assert m.evaluate(1) == 0 and m.evaluate(2) == 9

    def test_merge_finds_mod_form(self):
        a = ParamExpr.infer([(0, 1), (1, 2), (2, 3)])
        b = ParamExpr.const(0)  # rank 3 sends to 0
        m = a.merge([0, 1, 2], b, [3], comm_size=4)
        assert m.kind == "rel" and m.mod == 4


class TestSerialization:
    @pytest.mark.parametrize("e", [
        ParamExpr.const(42),
        ParamExpr.rel(3),
        ParamExpr.rel(-2, mod=16),
        ParamExpr.from_table({0: 5, 3: 1}),
    ])
    def test_roundtrip(self, e):
        assert ParamExpr.parse(e.serialize()) == e

    def test_eq_hash(self):
        assert ParamExpr.rel(1) == ParamExpr.rel(1)
        assert hash(ParamExpr.const(1)) == hash(ParamExpr.const(1))
        assert ParamExpr.rel(1) != ParamExpr.rel(1, mod=4)

    def test_bad_parse(self):
        with pytest.raises(ValueError):
            ParamExpr.parse("Z9")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ParamExpr("bogus")
