"""Unit tests for repro.util.rankset."""

import pytest

from repro.conceptual.printer import render_expr
from repro.generator.emit_conceptual import rank_predicate
from repro.util.rankset import RankSet


class TestConstruction:
    def test_empty(self):
        rs = RankSet()
        assert len(rs) == 0
        assert not rs
        assert list(rs) == []

    def test_dedup_and_sort(self):
        rs = RankSet([3, 1, 2, 3, 1])
        assert list(rs) == [1, 2, 3]

    def test_single(self):
        assert list(RankSet.single(7)) == [7]

    def test_interval_inclusive(self):
        assert list(RankSet.interval(2, 6)) == [2, 3, 4, 5, 6]

    def test_interval_stride(self):
        assert list(RankSet.interval(0, 10, 3)) == [0, 3, 6, 9]

    def test_interval_bad_stride(self):
        with pytest.raises(ValueError):
            RankSet.interval(0, 4, 0)

    def test_world(self):
        assert list(RankSet.world(4)) == [0, 1, 2, 3]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RankSet([-1, 2])


class TestSetAlgebra:
    def test_contains(self):
        rs = RankSet([0, 5, 9])
        assert 5 in rs
        assert 4 not in rs
        assert "x" not in rs

    def test_union(self):
        assert list(RankSet([0, 2]) | RankSet([1, 2])) == [0, 1, 2]

    def test_intersection(self):
        assert list(RankSet([0, 1, 2]) & RankSet([1, 2, 3])) == [1, 2]

    def test_difference(self):
        assert list(RankSet([0, 1, 2]) - RankSet([1])) == [0, 2]

    def test_subset_disjoint(self):
        assert RankSet([1, 2]).issubset(RankSet([0, 1, 2, 3]))
        assert not RankSet([1, 4]).issubset(RankSet([0, 1, 2]))
        assert RankSet([0]).isdisjoint(RankSet([1, 2]))
        assert not RankSet([0, 1]).isdisjoint(RankSet([1]))

    def test_equality_and_hash(self):
        a = RankSet([0, 2, 4])
        b = RankSet.interval(0, 4, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != RankSet([0, 2])

    def test_min_max(self):
        rs = RankSet([5, 1, 9])
        assert rs.min() == 1
        assert rs.max() == 9

    def test_min_empty_raises(self):
        with pytest.raises(ValueError):
            RankSet().min()


class TestCompactForm:
    def test_contiguous_run(self):
        assert RankSet.interval(0, 99).serialize() == "0:99"

    def test_strided_run(self):
        assert RankSet.interval(0, 30, 2).serialize() == "0:30:2"

    def test_singleton(self):
        assert RankSet.single(42).serialize() == "42"

    def test_two_elements_stay_scalar(self):
        # Two elements never pay for a stride descriptor.
        assert RankSet([3, 10]).serialize() == "3,10"

    def test_mixed(self):
        rs = RankSet([0, 1, 2, 3, 10, 20, 30, 40])
        assert rs.serialize() == "0:3,10:40:10"

    def test_empty_serialize(self):
        assert RankSet().serialize() == "{}"

    def test_roundtrip(self):
        for rs in (RankSet(), RankSet([7]), RankSet.interval(0, 63),
                   RankSet.interval(1, 31, 2), RankSet([0, 1, 5, 9, 13])):
            assert RankSet.parse(rs.serialize()) == rs


class TestPredicateRendering:
    """The emitter's predicate AST, checked in its printed form."""

    @staticmethod
    def pred(ranks, world=8):
        expr = rank_predicate(ranks, "t", world)
        return None if expr is None else render_expr(expr)

    def test_full_world_is_empty_predicate(self):
        assert self.pred(RankSet.world(8)) is None

    def test_singleton(self):
        assert self.pred(RankSet.single(3)) == "t = 3"

    def test_prefix(self):
        assert self.pred(RankSet.interval(0, 3)) == "t <= 3"

    def test_suffix(self):
        assert self.pred(RankSet.interval(4, 7)) == "t >= 4"

    def test_inner_interval(self):
        assert self.pred(RankSet.interval(2, 5)) == "t >= 2 /\\ t <= 5"

    def test_stride_full_span(self):
        # Every third task: 0, 3, 6 in a 8-task world -> includes bound.
        assert self.pred(RankSet.interval(0, 6, 3)) == \
            "t MOD 3 = 0 /\\ t <= 6"

    def test_stride_inner(self):
        assert self.pred(RankSet.interval(1, 5, 2)) == \
            "t MOD 2 = 1 /\\ t >= 1 /\\ t <= 5"

    def test_irregular_membership(self):
        assert self.pred(RankSet([0, 1, 5])) == "t IS IN {0, 1, 5}"


class TestLazyRuns:
    def test_runs_factored_on_first_use(self):
        rs = RankSet([0, 2, 4, 6, 9])
        assert rs._runs is None
        assert rs.runs == ((0, 6, 2), (9, 9, 1))
        assert rs._runs is rs.runs

    def test_union_leaves_runs_unfactored(self):
        rs = RankSet.interval(0, 3) | RankSet.interval(4, 9)
        assert rs._runs is None
        assert rs.serialize() == "0:9"
