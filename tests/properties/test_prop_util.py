"""Property-based tests (hypothesis) for the utility substrate."""

import itertools

from hypothesis import example, given, seed
from hypothesis import strategies as st

from repro.generator.emit_conceptual import rank_predicate
from repro.util.expr import ParamExpr
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

ranks_lists = st.lists(st.integers(min_value=0, max_value=200),
                       min_size=0, max_size=50)
value_lists = st.lists(st.integers(min_value=-100, max_value=10_000),
                       min_size=0, max_size=60)
durations = st.lists(st.floats(min_value=0, max_value=10.0,
                               allow_nan=False), min_size=0, max_size=40)


class TestRankSetProperties:
    @given(ranks_lists)
    def test_serialize_roundtrip(self, ranks):
        rs = RankSet(ranks)
        assert RankSet.parse(rs.serialize()) == rs

    @given(ranks_lists, ranks_lists)
    def test_union_is_set_union(self, a, b):
        assert set(RankSet(a) | RankSet(b)) == set(a) | set(b)

    @given(ranks_lists, ranks_lists)
    def test_difference_intersection_partition(self, a, b):
        ra, rb = RankSet(a), RankSet(b)
        assert (ra - rb) | (ra & rb) == ra

    @seed(2011)
    @given(ranks_lists, ranks_lists, st.booleans())
    def test_union_equals_construction(self, a, b, above):
        # ``above``: b lies wholly above a, the binomial merges' order
        if above and a:
            b = [max(a) + 1 + r for r in b]
        for left, right in ((a, b), (b, a)):
            got, want = RankSet(left) | RankSet(right), RankSet(a + b)
            assert got._ranks == want._ranks
            assert got.runs == want.runs
            assert hash(got) == hash(want)
            assert got.serialize() == want.serialize()

    @given(ranks_lists)
    def test_iteration_sorted_unique(self, ranks):
        out = list(RankSet(ranks))
        assert out == sorted(set(ranks))

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=20))
    def test_predicate_selects_exactly_members(self, ranks):
        world = 64
        rs = RankSet(ranks)
        pred = rank_predicate(rs, "t", world)
        if pred is None:
            assert len(rs) == world
            return
        # evaluate the predicate through the coNCePTuaL expression engine
        from repro.conceptual import eval_expr
        selected = {t for t in range(world)
                    if eval_expr(pred, {"t": t, "num_tasks": world})}
        assert selected == set(rs)

    @seed(2023)
    @given(ranks_lists, ranks_lists, st.booleans(), st.booleans())
    def test_union_of_lazy_sets_equals_construction(self, a, b, above,
                                                    touch):
        """Runs are factored on first use: a union of sets whose runs
        were (``touch``) or were never factored equals the set built from
        both lists in ranks, runs, hash and serialized form."""
        if above and a:
            b = [max(a) + 1 + r for r in b]
        left, right = RankSet(a), RankSet(b)
        if touch:
            left.runs, right.serialize()
        got, want = left.union(right), RankSet(list(left) + list(right))
        assert got._ranks == want._ranks
        assert got.runs == want.runs
        assert hash(got) == hash(want)
        assert got.serialize() == want.serialize()


class TestValueSeqProperties:
    @given(value_lists)
    def test_roundtrip_iteration(self, values):
        assert list(ValueSeq(values)) == values

    @given(value_lists)
    def test_serialize_roundtrip(self, values):
        s = ValueSeq(values)
        assert ValueSeq.parse(s.serialize()) == s

    @given(value_lists)
    def test_indexing_matches_list(self, values):
        s = ValueSeq(values)
        assert [s[i] for i in range(len(values))] == values


class TestHistogramProperties:
    @given(durations)
    def test_total_and_count_exact(self, samples):
        h = TimeHistogram()
        for x in samples:
            h.add(x)
        assert h.count == len(samples)
        assert abs(h.total - sum(samples)) <= 1e-9 * max(len(samples), 1)

    @given(durations, durations)
    def test_merge_additive(self, a, b):
        ha, hb = TimeHistogram(), TimeHistogram()
        for x in a:
            ha.add(x)
        for x in b:
            hb.add(x)
        ha.merge(hb)
        assert ha.count == len(a) + len(b)
        assert abs(ha.total - (sum(a) + sum(b))) <= 1e-6

    @given(durations)
    def test_replay_preserves_total(self, samples):
        h = TimeHistogram()
        for x in samples:
            h.add(x)
        drawn = list(itertools.islice(h.replay_values(), h.count))
        assert abs(sum(drawn) - h.total) <= 1e-6 * max(h.count, 1)

    @given(durations)
    def test_serialize_roundtrip(self, samples):
        h = TimeHistogram()
        for x in samples:
            h.add(x)
        h2 = TimeHistogram.parse(h.serialize())
        assert h2.count == h.count
        assert abs(h2.total - h.total) <= 1e-9


@st.composite
def _expr_on(draw, ranks, comm_size):
    """A const, plain rel, rel mod N or table expression over ``ranks``."""
    kind = draw(st.sampled_from(("const", "rel", "mod", "table")))
    if kind == "const":
        return ParamExpr.const(draw(st.integers(0, comm_size)))
    if kind == "rel":
        return ParamExpr.rel(draw(st.integers(-2, 2)))
    if kind == "mod":
        return ParamExpr.rel(draw(st.integers(0, comm_size - 1)),
                             mod=comm_size)
    return ParamExpr.from_table(
        {r: draw(st.integers(0, comm_size - 1)) for r in ranks})


@st.composite
def _merge_cases(draw):
    """(a, a's ranks, b, b's ranks, comm_size): disjoint, overlapping or
    single-rank unions, b often equal to a (the merge's shortcuts)."""
    comm_size = draw(st.integers(1, 12))
    union = draw(st.sampled_from(("disjoint", "overlapping", "single")))
    if union == "single":
        mine = theirs = [draw(st.integers(0, comm_size - 1))]
    else:
        ranks = st.lists(st.integers(0, comm_size - 1), min_size=1,
                         max_size=comm_size, unique=True)
        mine, theirs = draw(ranks), draw(ranks)
        if union == "disjoint":
            theirs = [r for r in theirs if r not in mine] or \
                [max(mine) + 1]
    a = draw(_expr_on(mine, comm_size))
    b = a if draw(st.booleans()) else draw(_expr_on(theirs, comm_size))
    if b.kind == "table":
        b = ParamExpr.from_table({r: b.table.get(r, 0) for r in theirs})
    return a, mine, b, theirs, draw(st.sampled_from((None, comm_size)))


class TestParamExprProperties:
    @seed(2011)
    @given(_merge_cases())
    # the merge cases of tests/util/test_expr.py
    @example((ParamExpr.rel(1), [0, 1], ParamExpr.rel(1), [2, 3], None))
    @example((ParamExpr.const(0), [0, 1], ParamExpr.const(9), [2], None))
    @example((ParamExpr.rel(1), [0, 1, 2], ParamExpr.const(0), [3], 4))
    def test_merge_is_inference_over_both(self, case):
        a, mine, b, theirs, comm_size = case
        got = a.merge(mine, b, theirs, comm_size)
        want = ParamExpr.infer(
            list(a.samples(mine)) + list(b.samples(theirs)), comm_size)
        assert got == want
        assert got.serialize() == want.serialize()

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                    min_size=1, max_size=32, unique_by=lambda p: p[0]),
           st.one_of(st.none(), st.integers(min_value=2, max_value=64)))
    def test_inference_reproduces_samples(self, pairs, comm_size):
        expr = ParamExpr.infer(pairs, comm_size)
        for rank, value in pairs:
            assert expr.evaluate(rank) == value

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                    min_size=1, max_size=32, unique_by=lambda p: p[0]))
    def test_serialize_roundtrip(self, pairs):
        expr = ParamExpr.infer(pairs)
        assert ParamExpr.parse(expr.serialize()) == expr

    @given(st.integers(-10, 10), st.integers(0, 100))
    def test_rel_is_offset(self, delta, rank):
        assert ParamExpr.rel(delta).evaluate(rank) == rank + delta
