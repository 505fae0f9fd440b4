"""Differential tests: the rank-class rebuild against the per-rank oracle.

``rebuild_trace`` compresses one template per rank class and its
accumulator shares pair alignments between merges of equal shape;
``rebuild_oracle`` rebuilds every rank through its own queue and aligns
every merge afresh.  Aligned and resolved dumps (``force=True``) and the
generated source must match byte for byte on every app preset at np
4/8/9/16, on sweep3d, lu and race at np 64, on a wildcard hidden in a
``rank_map`` peer, and on random synthetic traces — with the merge's
fast paths (identical-sequence splice, shared alignments) on and off.
"""

from functools import lru_cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import APPS, make_app
from repro.apps.registry import valid_rank_counts
from repro.generator import (align_collectives, generate_benchmark,
                             resolve_wildcards, trace_application)
from repro.generator.rebuild import rebuild_trace
from repro.generator.traversal import TraversalResult
from repro.mpi import ANY_SOURCE
from repro.scalatrace.merge import set_merge_fastpath
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.scalatrace.serialize import dumps_trace
from repro.sim import SimpleModel
from repro.util.callsite import Callsite
from repro.util.expr import ParamExpr
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

from tests.generator import rebuild_oracle
from tests.generator.rebuild_oracle import per_rank_rebuild
from tests.generator.test_wildcard import rank_map_wildcard_app


@pytest.fixture(params=[True, False], ids=["fastpath", "lcs"])
def fastpath(request):
    prev = set_merge_fastpath(request.param)
    yield request.param
    set_merge_fastpath(prev)


@lru_cache(maxsize=None)
def _trace(app, np):
    if app == "rank-map-wildcard":
        return trace_application(rank_map_wildcard_app, np,
                                 model=SimpleModel())
    return trace_application(make_app(app, np), np)


def _outputs(trace):
    aligned = align_collectives(trace, force=True)
    resolved = resolve_wildcards(aligned, force=True)
    return (dumps_trace(aligned), dumps_trace(resolved),
            generate_benchmark(trace).source)


def _assert_matches_oracle(trace):
    got = _outputs(trace)
    with per_rank_rebuild():
        want = _outputs(trace)
    for what, a, b in zip(("aligned", "resolved", "source"), got, want):
        assert a == b, f"{what} differs from the per-rank oracle"


APP_CELLS = [(app, np) for app in sorted(APPS)
             for np in valid_rank_counts(app, [4, 8, 9, 16])]
APP_CELLS += [("rank-map-wildcard", 4)]
LARGE_CELLS = [("sweep3d", 64), ("lu", 64), ("race", 64)]


class TestAppPresetsByteIdentical:
    @pytest.mark.parametrize("app,np", APP_CELLS,
                             ids=[f"{a}-np{n}" for a, n in APP_CELLS])
    def test_aligned_resolved_source(self, app, np, fastpath):
        _assert_matches_oracle(_trace(app, np))

    @pytest.mark.slow
    @pytest.mark.parametrize("app,np", LARGE_CELLS,
                             ids=[f"{a}-np{n}" for a, n in LARGE_CELLS])
    def test_np64(self, app, np, fastpath):
        _assert_matches_oracle(_trace(app, np))


class TestRankClassesConstantInP:
    """ScalaTrace's premise, as the rebuild sees it: the number of rank
    classes does not grow with P (sweep3d 12, lu 6)."""

    @staticmethod
    def _classes(app, np):
        with obs.instrumented() as inst:
            generate_benchmark(_trace(app, np))
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        return counters["generator.rank_classes"]

    @pytest.mark.parametrize("app,classes", [("sweep3d", 12), ("lu", 6)])
    def test_np16_and_np64(self, app, classes):
        assert self._classes(app, 16) == classes
        assert self._classes(app, 64) == classes

    @pytest.mark.slow
    @pytest.mark.parametrize("app,classes", [("sweep3d", 12), ("lu", 6)])
    def test_np256(self, app, classes):
        assert self._classes(app, 256) == classes


# -- random synthetic traces -------------------------------------------------
# Small worlds with overlapping rank sets (so ranks fall into several
# classes), loops, sub-communicator events whose world ranks map to
# permuted communicator ranks, every peer encoding (seq, const/rel/table
# expressions, rank_map), wildcard receives with random resolutions,
# random canonical call sites for collectives, and random timing; nested
# loops make the queue fold histograms in a nested order.

_SITES = [Callsite.synthetic("prop", i) for i in range(4)]
#: sums of these depend on the order of addition
_TIMES = (0.0, 0.1, 0.2, 0.3, 0.7)


def _hist(draw):
    h = TimeHistogram()
    for t in draw(st.lists(st.sampled_from(_TIMES), max_size=4)):
        h.add(t)
    return h


def _field(draw, kind, cranks, count, world, values):
    """A ParamField of the given kind over communicator ranks."""
    if kind == "seq":
        if draw(st.booleans()):
            return ParamField.of(draw(values))
        return ParamField(seq=ValueSeq(draw(st.lists(
            values, min_size=count, max_size=count))))
    if kind == "const":
        return ParamField(expr=ParamExpr.const(draw(values)))
    if kind == "rel":
        return ParamField(expr=ParamExpr.rel(draw(st.integers(1, 3)),
                                             mod=world))
    if kind == "table":
        return ParamField(expr=ParamExpr.from_table(
            {r: draw(values) for r in cranks}))
    return ParamField(rank_map={
        r: ValueSeq(draw(st.lists(values, min_size=count, max_size=count)))
        for r in cranks})


@st.composite
def _worlds(draw):
    world = draw(st.integers(2, 5))
    members = draw(st.lists(st.integers(0, world - 1), min_size=2,
                            max_size=world, unique=True))
    if members == sorted(members):
        members.reverse()   # communicator rank != world rank
    comm_table = {0: tuple(range(world)), 1: tuple(members)}
    kinds = st.sampled_from(("seq", "const", "rel", "table", "map"))

    def event(mult):
        op = draw(st.sampled_from(("Send", "Isend", "Recv", "Irecv",
                                   "Allreduce", "Bcast", "Wait")))
        comm = draw(st.sampled_from((0, 1)))
        ranks = draw(st.lists(st.sampled_from(comm_table[comm]),
                              min_size=1, unique=True))
        index = {w: i for i, w in enumerate(comm_table[comm])}
        cranks = sorted(index[r] for r in ranks)
        instances = draw(st.integers(1, 2))
        count = instances * mult
        fields = {}
        if op in ("Send", "Isend", "Recv", "Irecv"):
            peers = (st.integers(-1, world - 1) if op.endswith("ecv")
                     else st.integers(0, world - 1))
            fields["peer"] = _field(draw, draw(kinds), cranks, count, world,
                                    peers)
            fields["size"] = _field(draw, "seq", cranks, count, world,
                                    st.sampled_from((8, 64)))
            fields["tag"] = ParamField.of(0)
        elif op != "Wait":
            fields["size"] = _field(draw, draw(st.sampled_from(
                ("seq", "map"))), cranks, count, world,
                st.sampled_from((8, 64)))
            if op == "Bcast":
                fields["root"] = ParamField.of(0)
        return EventNode(op, draw(st.sampled_from(_SITES)), comm,
                         RankSet(ranks), instances,
                         wait_offsets=(0,) if op == "Wait" else None,
                         time_first=_hist(draw), time_rest=_hist(draw),
                         **fields)

    def node(mult, depth):
        if depth == 2 or draw(st.booleans()):
            return event(mult)
        count = draw(st.integers(1, 3))
        body = [node(mult * count, depth + 1)
                for _ in range(draw(st.integers(1, 3)))]
        return LoopNode(count, body, RankSet(draw(st.lists(
            st.integers(0, world - 1), min_size=1, unique=True))))

    nodes = [node(1, 0) for _ in range(draw(st.integers(1, 4)))]
    trace = Trace(world, nodes, comm_table)

    result = TraversalResult()
    for rank in range(world):
        for ev in trace.iter_rank(rank):
            key = (id(ev.node), rank, ev.instance)
            if ev.op in ("Allreduce", "Bcast") and draw(st.booleans()):
                result.callsite_map[key] = draw(st.sampled_from(_SITES))
            if ev.op in ("Recv", "Irecv") and ev.peer == ANY_SOURCE:
                result.resolutions[key] = draw(st.integers(0, world - 1))
    return trace, result


class TestRandomTracesByteIdentical:
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["fastpath", "lcs"])
    @seed(2011)
    @given(case=_worlds())
    @settings(max_examples=150, deadline=None)
    def test_class_rebuild_equals_oracle(self, enabled, case):
        trace, result = case
        prev = set_merge_fastpath(enabled)
        try:
            got = dumps_trace(rebuild_trace(trace, result))
            want = dumps_trace(rebuild_oracle.rebuild_trace(trace, result))
        finally:
            set_merge_fastpath(prev)
        assert got == want
