"""Differential tests: the weight-only pair merge against the eager DP.

The production merge aligns on weights alone and builds merged nodes
only along the traceback; ``eager_merge`` is the pre-change DP that
builds a merged node for every cell it tries.  Both must serialize
byte-identically — on every app preset (the tracer's Finalize merge and
the generator's re-merge in Algorithms 1 and 2) and on random node
lists — with the identical-sequence fast path on and off.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import APPS, make_app
from repro.apps.registry import valid_rank_counts
from repro.generator import align_collectives, resolve_wildcards
from repro.generator.api import trace_application
from repro.scalatrace.merge import (_diagonal_safe, merge_traces,
                                    set_merge_fastpath)
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.scalatrace.serialize import dumps_trace
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet

from tests.scalatrace.eager_merge import eager_merge


@pytest.fixture(params=[True, False], ids=["fastpath", "lcs"])
def fastpath(request):
    prev = set_merge_fastpath(request.param)
    yield request.param
    set_merge_fastpath(prev)


def _rank_counts(app):
    """One even and (where the app allows one) one odd rank count: odd
    counts leave an incomplete merge tree that the accumulator ties off."""
    even = valid_rank_counts(app, [8, 4])[:1]
    odd = valid_rank_counts(app, [9, 5])[:1]
    return even + odd


APP_CELLS = [(app, np) for app in sorted(APPS) for np in _rank_counts(app)]


def _pipeline_dumps(app, np):
    trace = trace_application(make_app(app, np), np)
    aligned = align_collectives(trace, force=True)
    resolved = resolve_wildcards(aligned, force=True)
    return [dumps_trace(t) for t in (trace, aligned, resolved)]


class TestAppPresetsByteIdentical:
    @pytest.mark.parametrize("app,np", APP_CELLS,
                             ids=[f"{a}-np{n}" for a, n in APP_CELLS])
    def test_trace_aligned_resolved(self, app, np, fastpath):
        weight_only = _pipeline_dumps(app, np)
        with eager_merge():
            eager = _pipeline_dumps(app, np)
        for stage, got, want in zip(("trace", "aligned", "resolved"),
                                    weight_only, eager):
            assert got == want, f"{stage} dump differs"


# -- random node lists ------------------------------------------------------
# A node spec is ("E", op, site, instances, peer offset, size, tag) or
# ("L", count, body specs).  Small alphabets make collisions likely: equal
# counts, shared call sites, sig-equal events with different parameter
# presence, and collectives crossing p2p events in order.

_event_spec = st.tuples(
    st.just("E"), st.sampled_from(("Isend", "Irecv", "Allreduce", "Bcast")),
    st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
    st.sampled_from((8, 64)), st.integers(0, 1))

_node_spec = st.recursive(
    _event_spec,
    lambda inner: st.tuples(st.just("L"), st.integers(2, 3),
                            st.lists(inner, min_size=1, max_size=3)
                            .map(tuple)),
    max_leaves=8)


def _realize(spec, rank, world):
    ranks = RankSet.single(rank)
    if spec[0] == "L":
        _, count, body = spec
        return LoopNode(count, [_realize(s, rank, world) for s in body],
                        ranks)
    _, op, site, instances, offset, size, tag = spec
    callsite = Callsite.synthetic("prop", site)
    if op in ("Isend", "Irecv"):
        return EventNode(op, callsite, 0, ranks, instances,
                         peer=ParamField.of((rank + offset) % world),
                         size=ParamField.of(size), tag=ParamField.of(tag))
    # tag==1 drops the size: same signature, different presence pattern
    return EventNode(op, callsite, 0, ranks, instances,
                     size=ParamField.of(size) if tag == 0 else None,
                     root=(ParamField.of(offset % world)
                           if op == "Bcast" else None))


@st.composite
def _worlds(draw, base_lists=st.lists(_node_spec, min_size=1, max_size=6)):
    """Per-rank spec lists around one base list: rank 0 records the
    base; every other rank records the base too (SPMD: the fast path
    fires), a permutation of it (crossing orders: collective-vs-p2p
    priority conflicts), or a list of its own."""
    world = draw(st.integers(2, 5))
    base = draw(base_lists)
    ranks = [base]
    for _ in range(world - 1):
        kind = draw(st.sampled_from(("same", "permuted", "own")))
        if kind == "same":
            ranks.append(base)
        elif kind == "permuted":
            ranks.append(draw(st.permutations(base)))
        else:
            ranks.append(draw(st.lists(_node_spec, max_size=6)))
    return ranks


_C = ("E", "Allreduce", 1, 1, 0, 8, 0)
_S = ("E", "Isend", 3, 1, 1, 8, 0)
_T = ("E", "Irecv", 2, 1, 1, 8, 0)

#: [S] [C S T] [T]: cross-merging each loop with its neighbour on the
#: other rank outweighs the diagonal (the middle collective counts twice)
_BRIDGED = [("L", 2, (_S,)), ("L", 2, (_C, _S, _T)), ("L", 2, (_T,))]


@st.composite
def _shared_site_loops(draw):
    """Two or three equal-count loops, at least two sharing a call site,
    inside a random list — the shape ``_diagonal_safe`` declines.  Bodies
    are ordered picks from one collective and two p2p sites."""
    count = draw(st.integers(2, 3))
    bodies = draw(st.lists(
        st.lists(st.sampled_from((_C, _S, _T)), min_size=1, max_size=3,
                 unique=True).map(
                     lambda b: tuple(sorted(b, key=(_C, _S, _T).index))),
        min_size=2, max_size=3).filter(
            lambda bs: any(set(a) & set(b)
                           for k, a in enumerate(bs) for b in bs[k + 1:])))
    before = draw(st.lists(_node_spec, max_size=2))
    after = draw(st.lists(_node_spec, max_size=2))
    return before + [("L", count, body) for body in bodies] + after


def _merge_dumps(specs):
    world = len(specs)
    table = {0: tuple(range(world))}
    traces = [Trace(world, [_realize(s, r, world) for s in rank_specs], table)
              for r, rank_specs in enumerate(specs)]
    weight_only = dumps_trace(merge_traces(traces))
    with eager_merge():
        eager = dumps_trace(merge_traces(traces))
    return weight_only, eager


class TestRandomNodeListsByteIdentical:
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["fastpath", "lcs"])
    @given(specs=_worlds())
    @settings(max_examples=60, deadline=None)
    def test_random_worlds(self, enabled, specs):
        prev = set_merge_fastpath(enabled)
        try:
            weight_only, eager = _merge_dumps(specs)
        finally:
            set_merge_fastpath(prev)
        assert weight_only == eager

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["fastpath", "lcs"])
    @given(specs=_worlds(base_lists=_shared_site_loops()))
    @example(specs=[_BRIDGED, _BRIDGED])
    @settings(max_examples=40, deadline=None)
    def test_equal_count_loops_sharing_call_sites(self, enabled, specs):
        assert not _diagonal_safe([_realize(s, 0, len(specs))
                                   for s in specs[0]])
        prev = set_merge_fastpath(enabled)
        try:
            weight_only, eager = _merge_dumps(specs)
        finally:
            set_merge_fastpath(prev)
        assert weight_only == eager
