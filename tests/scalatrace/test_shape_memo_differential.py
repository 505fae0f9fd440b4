"""Differential test of the accumulator's shape-keyed alignment memo.

One :class:`~repro.scalatrace.merge.TraceMergeAccumulator` computes each
distinct alignment once, top-level or of two loop bodies, and replays it
on every later merge of lists of those shapes.  Here ranks record a few
variants of a list whose loops nest equal-count loops with overlapping
bodies (the case the diagonal fast path declines, so the nested
alignments run the DP), and the memoised merge must serialize exactly
as the same merges aligned afresh (``eager_merge.unshared_merge``, with
the production pair merge and with the eager DP).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.scalatrace.merge import (TraceMergeAccumulator, _diagonal_safe,
                                    set_merge_fastpath)
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField
from repro.scalatrace.serialize import dumps_trace
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet

from tests.scalatrace.eager_merge import eager_merge, unshared_merge


class _Unshared(TraceMergeAccumulator):
    """The accumulator with every pair merge aligned afresh."""

    _merge = unshared_merge


# A node spec is ("E", op, site) or ("L", count, body specs).
_C = ("E", "Allreduce", 1)
_S = ("E", "Isend", 2)
_T = ("E", "Irecv", 3)
_SITES = (_C, _S, _T)

#: Two equal-count loops whose bodies share the Isend, inside an outer
#: loop: the outer bodies of two ranks align by DP, and so do the inner
#: loops' bodies.
_NESTED = [_C, ("L", 2, (("L", 3, (_S,)), ("L", 3, (_C, _S, _T)))), _T]


def _realize(spec, rank, world):
    ranks = RankSet.single(rank)
    if spec[0] == "L":
        _, count, body = spec
        return LoopNode(count, [_realize(s, rank, world) for s in body],
                        ranks)
    _, op, site = spec
    callsite = Callsite.synthetic("memo", site)
    if op == "Allreduce":
        return EventNode(op, callsite, 0, ranks, size=ParamField.of(8))
    return EventNode(op, callsite, 0, ranks,
                     peer=ParamField.of((rank + site) % world),
                     size=ParamField.of(8 * (1 + rank % 2)),
                     tag=ParamField.of(0))


_body = st.lists(st.sampled_from(_SITES), min_size=1, max_size=3,
                 unique=True).map(
                     lambda b: tuple(sorted(b, key=_SITES.index)))


@st.composite
def _overlapping_loops(draw):
    """Two or three equal-count loops, at least two of them sharing a
    call site."""
    count = draw(st.integers(2, 3))
    bodies = draw(st.lists(_body, min_size=2, max_size=3).filter(
        lambda bs: any(set(a) & set(b)
                       for k, a in enumerate(bs) for b in bs[k + 1:])))
    return [("L", count, body) for body in bodies]


@st.composite
def _variant(draw):
    """One rank's list: events around an outer loop whose body holds
    overlapping equal-count loops (so nested alignments need the DP)."""
    inner = draw(_overlapping_loops())
    extra = draw(st.lists(st.sampled_from(_SITES), max_size=2))
    outer = ("L", draw(st.integers(2, 3)), tuple(inner + extra))
    before = draw(st.lists(st.sampled_from(_SITES), max_size=2))
    after = draw(st.lists(st.sampled_from(_SITES), max_size=2))
    return before + [outer] + after


@st.composite
def _worlds(draw):
    """Three to nine ranks, each recording one of two or three variants,
    so list shapes repeat across the accumulator's merges."""
    variants = draw(st.lists(_variant(), min_size=2, max_size=3))
    world = draw(st.integers(3, 9))
    return [draw(st.sampled_from(variants)) for _ in range(world)]


def _merged(cls, specs):
    world = len(specs)
    acc = cls(world, {0: tuple(range(world))})
    for rank, spec in enumerate(specs):
        acc.add_nodes([_realize(s, rank, world) for s in spec])
    return dumps_trace(acc.result())


def _three_ways(specs, enabled):
    prev = set_merge_fastpath(enabled)
    try:
        with obs.instrumented() as inst:
            shared = _merged(TraceMergeAccumulator, specs)
        unshared = _merged(_Unshared, specs)
        with eager_merge():
            eager = _merged(TraceMergeAccumulator, specs)
    finally:
        set_merge_fastpath(prev)
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    return shared, unshared, eager, counters


@pytest.mark.parametrize("enabled", [True, False], ids=["fastpath", "lcs"])
@given(specs=_worlds())
@example(specs=[_NESTED] * 3 + [_NESTED[::-1]] * 2)
@settings(max_examples=40, deadline=None)
def test_memoised_merges_equal_unshared(enabled, specs):
    outer = next(s for s in specs[0] if s[0] == "L")
    assert not _diagonal_safe([_realize(s, 0, len(specs))
                               for s in outer[2]])
    shared, unshared, eager, _ = _three_ways(specs, enabled)
    assert shared == unshared == eager


def test_nested_alignments_are_computed_once():
    # Ranks of one nested shape merge into that shape again, so the
    # first merge computes every alignment (the top level, the outer
    # loop bodies, the inner loop bodies) and the other merges replay
    # them: as many alignments at 16 ranks as at 4.  With the fast path
    # off every merge computes its own.
    counts = {}
    for world in (4, 16):
        shared, unshared, eager, counters = _three_ways([_NESTED] * world,
                                                        True)
        assert shared == unshared == eager
        assert counters["scalatrace.pair_merges"] == world - 1
        counts[world] = counters["scalatrace.alignments_computed"]
    *_, fresh = _three_ways([_NESTED] * 16, False)
    assert counts[4] == counts[16] < fresh["scalatrace.alignments_computed"]
