"""Differential tests: Algorithm 1 on collective events only, against the
full-stream traversal.

``TraceScheduler(block_p2p=False)`` walks each rank's collective events
and nothing else; ``full_traversal.FullStreamScheduler`` walks every
event of every rank, as the scheduler did before.  On the nine paper
apps at np 4/16/64, on malformed traces and on random synthetic traces
the two must end alike: the same collectives in the same completion
order (communicator, sequence number, op, canonical call site and each
member's node, instance and values), the same call-site map and the
same number of scheduler iterations, or the same error.
"""

from functools import lru_cache

import pytest
from hypothesis import given, seed, settings

from repro import obs
from repro.apps import make_app
from repro.apps.registry import PAPER_SUITE
from repro.errors import ReproError
from repro.generator import trace_application
from repro.generator.traversal import TraceScheduler
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.util.callsite import Callsite
from repro.util.expr import ParamExpr
from repro.util.rankset import RankSet

from tests.generator.full_traversal import FullStreamScheduler, expand
from tests.generator.test_rebuild_differential import _worlds


@lru_cache(maxsize=None)
def _trace(app, np):
    return trace_application(make_app(app, np), np)


def _outcome(scheduler, trace):
    """How one traversal ends: its error, or what Algorithm 1 hands on."""
    with obs.instrumented() as inst:
        try:
            result = scheduler(trace).run()
        except ReproError as exc:
            return type(exc).__name__, str(exc)
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    collectives = [
        (c.comm_id, c.seq, c.op, c.canonical_callsite,
         [(r, id(ev.node), ev.instance, ev.key())
          for r, ev in c.members.items()])
        for c in result.collectives]
    return (collectives, result.callsite_map,
            counters["generator.scheduler_iterations"])


def _collectives_only(trace):
    return TraceScheduler(trace, block_p2p=False)


def _assert_same_outcome(trace):
    got = _outcome(_collectives_only, trace)
    assert got == _outcome(FullStreamScheduler, trace)
    return got


def _collective_events(trace):
    return sum(ev.op in COLLECTIVE_OPS
               for r in range(trace.world_size)
               for ev in expand(trace, trace.nodes, r, {}))


CELLS = [(app, np) for app in PAPER_SUITE for np in (4, 16)]
LARGE_CELLS = [(app, 64) for app in PAPER_SUITE]


class TestPaperApps:
    @pytest.mark.parametrize("app,np", CELLS,
                             ids=[f"{a}-np{n}" for a, n in CELLS])
    def test_same_traversal(self, app, np):
        collectives, _, _ = _assert_same_outcome(_trace(app, np))
        assert collectives

    @pytest.mark.slow
    @pytest.mark.parametrize("app,np", LARGE_CELLS,
                             ids=[f"{a}-np{n}" for a, n in LARGE_CELLS])
    def test_same_traversal_np64(self, app, np):
        _assert_same_outcome(_trace(app, np))

    @pytest.mark.parametrize("app,np", CELLS,
                             ids=[f"{a}-np{n}" for a, n in CELLS])
    def test_reads_only_collectives(self, app, np):
        trace = _trace(app, np)
        with obs.instrumented() as inst:
            TraceScheduler(trace, block_p2p=False).run()
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters["generator.traversal_events"] == \
            _collective_events(trace)

    @pytest.mark.parametrize("np", [16, 64])
    def test_sweep3d_reads_twelve_events_per_rank(self, np):
        with obs.instrumented() as inst:
            TraceScheduler(_trace("sweep3d", np), block_p2p=False).run()
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters["generator.traversal_events"] == 12 * np


class TestPerNodeReads:
    """``Trace.iter_rank`` reads each node's values once per rank; they
    equal the per-instance ``ParamField.value_at`` on every event."""

    @pytest.mark.parametrize("app,np", CELLS,
                             ids=[f"{a}-np{n}" for a, n in CELLS])
    def test_values_equal_value_at(self, app, np):
        trace = _trace(app, np)
        for rank in range(np):
            got = [(id(ev.node), ev.instance, ev.key())
                   for ev in trace.iter_rank(rank)]
            want = [(id(ev.node), ev.instance, ev.key())
                    for ev in expand(trace, trace.nodes, rank, {})]
            assert got == want, f"rank {rank}"


# -- synthetic traces ----------------------------------------------------

_A = Callsite.synthetic("site", 0)
_B = Callsite.synthetic("site", 1)
_P2P = Callsite.synthetic("site", 2)


def _coll(op, site, ranks, instances=1):
    return EventNode(op, site, 0, RankSet(ranks), instances,
                     size=ParamField.of(8))


def _finalize(world):
    return EventNode("Finalize", _A, 0, RankSet.world(world))


def _send_right(world, instances=1):
    return EventNode("Send", _P2P, 0, RankSet.world(world), instances,
                     peer=ParamField(expr=ParamExpr.rel(1, mod=world)),
                     size=ParamField.of(64), tag=ParamField.of(0))


class TestMalformedTraces:
    def test_allreduce_missing_a_rank(self):
        world = 4
        trace = Trace(world, [
            LoopNode(3, [_coll("Allreduce", _A, range(world))],
                     RankSet.world(world)),
            _coll("Allreduce", _A, range(3)),
            _finalize(world)])
        assert _assert_same_outcome(trace) == (
            "TraceError", "collective mismatch on comm 0 (instance 3): "
            "Allreduce vs Finalize at rank 3")

    def test_allreduce_against_barrier(self):
        trace = Trace(4, [_coll("Allreduce", _A, [0, 1]),
                          _coll("Barrier", _B, [2, 3]),
                          _finalize(4)])
        assert _assert_same_outcome(trace) == (
            "TraceError", "collective mismatch on comm 0 (instance 0): "
            "Allreduce vs Barrier at rank 2")

    def test_collective_split_across_two_call_sites(self):
        trace = Trace(4, [_coll("Barrier", _A, [0, 1]),
                          _coll("Barrier", _B, [2, 3]),
                          _finalize(4)])
        collectives, callsite_map, _ = _assert_same_outcome(trace)
        assert [c[:4] for c in collectives] == [
            (0, 0, "Barrier", _A), (0, 1, "Finalize", _A)]
        assert set(callsite_map.values()) == {_A}


class TestCollectiveNestedWithPointToPoint:
    """A loop holding sends as well as a split collective: the cursors
    must still stop at every iteration's collective."""

    def test_nested_collectives_align(self):
        world = 4
        body = [_send_right(world, instances=2),
                LoopNode(2, [_coll("Allreduce", _A, [0, 2]),
                             _coll("Allreduce", _B, [1, 3]),
                             _send_right(world)], RankSet.world(world))]
        trace = Trace(world, [LoopNode(3, body, RankSet.world(world)),
                              _finalize(world)])
        collectives, callsite_map, _ = _assert_same_outcome(trace)
        assert [c[2] for c in collectives] == ["Allreduce"] * 6 + \
            ["Finalize"]
        assert len(callsite_map) == 7 * world

    @seed(2011)
    @given(case=_worlds())
    @settings(max_examples=150, deadline=None)
    def test_random_traces(self, case):
        trace, _ = case
        _assert_same_outcome(trace)
