"""Differential tests: the channel matcher against the reference scheduler.

``TraceScheduler`` keeps only pending sends and receives, per
communicator and destination, and matches inside the communicator.
``reference_traversal.ReferenceScheduler`` is the scheduler as it was
before: it scans every record ever posted and takes peers as world ranks.
On traces whose point-to-point traffic stays on the world communicator
the two must end alike, under Algorithm 1 and Algorithm 2: the same
wildcard resolutions, the same collectives in the same completion order,
the same call-site map and the same number of scheduler iterations, or
the same error.  The cases are the nine paper apps at np 4/16/64, the
wildcard race fixture, and random single-communicator programs traced
through the engine.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, seed, settings

from repro import obs
from repro.apps import make_app
from repro.errors import ReproError
from repro.generator import trace_application
from repro.generator.traversal import TraceScheduler
from repro.mpi import ANY_SOURCE
from repro.mpi.api import ANY_TAG
from repro.scalatrace.rsd import EventNode, ParamField, Trace
from repro.sim import SimpleModel
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet

from tests.generator.reference_traversal import ReferenceScheduler
from tests.generator.test_traversal_differential import CELLS, LARGE_CELLS, \
    _trace


def _outcome(scheduler, trace, block_p2p):
    """How one traversal ends: its error, or what it hands on."""
    with obs.instrumented() as inst:
        try:
            result = scheduler(trace, block_p2p=block_p2p).run()
        except ReproError as exc:
            return type(exc).__name__, str(exc)
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    collectives = [
        (c.comm_id, c.seq, c.op, c.canonical_callsite,
         [(r, id(ev.node), ev.instance, ev.key())
          for r, ev in c.members.items()])
        for c in result.collectives]
    return (result.resolutions, collectives, result.callsite_map,
            counters["generator.scheduler_iterations"],
            counters["generator.traversal_events"])


def _assert_same(trace):
    """Both algorithms end alike on both schedulers; returns Algorithm
    2's outcome."""
    for block_p2p in (False, True):
        got = _outcome(TraceScheduler, trace, block_p2p)
        assert got == _outcome(ReferenceScheduler, trace, block_p2p)
    return got


class TestPaperApps:
    @pytest.mark.parametrize("app,np", CELLS,
                             ids=[f"{a}-np{n}" for a, n in CELLS])
    def test_same_traversal(self, app, np):
        resolutions, collectives, _, _, _ = _assert_same(_trace(app, np))
        assert collectives
        assert bool(resolutions) == (app == "lu")

    @pytest.mark.slow
    @pytest.mark.parametrize("app,np", LARGE_CELLS,
                             ids=[f"{a}-np{n}" for a, n in LARGE_CELLS])
    def test_same_traversal_np64(self, app, np):
        _assert_same(_trace(app, np))


# -- hand-written traces that end in an error ------------------------------

_SITE = Callsite.synthetic("site", 0)


def _ev(op, rank, peer=None, offsets=None):
    """One event of one rank on the world communicator, tag 0."""
    p2p = op in ("Send", "Isend", "Recv", "Irecv")
    return EventNode(op, _SITE, 0, RankSet([rank]),
                     peer=ParamField.of(peer) if p2p else None,
                     size=ParamField.of(8), tag=ParamField.of(0) if p2p
                     else None, wait_offsets=offsets)


def _world(*events):
    return Trace(2, list(events) + [
        EventNode("Finalize", _SITE, 0, RankSet.world(2),
                  size=ParamField.of(0))])


ERRORS = {
    "unmatched-send": (
        _world(_ev("Isend", 0, 1)),
        "unmatched send from rank 0 to rank 1 at end of trace"),
    "unmatched-receive": (
        _world(_ev("Irecv", 1, ANY_SOURCE)),
        "unmatched receive at rank 1 at end of trace"),
    "offset-past-outstanding": (
        _world(_ev("Irecv", 1, 0), _ev("Waitall", 1, offsets=(0, 1))),
        "rank 1: wait offset 1 exceeds 1 outstanding ops"),
    "receives-wait-on-each-other": (
        _world(_ev("Recv", 0, 1), _ev("Recv", 1, ANY_SOURCE)),
        "rank 0: blocking Recv from 1 (no matching send); "
        "rank 1: blocking Recv from ANY_SOURCE (no matching send)"),
    "sends-wait-on-each-other": (
        _world(_ev("Send", 0, 1), _ev("Send", 1, 0)),
        "rank 0: blocking Send to rank 1 (unreceived); "
        "rank 1: blocking Send to rank 0 (unreceived)"),
    "wait-and-collective": (
        _world(_ev("Irecv", 0, 1), _ev("Waitall", 0, offsets=(0,))),
        "rank 0: wait on 1 unmatched requests; rank 1: collective "
        "Finalize on comm 0 awaiting ranks [0]"),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_same_error(case):
    trace, message = ERRORS[case]
    kind, text = _assert_same(trace)
    assert message in text, text


RACE_CELLS = [(np, cls) for np in (3, 5, 8) for cls in ("S", "W", "A")]


@pytest.mark.parametrize("np,cls", RACE_CELLS,
                         ids=[f"np{n}-{c}" for n, c in RACE_CELLS])
def test_race_fixture(np, cls):
    trace = trace_application(make_app("race", np, cls), np)
    resolutions = _assert_same(trace)[0]
    assert len(resolutions) == (np - 2) * \
        {"S": 1, "W": 2, "A": 4}[cls]


# -- random programs traced through the engine -----------------------------

@st.composite
def _programs(draw):
    """Phases of messages on the world communicator.  Each message is
    sent blocking or not, and received blocking or not, from its source
    or ``ANY_SOURCE``, with its tag or ``ANY_TAG``."""
    nranks = draw(st.integers(2, 4))
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        msgs = []
        for _ in range(draw(st.integers(1, 5))):
            src = draw(st.integers(0, nranks - 1))
            msgs.append({
                "src": src,
                "dst": (src + draw(st.integers(1, nranks - 1))) % nranks,
                "tag": draw(st.integers(0, 1)),
                "nbytes": draw(st.sampled_from([8, 64])),
                "any_source": draw(st.booleans()),
                "any_tag": draw(st.booleans()),
                "blocking_send": draw(st.booleans()),
                "blocking_recv": draw(st.booleans()),
            })
        phases.append({"msgs": msgs,
                       "wait_each": draw(st.booleans()),
                       "barrier": draw(st.booleans())})
    return nranks, phases


def _program(phases):
    def app(mpi):
        rank = mpi.rank
        for phase in phases:
            mine = [m for m in phase["msgs"] if m["dst"] == rank]
            reqs = []

            def receive(m, blocking):
                source = ANY_SOURCE if m["any_source"] else m["src"]
                tag = ANY_TAG if m["any_tag"] else m["tag"]
                if blocking:
                    yield from mpi.recv(source=source, tag=tag)
                else:
                    reqs.append((yield from mpi.irecv(source=source,
                                                      tag=tag)))

            for m in mine:
                if not m["blocking_recv"]:
                    yield from receive(m, False)
            for m in phase["msgs"]:
                if m["src"] != rank:
                    continue
                if m["blocking_send"]:
                    yield from mpi.send(dest=m["dst"], nbytes=m["nbytes"],
                                        tag=m["tag"])
                else:
                    reqs.append((yield from mpi.isend(
                        dest=m["dst"], nbytes=m["nbytes"], tag=m["tag"])))
            for m in mine:
                if m["blocking_recv"]:
                    yield from receive(m, True)
            if phase["wait_each"]:
                for req in reqs:
                    yield from mpi.wait(req)
            elif reqs:
                yield from mpi.waitall(reqs)
            if phase["barrier"]:
                yield from mpi.barrier()
        yield from mpi.finalize()
    return app


@seed(2011)
@given(case=_programs())
@settings(max_examples=150, deadline=None)
def test_random_programs(case):
    nranks, phases = case
    try:
        trace = trace_application(_program(phases), nranks,
                                  model=SimpleModel())
    except ReproError:
        assume(False)   # the engine found this program deadlocks
    _assert_same(trace)
