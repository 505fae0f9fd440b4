"""Tests for Algorithm 2: wildcard resolution and deadlock detection
(§4.4, Fig. 5)."""

import pytest

from repro.errors import TraceDeadlockError
from repro.generator import (generate_from_application, has_wildcards,
                             resolve_wildcards, trace_application)
from repro.mpi import ANY_SOURCE
from repro.sim import SimpleModel


def _events(trace, rank, op):
    return [e for e in trace.iter_rank(rank) if e.op == op]


def rank_map_wildcard_app(mpi):
    """One Recv call site on 4 ranks: rank 0 receives from any source
    twice, rank 1 from 2 then 3, so the merged peer is the rank_map
    ``M0=-1x2;1=2,3``."""
    sources = {0: [ANY_SOURCE, ANY_SOURCE], 1: [2, 3]}.get(mpi.rank, [])
    for src in sources:
        yield from mpi.recv(source=src)
    if mpi.rank in (2, 3):
        yield from mpi.send(dest=0, nbytes=8)
        yield from mpi.send(dest=1, nbytes=8)
    yield from mpi.finalize()


class TestPreCheck:
    def test_detects_wildcards(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=ANY_SOURCE)
            elif mpi.rank == 1:
                yield from mpi.send(dest=0, nbytes=8)
            yield from mpi.finalize()

        trace = trace_application(app, 2, model=SimpleModel())
        assert has_wildcards(trace)

    def test_detects_wildcard_in_rank_map_peer(self):
        app = rank_map_wildcard_app
        trace = trace_application(app, 4, model=SimpleModel())
        (recv,) = [n for n in trace.iter_events() if n.op == "Recv"]
        assert recv.peer.rank_map is not None
        assert has_wildcards(trace)
        bench = generate_from_application(app, 4, model=SimpleModel())
        assert bench.was_resolved
        assert "ANY TASK" not in bench.source
        assert sorted(e.peer for e in _events(bench.trace, 0, "Recv")) \
            == [2, 3]

    def test_no_wildcards_is_noop(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=1)
            elif mpi.rank == 1:
                yield from mpi.send(dest=0, nbytes=8)
            yield from mpi.finalize()

        trace = trace_application(app, 2, model=SimpleModel())
        assert not has_wildcards(trace)
        assert resolve_wildcards(trace) is trace


class TestResolution:
    def test_single_wildcard_resolved_to_sender(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=ANY_SOURCE, tag=3)
            elif mpi.rank == 2:
                yield from mpi.send(dest=0, nbytes=8, tag=3)
            yield from mpi.finalize()

        trace = trace_application(app, 3, model=SimpleModel())
        resolved = resolve_wildcards(trace)
        assert not has_wildcards(resolved)
        (recv,) = _events(resolved, 0, "Recv")
        assert recv.peer == 2

    def test_multiple_senders_first_match_order(self):
        # LU-style: a rank receives from its neighbours in arbitrary order
        def app(mpi):
            if mpi.rank == 0:
                for _ in range(3):
                    yield from mpi.recv(source=ANY_SOURCE, tag=1)
            else:
                yield from mpi.send(dest=0, nbytes=32, tag=1)
            yield from mpi.finalize()

        trace = trace_application(app, 4, model=SimpleModel())
        resolved = resolve_wildcards(trace)
        recvs = _events(resolved, 0, "Recv")
        # all three wildcard receives bound to distinct concrete senders
        assert sorted(e.peer for e in recvs) == [1, 2, 3]

    def test_resolution_is_deterministic(self):
        def app(mpi):
            if mpi.rank == 0:
                for _ in range(4):
                    yield from mpi.recv(source=ANY_SOURCE)
            else:
                yield from mpi.send(dest=0, nbytes=8)
                yield from mpi.send(dest=0, nbytes=8)
            yield from mpi.finalize()

        def resolve_once():
            trace = trace_application(app, 3, model=SimpleModel())
            resolved = resolve_wildcards(trace)
            return [e.peer for e in _events(resolved, 0, "Recv")]

        assert resolve_once() == resolve_once()

    def test_tag_selectivity_respected(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=ANY_SOURCE, tag=7)
                yield from mpi.recv(source=ANY_SOURCE, tag=9)
            elif mpi.rank == 1:
                yield from mpi.send(dest=0, nbytes=8, tag=9)
            elif mpi.rank == 2:
                yield from mpi.send(dest=0, nbytes=8, tag=7)
            yield from mpi.finalize()

        trace = trace_application(app, 3, model=SimpleModel())
        resolved = resolve_wildcards(trace)
        recvs = _events(resolved, 0, "Recv")
        by_tag = {e.tag: e.peer for e in recvs}
        assert by_tag == {7: 2, 9: 1}

    def test_nonblocking_wildcards_resolved(self):
        def app(mpi):
            if mpi.rank == 0:
                r1 = yield from mpi.irecv(source=ANY_SOURCE)
                r2 = yield from mpi.irecv(source=ANY_SOURCE)
                yield from mpi.waitall([r1, r2])
            else:
                yield from mpi.send(dest=0, nbytes=16)
            yield from mpi.finalize()

        trace = trace_application(app, 3, model=SimpleModel())
        resolved = resolve_wildcards(trace)
        irecvs = _events(resolved, 0, "Irecv")
        assert sorted(e.peer for e in irecvs) == [1, 2]

    def test_generated_code_has_no_any_task(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(source=ANY_SOURCE)
            elif mpi.rank == 1:
                yield from mpi.send(dest=0, nbytes=64)
            yield from mpi.finalize()

        bench = generate_from_application(app, 2, model=SimpleModel())
        assert bench.was_resolved
        assert "ANY TASK" not in bench.source
        assert "FROM TASK 1" in bench.source


class TestDeadlockDetection:
    def test_fig5_deadlock_detected(self):
        """The paper's Fig. 5: the wildcard receive matched rank 2's send
        at trace time, so the trace says rank 1 then blocks on Recv(0)
        while rank 0 has nothing left to send — a potential deadlock."""
        def app(mpi):
            if mpi.rank == 1:
                st = yield from mpi.recv(source=ANY_SOURCE)
                yield from mpi.recv(source=0)
            if mpi.rank in (0, 2):
                yield from mpi.send(dest=1, nbytes=8)
            yield from mpi.finalize()

        # The simulator itself may or may not deadlock depending on
        # arrival order; build the hazardous trace directly instead.
        from repro.scalatrace.compress import CompressionQueue
        from repro.scalatrace.merge import merge_traces
        from repro.scalatrace.rsd import Trace
        from repro.util.callsite import Callsite

        def rank_trace(rank, script):
            q = CompressionQueue(rank)
            for i, (op, kw) in enumerate(script):
                q.append_event(op, Callsite.synthetic("app", i), 0, **kw)
            return Trace(3, q.nodes, {0: (0, 1, 2)})

        any_src = ANY_SOURCE
        t0 = rank_trace(0, [("Send", dict(peer=1, size=8, tag=0)),
                            ("Finalize", dict(size=0))])
        t1 = rank_trace(1, [("Recv", dict(peer=any_src, size=8, tag=0)),
                            ("Recv", dict(peer=0, size=8, tag=0)),
                            ("Finalize", dict(size=0))])
        t2 = rank_trace(2, [("Send", dict(peer=1, size=8, tag=0)),
                            ("Finalize", dict(size=0))])
        trace = merge_traces([t0, t1, t2])
        # the traversal matches rank 0's send to the wildcard first, so
        # rank 1's subsequent Recv(0) can never be satisfied (rank 2's
        # remaining send has the wrong source): a potential deadlock
        with pytest.raises(TraceDeadlockError) as exc:
            resolve_wildcards(trace)
        assert 1 in exc.value.cycle

    def test_correct_program_no_deadlock(self):
        def app(mpi):
            if mpi.rank == 1:
                yield from mpi.recv(source=ANY_SOURCE)
                yield from mpi.recv(source=ANY_SOURCE)
            if mpi.rank in (0, 2):
                yield from mpi.send(dest=1, nbytes=8)
            yield from mpi.finalize()

        trace = trace_application(app, 3, model=SimpleModel())
        resolved = resolve_wildcards(trace)  # must not raise
        assert not has_wildcards(resolved)
