"""Tests for the simulated MPI layer: p2p, waits, hooks, timing."""

import pytest

from repro.errors import MPIUsageError
from repro.mpi import (ANY_SOURCE, ANY_TAG, RecordingHook, run_spmd)
from repro.sim import SimpleModel


def spmd(program, nranks, **kw):
    hook = RecordingHook()
    kw.setdefault("model", SimpleModel())
    res = run_spmd(program, nranks, hooks=[hook], **kw)
    return res, hook


class TestBlockingP2P:
    def test_send_recv(self):
        seen = {}

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(dest=1, nbytes=512, tag=4)
            else:
                st = yield from mpi.recv(source=0, tag=4)
                seen["st"] = st
            yield from mpi.finalize()

        res, hook = spmd(program, 2)
        assert seen["st"].source == 0
        assert seen["st"].tag == 4
        assert seen["st"].nbytes == 512
        ops = sorted(e.op for e in hook.events)
        assert ops == ["Finalize", "Finalize", "Recv", "Send"]

    def test_recv_wildcard_reports_matched_source(self):
        seen = {}

        def program(mpi):
            if mpi.rank == 2:
                st = yield from mpi.recv(source=ANY_SOURCE, tag=ANY_TAG)
                seen["src"] = st.source
            elif mpi.rank == 1:
                yield from mpi.send(dest=2, nbytes=8)
            yield from mpi.finalize()

        spmd(program, 3)
        assert seen["src"] == 1

    def test_event_records_requested_wildcard_not_match(self):
        # ScalaTrace must see MPI_ANY_SOURCE, not the matched sender (§4.4)
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(dest=1, nbytes=8)
            else:
                yield from mpi.recv(source=ANY_SOURCE)
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        recv = [e for e in hook.events if e.op == "Recv"][0]
        assert recv.peer == ANY_SOURCE
        assert recv.matched_source == 0


class TestNonblocking:
    def test_isend_irecv_waitall(self):
        def program(mpi):
            peer = 1 - mpi.rank
            r1 = yield from mpi.irecv(source=peer, tag=1)
            r2 = yield from mpi.isend(dest=peer, nbytes=256, tag=1)
            yield from mpi.waitall([r1, r2])
            yield from mpi.finalize()

        res, hook = spmd(program, 2)
        waits = [e for e in hook.events if e.op == "Waitall"]
        assert len(waits) == 2
        assert waits[0].wait_offsets == (0, 1)
        # each waitall saw 256 received bytes
        assert all(w.nbytes == 256 for w in waits)

    def test_wait_single(self):
        seen = {}

        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(dest=1, nbytes=64)
                yield from mpi.wait(req)
            else:
                req = yield from mpi.irecv(source=0)
                st = yield from mpi.wait(req)
                seen["st"] = st
            yield from mpi.finalize()

        spmd(program, 2)
        assert seen["st"].source == 0
        assert seen["st"].nbytes == 64

    def test_wait_offsets_track_posting_order(self):
        offsets = []

        def program(mpi):
            if mpi.rank == 0:
                a = yield from mpi.isend(dest=1, nbytes=1, tag=1)
                b = yield from mpi.isend(dest=1, nbytes=1, tag=2)
                # wait newest first: offsets must be 1 then 0
                yield from mpi.wait(b)
                yield from mpi.wait(a)
            else:
                yield from mpi.recv(source=0, tag=1)
                yield from mpi.recv(source=0, tag=2)
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        waits = [e for e in hook.events if e.op == "Wait" and e.rank == 0]
        assert [w.wait_offsets for w in waits] == [(1,), (0,)]

    def test_wait_unknown_request_rejected(self):
        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(dest=1, nbytes=1)
                yield from mpi.wait(req)
                with pytest.raises(MPIUsageError):
                    yield from mpi.wait(req)  # already retired
                yield from mpi.finalize()
            else:
                yield from mpi.recv(source=0)
                yield from mpi.finalize()

        spmd(program, 2)

    def test_test_polling(self):
        polled = {}

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(1e-3)
                yield from mpi.send(dest=1, nbytes=4)
            else:
                req = yield from mpi.irecv(source=0)
                flag0, _ = yield from mpi.test(req)
                polled["early"] = flag0
                yield from mpi.compute(1.0)
                flag1, st = yield from mpi.test(req)
                polled["late"] = (flag1, st.source)
            yield from mpi.finalize()

        spmd(program, 2)
        assert polled["early"] is False
        assert polled["late"] == (True, 0)


class TestMalformedWaits:
    """A malformed completion call ends in MPIUsageError, whether or not a
    hook listens, and leaves the rank's requests usable."""

    @staticmethod
    def run(program, hooked):
        run_spmd(program, 2, model=SimpleModel(),
                 hooks=[RecordingHook()] if hooked else None)

    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("call", ["waitall", "waitany", "waitsome"])
    def test_same_request_twice_rejected(self, call, hooked):
        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(dest=1, nbytes=1)
                with pytest.raises(MPIUsageError):
                    yield from getattr(mpi, call)([req, req])
                yield from mpi.wait(req)  # still outstanding
            else:
                yield from mpi.recv(source=0)
            yield from mpi.finalize()

        self.run(program, hooked)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_test_on_retired_request_rejected(self, hooked):
        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(dest=1, nbytes=1)
                yield from mpi.wait(req)
                with pytest.raises(MPIUsageError):
                    yield from mpi.test(req)  # already retired
            else:
                yield from mpi.recv(source=0)
            yield from mpi.finalize()

        self.run(program, hooked)


class TestLifecycle:
    def test_missing_finalize_raises(self):
        def program(mpi):
            yield from mpi.compute(1e-6)

        with pytest.raises(MPIUsageError):
            run_spmd(program, 1, model=SimpleModel())

    def test_double_finalize_raises(self):
        def program(mpi):
            yield from mpi.finalize()
            yield from mpi.finalize()

        with pytest.raises(MPIUsageError):
            run_spmd(program, 1, model=SimpleModel())

    def test_finalize_with_outstanding_raises(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.irecv(source=1)
            yield from mpi.finalize()

        with pytest.raises(MPIUsageError):
            run_spmd(program, 2, model=SimpleModel())

    def test_non_generator_program_rejected(self):
        def program(mpi):
            return None

        with pytest.raises(MPIUsageError):
            run_spmd(program, 1, model=SimpleModel())

    def test_run_end_notifies_hooks(self):
        def program(mpi):
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        assert hook.run_ended

    def test_result_fields(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(dest=1, nbytes=1000)
            else:
                yield from mpi.recv(source=0)
            yield from mpi.finalize()

        res, _ = spmd(program, 2)
        assert res.messages_sent == 1
        assert res.bytes_sent == 1000
        assert len(res.per_rank_times) == 2
        assert res.total_time == max(res.per_rank_times)


class TestEventTiming:
    def test_compute_gap_visible_between_events(self):
        def program(mpi):
            yield from mpi.barrier()
            yield from mpi.compute(5e-3)
            yield from mpi.barrier()
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        evs = hook.by_rank(0)
        assert [e.op for e in evs] == ["Barrier", "Barrier", "Finalize"]
        gap = evs[1].t_start - evs[0].t_end
        assert gap == pytest.approx(5e-3)

    def test_callsites_differ_by_line(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(dest=1, nbytes=1)
                yield from mpi.send(dest=1, nbytes=1)
            else:
                yield from mpi.recv(source=0)
                yield from mpi.recv(source=0)
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        sends = [e for e in hook.events if e.op == "Send"]
        assert sends[0].callsite != sends[1].callsite

    def test_callsites_same_across_loop_iterations(self):
        def program(mpi):
            if mpi.rank == 0:
                for _ in range(3):
                    yield from mpi.send(dest=1, nbytes=1)
            else:
                for _ in range(3):
                    yield from mpi.recv(source=0)
            yield from mpi.finalize()

        _, hook = spmd(program, 2)
        sends = [e for e in hook.events if e.op == "Send"]
        assert len({e.callsite for e in sends}) == 1
