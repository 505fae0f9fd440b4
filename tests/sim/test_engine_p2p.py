"""Point-to-point semantics and timing of the simulation engine."""

import pytest

from repro.errors import MPIUsageError, SimDeadlockError
from repro.sim import (ANY_SOURCE, ANY_TAG, Compute, Engine, PostRecv,
                       PostSend, SimpleModel, Test, WaitAll, WaitAny)
from tests.sim.reference_loop import LOOPS, executor


def run(nranks, programs, model=None, **kw):
    eng = Engine(nranks, model or SimpleModel(), **kw)
    total = eng.run(programs)
    return eng, total


class TestBlockingPingPong:
    def test_one_way_message_time(self):
        # SimpleModel: transit(1000 B) = 1 us latency + 1 us serialization
        log = {}

        def sender():
            req = yield PostSend(dst=1, nbytes=1000)
            yield WaitAll([req])

        def receiver():
            req = yield PostRecv(src=0)
            (st,) = yield WaitAll([req])
            log["status"] = st

        eng, total = run(2, [sender(), receiver()])
        assert total == pytest.approx(2e-6)
        assert log["status"].source == 0
        assert log["status"].nbytes == 1000
        assert eng.messages_sent == 1
        assert eng.bytes_sent == 1000

    def test_late_receiver_waits_for_posting(self):
        def sender():
            req = yield PostSend(dst=1, nbytes=0)
            yield WaitAll([req])

        def receiver():
            yield Compute(1e-3)  # post the recv late
            req = yield PostRecv(src=0)
            yield WaitAll([req])

        eng, total = run(2, [sender(), receiver()])
        # receiver completes at its own post time (message long arrived)
        assert total == pytest.approx(1e-3)

    def test_late_sender_delays_receiver(self):
        def sender():
            yield Compute(5e-4)
            req = yield PostSend(dst=1, nbytes=0)
            yield WaitAll([req])

        def receiver():
            req = yield PostRecv(src=0)
            yield WaitAll([req])

        _, total = run(2, [sender(), receiver()])
        assert total == pytest.approx(5e-4 + 1e-6)

    def test_ping_pong_round_trip(self):
        def rank0():
            sreq = yield PostSend(dst=1, nbytes=0)
            yield WaitAll([sreq])
            rreq = yield PostRecv(src=1)
            yield WaitAll([rreq])

        def rank1():
            rreq = yield PostRecv(src=0)
            yield WaitAll([rreq])
            sreq = yield PostSend(dst=0, nbytes=0)
            yield WaitAll([sreq])

        _, total = run(2, [rank0(), rank1()])
        assert total == pytest.approx(2e-6)


class TestOrderingAndTags:
    def test_fifo_non_overtaking_same_tag(self):
        sizes = []

        def sender():
            r1 = yield PostSend(dst=1, nbytes=100, tag=7)
            r2 = yield PostSend(dst=1, nbytes=200, tag=7)
            yield WaitAll([r1, r2])

        def receiver():
            a = yield PostRecv(src=0, tag=7)
            b = yield PostRecv(src=0, tag=7)
            sts = yield WaitAll([a, b])
            sizes.extend(st.nbytes for st in sts)

        run(2, [sender(), receiver()])
        assert sizes == [100, 200]

    def test_tag_selective_matching_skips_incompatible(self):
        got = {}

        def sender():
            r1 = yield PostSend(dst=1, nbytes=100, tag=1)
            r2 = yield PostSend(dst=1, nbytes=200, tag=2)
            yield WaitAll([r1, r2])

        def receiver():
            b = yield PostRecv(src=0, tag=2)
            (st_b,) = yield WaitAll([b])
            got["first_waited"] = st_b.nbytes
            a = yield PostRecv(src=0, tag=1)
            (st_a,) = yield WaitAll([a])
            got["second_waited"] = st_a.nbytes

        run(2, [sender(), receiver()])
        assert got["first_waited"] == 200
        assert got["second_waited"] == 100

    def test_any_tag_takes_channel_head(self):
        got = {}

        def sender():
            r1 = yield PostSend(dst=1, nbytes=100, tag=5)
            yield WaitAll([r1])

        def receiver():
            a = yield PostRecv(src=0, tag=ANY_TAG)
            (st,) = yield WaitAll([a])
            got["tag"] = st.tag

        run(2, [sender(), receiver()])
        assert got["tag"] == 5


class TestWildcardSource:
    def test_any_source_matches_earliest_arrival(self):
        got = {}

        def early_sender():  # rank 0
            req = yield PostSend(dst=2, nbytes=0, tag=9)
            yield WaitAll([req])

        def late_sender():  # rank 1
            yield Compute(1e-3)
            req = yield PostSend(dst=2, nbytes=0, tag=9)
            yield WaitAll([req])

        def receiver():  # rank 2
            a = yield PostRecv(src=ANY_SOURCE, tag=9)
            (st1,) = yield WaitAll([a])
            b = yield PostRecv(src=ANY_SOURCE, tag=9)
            (st2,) = yield WaitAll([b])
            got["order"] = (st1.source, st2.source)

        run(3, [early_sender(), late_sender(), receiver()])
        assert got["order"] == (0, 1)

    def test_any_source_resolution_reported_in_status(self):
        got = {}

        def sender():
            req = yield PostSend(dst=1, nbytes=64, tag=3)
            yield WaitAll([req])

        def receiver():
            r = yield PostRecv(src=ANY_SOURCE, tag=ANY_TAG)
            (st,) = yield WaitAll([r])
            got["st"] = st

        run(2, [sender(), receiver()])
        assert got["st"].source == 0
        assert got["st"].tag == 3
        assert got["st"].nbytes == 64

    def test_wildcard_does_not_steal_from_later_directed_recv(self):
        # recv(ANY) posted first must get the first message; the directed
        # recv posted after it still completes with the second message.
        got = {}

        def sender():
            r1 = yield PostSend(dst=1, nbytes=10, tag=0)
            r2 = yield PostSend(dst=1, nbytes=20, tag=0)
            yield WaitAll([r1, r2])

        def receiver():
            a = yield PostRecv(src=ANY_SOURCE, tag=0)
            b = yield PostRecv(src=0, tag=0)
            sts = yield WaitAll([a, b])
            got["sizes"] = [st.nbytes for st in sts]

        run(2, [sender(), receiver()])
        assert got["sizes"] == [10, 20]


class TestNonblocking:
    def test_isend_irecv_overlap_with_compute(self):
        def sender():
            req = yield PostSend(dst=1, nbytes=1000)
            yield Compute(1e-3)
            yield WaitAll([req])

        def receiver():
            req = yield PostRecv(src=0)
            yield Compute(1e-3)
            yield WaitAll([req])

        _, total = run(2, [sender(), receiver()])
        # communication fully overlapped by compute
        assert total == pytest.approx(1e-3)

    def test_waitany_picks_earliest(self):
        got = {}

        def fast_sender():
            req = yield PostSend(dst=2, nbytes=0, tag=1)
            yield WaitAll([req])

        def slow_sender():
            yield Compute(1e-3)
            req = yield PostSend(dst=2, nbytes=0, tag=2)
            yield WaitAll([req])

        def receiver():
            a = yield PostRecv(src=0, tag=1)
            b = yield PostRecv(src=1, tag=2)
            idx, st = yield WaitAny([a, b])
            got["first"] = (idx, st.source)
            yield WaitAll([a, b])

        run(3, [fast_sender(), slow_sender(), receiver()])
        assert got["first"] == (0, 0)

    def test_test_op_before_and_after_completion(self):
        got = {}

        def sender():
            yield Compute(1e-3)
            req = yield PostSend(dst=1, nbytes=0)
            yield WaitAll([req])

        def receiver():
            req = yield PostRecv(src=0)
            flag0, st0 = yield Test(req)
            got["before"] = (flag0, st0)
            yield Compute(1.0)  # plenty of virtual time passes
            flag1, st1 = yield Test(req)
            got["after"] = (flag1, st1.source if st1 else None)
            yield WaitAll([req])

        run(2, [sender(), receiver()])
        assert got["before"] == (False, None)
        assert got["after"] == (True, 0)

    def test_empty_waitall_is_noop(self):
        def only():
            sts = yield WaitAll([])
            assert sts == []
            if False:
                yield  # keep it a generator

        _, total = run(1, [only()])
        assert total == 0.0


class TestSelfMessaging:
    def test_self_send_recv(self):
        def prog():
            sreq = yield PostSend(dst=0, nbytes=10, tag=0)
            rreq = yield PostRecv(src=0, tag=0)
            yield WaitAll([sreq, rreq])

        _, total = run(1, [prog()])
        assert total > 0.0


class TestErrors:
    def test_send_to_bad_rank(self):
        def prog():
            yield PostSend(dst=5, nbytes=0)

        with pytest.raises(MPIUsageError):
            run(2, [prog(), iter(())])

    def test_recv_from_bad_rank(self):
        def prog():
            yield PostRecv(src=9)

        with pytest.raises(MPIUsageError):
            run(2, [prog(), iter(())])

    @pytest.mark.parametrize("loop", LOOPS)
    def test_non_op_yield_names_rank_and_value(self, loop):
        def idle():
            yield Compute(1e-3)

        def prog():
            yield Compute(1e-6)
            yield 42

        with executor(loop), \
                pytest.raises(MPIUsageError, match="rank 1 yielded non-op 42"):
            run(2, [idle(), prog()])

    def test_deadlock_both_blocking_recv(self):
        def prog(peer):
            req = yield PostRecv(src=peer)
            yield WaitAll([req])

        with pytest.raises(SimDeadlockError) as exc:
            run(2, [prog(1), prog(0)])
        assert set(exc.value.blocked) == {0, 1}

    def test_unmatched_recv_at_exit(self):
        def prog():
            yield PostRecv(src=ANY_SOURCE)
            # never waits, exits with the recv pending

        with pytest.raises(MPIUsageError):
            run(1, [prog()])

    def test_wrong_program_count(self):
        eng = Engine(2, SimpleModel())
        with pytest.raises(ValueError):
            eng.run([iter(())])

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        def make_programs():
            def sender(rank, dst):
                for i in range(10):
                    req = yield PostSend(dst=dst, nbytes=100 * (i + 1))
                    yield WaitAll([req])
                    yield Compute(1e-6 * rank + 1e-6)

            def receiver():
                for _ in range(20):
                    req = yield PostRecv(src=ANY_SOURCE)
                    yield WaitAll([req])

            return [sender(0, 2), sender(1, 2), receiver()]

        totals = {run(3, make_programs())[1] for _ in range(3)}
        assert len(totals) == 1
