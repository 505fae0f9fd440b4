"""Unit tests for the coNCePTuaL emitter's rendering machinery."""

import pytest

from repro.conceptual import parse
from repro.generator import generate_benchmark, generate_from_application
from repro.mpi import run_spmd
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.sim import SimpleModel
from repro.tools import MpiPHook
from repro.tools.mpip import stats_match
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq


def gen(app, nranks, **kw):
    kw.setdefault("model", SimpleModel())
    return generate_from_application(app, nranks, **kw)


def roundtrip_ok(app, nranks):
    bench = gen(app, nranks)
    orig, g = MpiPHook(), MpiPHook()
    run_spmd(app, nranks, model=SimpleModel(), hooks=[orig])
    bench.program.run(nranks, model=SimpleModel(), hooks=[g])
    return bench, stats_match(orig, g)


class TestSelectorRendering:
    def test_all_tasks(self):
        def app(mpi):
            yield from mpi.barrier()
            yield from mpi.finalize()

        bench = gen(app, 8)
        assert "ALL TASKS SYNCHRONIZE" in bench.source

    def test_single_task(self):
        def app(mpi):
            if mpi.rank == 3:
                yield from mpi.send(dest=0, nbytes=8)
            elif mpi.rank == 0:
                yield from mpi.recv(source=3)
            yield from mpi.finalize()

        bench = gen(app, 8)
        assert "TASK 3 SENDS" in bench.source
        assert "TASK 0 RECEIVES" in bench.source

    def test_stride_predicate(self):
        def app(mpi):
            if mpi.rank % 2 == 0:
                yield from mpi.send(dest=mpi.rank + 1, nbytes=8)
            else:
                yield from mpi.recv(source=mpi.rank - 1)
            yield from mpi.finalize()

        bench = gen(app, 8)
        assert "t MOD 2 = 0" in bench.source
        assert "TASK t + 1" in bench.source


class TestDeltaGrouping:
    def test_torus_wrap_becomes_two_statements(self):
        # east neighbour in a 4-wide row: +1 interior, -3 at the edge
        def app(mpi):
            row = mpi.rank // 4
            east = (mpi.rank + 1) % 4 + row * 4
            west = (mpi.rank - 1) % 4 + row * 4
            rreq = yield from mpi.irecv(source=west, tag=0)
            yield from mpi.send(dest=east, nbytes=64, tag=0)
            yield from mpi.wait(rreq)
            yield from mpi.finalize()

        bench, (ok, diff) = roundtrip_ok(app, 8)
        assert ok, diff
        # delta grouping: "t + 1" for the interior, "t - 3" at the edge —
        # NOT eight per-rank statements
        assert "TASK t + 1" in bench.source
        assert "TASK t - 3" in bench.source
        assert bench.source.count("SENDS") + bench.source.count(
            "SEND ") <= 4

    def test_irregular_sizes_group_by_value(self):
        def app(mpi):
            size = 100 if mpi.rank in (0, 3) else 200
            sreq = yield from mpi.isend(dest=(mpi.rank + 1) % mpi.size,
                                        nbytes=size, tag=0)
            rreq = yield from mpi.irecv(
                source=(mpi.rank - 1) % mpi.size, tag=0)
            yield from mpi.waitall([sreq, rreq])
            yield from mpi.finalize()

        bench, (ok, diff) = roundtrip_ok(app, 6)
        assert ok, diff
        assert "100 BYTES" in bench.source
        assert "200 BYTES" in bench.source


class TestIterationConditionals:
    def test_alternating_sizes_get_if(self):
        def app(mpi):
            peer = (mpi.rank + 1) % mpi.size
            prev = (mpi.rank - 1) % mpi.size
            for i in range(10):
                size = 64 if i % 2 == 0 else 256
                rreq = yield from mpi.irecv(source=prev, tag=0)
                yield from mpi.send(dest=peer, nbytes=size, tag=0)
                yield from mpi.wait(rreq)
            yield from mpi.finalize()

        bench, (ok, diff) = roundtrip_ok(app, 4)
        assert ok, diff
        assert "FOR EACH rep" in bench.source
        assert "IF" in bench.source

    def test_constant_loop_stays_for_repetitions(self):
        def app(mpi):
            for _ in range(10):
                yield from mpi.allreduce(8)
            yield from mpi.finalize()

        bench = gen(app, 4, include_timing=False)
        assert "FOR 10 REPETITIONS" in bench.source
        assert "FOR EACH" not in bench.source

    def test_varying_collective_root(self):
        # rotating bcast root: per-iteration root conditionals
        def app(mpi):
            for i in range(4):
                yield from mpi.bcast(64, root=i % 2)
            yield from mpi.finalize()

        bench, (ok, diff) = roundtrip_ok(app, 4)
        assert ok, diff
        assert "TASK 0 MULTICASTS" in bench.source
        assert "TASK 1 MULTICASTS" in bench.source


    def test_unattributable_collective_sizes_use_flat_index(self):
        # sizes 8, 16, 16, 8 over a 2x2 nest: neither loop alone explains
        # them, so the conditions fall back to the flattened index
        ranks = RankSet.interval(0, 3)
        size = ValueSeq()
        for v in (8, 16, 16, 8):
            size.append(v)
        allreduce = EventNode("Allreduce", Callsite.synthetic("p", 1), 0,
                              ranks, size=ParamField(seq=size))
        finalize = EventNode("Finalize", Callsite.synthetic("p", 2), 0,
                             ranks, size=ParamField.of(0))
        trace = Trace(4, [LoopNode(2, [LoopNode(2, [allreduce], ranks)],
                                   ranks), finalize])
        bench = generate_benchmark(trace, include_timing=False)
        conds = [line.strip() for line in bench.source.splitlines()
                 if line.strip().startswith("IF ")]
        assert conds == ["IF rep0 * 2 + rep1 = 0 THEN {",
                         "IF rep0 * 2 + rep1 >= 1 /\\ rep0 * 2 + rep1 <= 2 "
                         "THEN {",
                         "IF rep0 * 2 + rep1 = 3 THEN {"]
        assert parse(bench.source) == bench.program.ast
        prof = MpiPHook()
        bench.program.run(4, model=SimpleModel(), hooks=[prof])
        for rank in range(4):
            sizes = [e.size for e in trace.iter_rank(rank)
                     if e.op == "Allreduce"]
            got = prof.rank_snapshot(rank)["Allreduce"]
            assert got == (len(sizes), sum(sizes))


class TestGeneratedProgramsParse:
    @pytest.mark.parametrize("nranks", [2, 5, 8])
    def test_every_output_reparses(self, nranks):
        def app(mpi):
            for i in range(6):
                if mpi.rank == 0:
                    yield from mpi.send(dest=1 + i % (mpi.size - 1),
                                        nbytes=32 * (i + 1))
                elif mpi.rank == 1 + i % (mpi.size - 1):
                    yield from mpi.recv(source=0)
                yield from mpi.allreduce(8)
            yield from mpi.finalize()

        bench = gen(app, nranks)
        assert parse(bench.source) == bench.program.ast
