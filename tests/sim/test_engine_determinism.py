"""Bit-determinism and scheduler-state regression tests for the engine.

The golden values below were recorded from the pre-optimization engine
(straight list scans, global frozen set, class-global sequence counters)
and must survive any restructuring of the hot path: the event-heap
scheduler, indexed matching, and per-comm wildcard freezing are required
to be pure performance changes with bit-identical observable behaviour.
"""

import hashlib

import pytest

from repro.errors import SimulationError
from repro.sim import (ANY_SOURCE, ANY_TAG, Compute, Engine, PostRecv,
                       PostSend, SimpleModel, WaitAll)
from repro.sim.network import CongestionModel, LogGPModel
from repro.sim.synth import random_mix_programs

MODELS = {
    "simple": SimpleModel,
    "loggp": LogGPModel,
    "congestion": CongestionModel,
}

# (model, nranks, rounds, seed) -> (repr(makespan), matches, messages,
#                                   sha256(repr(sorted(log)))[:16])
GOLDEN_MIX = [
    ("simple", 4, 30, 0,
     "0.0005271749440978004", 35, 35, "0ed02d5d986e6dc0"),
    ("simple", 8, 40, 1,
     "0.0008462894442020246", 83, 83, "8fc3c21a4980e41a"),
    ("loggp", 6, 50, 2,
     "0.007701669880007366", 71, 71, "4f5bf6be2add2df2"),
    ("loggp", 12, 60, 3,
     "0.011146260267471746", 172, 172, "d159adf0c6402f50"),
    ("congestion", 8, 40, 4,
     "0.01212747642702687", 75, 75, "88772e1e904c738a"),
    ("simple", 16, 80, 5,
     "0.0015187551043053607", 298, 298, "e3bd6cec3692cac5"),
]


def _digest(log):
    return hashlib.sha256(repr(sorted(log)).encode()).hexdigest()[:16]


class TestGoldenMixPrograms:
    @pytest.mark.parametrize(
        "model,nranks,rounds,seed,makespan,matches,messages,log_digest",
        GOLDEN_MIX,
        ids=[f"{m}-{n}r-{r}x-s{s}" for m, n, r, s, *_ in GOLDEN_MIX])
    def test_bitwise_golden(self, model, nranks, rounds, seed, makespan,
                            matches, messages, log_digest):
        programs, log = random_mix_programs(nranks, rounds, seed)
        eng = Engine(nranks, MODELS[model]())
        total = eng.run(programs)
        assert repr(total) == makespan
        assert eng.matches_committed == matches
        assert eng.messages_sent == messages
        assert _digest(log) == log_digest


class TestPerEngineState:
    def test_two_engines_same_process_identical(self):
        """Back-to-back runs of the same workload must agree bit-for-bit.

        This is the regression for the old class-global sequence counters:
        with shared counters the second engine started numbering messages
        where the first left off, so any tie-break on sequence number could
        diverge between the runs.
        """
        results = []
        for _ in range(2):
            programs, log = random_mix_programs(10, 50, 42)
            eng = Engine(10, LogGPModel())
            total = eng.run(programs)
            results.append((repr(total), eng.matches_committed,
                            eng.messages_sent, _digest(log)))
        assert results[0] == results[1]

    def test_interleaved_engine_construction(self):
        """Constructing a second engine must not perturb the first."""
        programs_a, _ = random_mix_programs(6, 30, 7)
        eng_a = Engine(6, SimpleModel())
        eng_b = Engine(6, SimpleModel())  # created before eng_a runs
        total_a = eng_a.run(programs_a)

        programs_b, _ = random_mix_programs(6, 30, 7)
        total_b = eng_b.run(programs_b)
        assert repr(total_a) == repr(total_b)

    def test_engine_run_reuse_rejected(self):
        def prog():
            yield Compute(1e-6)

        eng = Engine(1, SimpleModel())
        eng.run([prog()])
        with pytest.raises(SimulationError):
            eng.run([prog()])


class TestPerCommWildcardFreeze:
    def test_frozen_comm_does_not_block_other_comms(self):
        """An unsafe wildcard freezes only its own communicator.

        Rank 0 holds a wildcard receive on comm 1 that is horizon-unsafe
        while rank 2's clock sits near zero.  Rank 2 can only advance past
        that horizon after a directed handshake with rank 0 on comm 0.  If
        the freeze leaked across communicators the handshake could never
        commit and the run would deadlock; with per-comm freezing it
        completes, and the wildcard still resolves deterministically to
        rank 1's earlier message.
        """
        log = {}

        def rank0():
            wc = yield PostRecv(src=ANY_SOURCE, tag=ANY_TAG, comm_id=1)
            direct = yield PostRecv(src=2, tag=5, comm_id=0)
            (st_d,) = yield WaitAll([direct])
            log["direct_src"] = st_d.source
            rep = yield PostSend(dst=2, nbytes=64, tag=6, comm_id=0)
            yield WaitAll([rep])
            (st_w,) = yield WaitAll([wc])
            log["wild_src"] = st_w.source
            log["wild_tag"] = st_w.tag

        def rank1():
            s = yield PostSend(dst=0, nbytes=256, tag=9, comm_id=1)
            yield WaitAll([s])

        def rank2():
            s = yield PostSend(dst=0, nbytes=128, tag=5, comm_id=0)
            yield WaitAll([s])
            r = yield PostRecv(src=0, tag=6, comm_id=0)
            yield WaitAll([r])
            yield Compute(1e-3)
            s2 = yield PostSend(dst=0, nbytes=32, tag=3, comm_id=1)
            yield WaitAll([s2])

        eng = Engine(3, SimpleModel())
        total = eng.run([rank0(), rank1(), rank2()])
        assert repr(total) == "0.001002192"
        assert log == {"direct_src": 2, "wild_src": 1, "wild_tag": 9}
        assert eng.matches_committed == 3
        assert eng.messages_sent == 4


class TestCounterFlushOrder:
    def test_flush_emits_counters_in_sorted_name_order(self):
        """`_flush_counters` calls ``obs.count`` in sorted-name order:
        the collector's counter dict (and anything streaming per-call)
        sees a byte-stable sequence regardless of link discovery order,
        or fault-counter insertion order."""
        from repro import obs
        from repro.apps import make_app
        from repro.mpi.world import run_spmd
        from repro.topology import make_topology_model

        class CallOrder(obs.Instrumentation):
            def __init__(self):
                super().__init__()
                self.calls = []

            def count(self, name, value=1):
                self.calls.append(name)
                super().count(name, value)

        model = make_topology_model(LogGPModel(), "torus3d", 8)
        inst = CallOrder()
        with obs.instrumented(inst):
            run_spmd(make_app("halo3d", 8, "S"), 8, model=model)
        engine_names = [n for n in inst.calls if n.startswith("engine.")]
        assert engine_names, "engine counters were not flushed"
        assert engine_names == sorted(engine_names)
        # routed runs publish per-link counters through the same flush
        assert any(n.startswith("engine.link.") for n in engine_names)
