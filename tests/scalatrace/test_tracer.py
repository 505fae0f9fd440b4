"""Integration tests: tracing simulated MPI applications end to end."""

import pytest

from repro import obs
from repro.apps import APPS, PAPER_SUITE, make_app
from repro.apps.registry import valid_rank_counts
from repro.errors import TraceError
from repro.mpi import ANY_SOURCE, run_spmd
from repro.mpi.hooks import MPIHook
from repro.scalatrace import (CompressionQueue, ScalaTraceHook, Trace,
                              dumps_trace, ingest_event, merge_node_lists,
                              set_merge_fastpath)
from repro.sim import SimpleModel


def trace_app(program, nranks, model=None):
    hook = ScalaTraceHook()
    run_spmd(program, nranks, model=model or SimpleModel(), hooks=[hook])
    return hook.trace


def ring_app(iterations=100, nbytes=1024):
    def program(mpi):
        right = (mpi.rank + 1) % mpi.size
        left = (mpi.rank - 1) % mpi.size
        for _ in range(iterations):
            rreq = yield from mpi.irecv(source=left, tag=0)
            sreq = yield from mpi.isend(dest=right, nbytes=nbytes, tag=0)
            yield from mpi.waitall([rreq, sreq])
        yield from mpi.finalize()
    return program


class TestRingTrace:
    def test_ring_compresses_to_constant_size(self):
        t8 = trace_app(ring_app(), 8)
        t16 = trace_app(ring_app(), 16)
        assert t8.node_count() == t16.node_count()
        # loop body (3 events) + finalize, give or take boundary nodes
        assert t8.node_count() <= 6

    def test_ring_event_counts_lossless(self):
        trace = trace_app(ring_app(iterations=50), 4)
        # 50*(irecv+isend+waitall) + finalize per rank
        assert trace.event_count(0) == 50 * 3 + 1
        assert trace.event_count() == 4 * (50 * 3 + 1)

    def test_ring_peers_relative(self):
        trace = trace_app(ring_app(), 8)
        for r in range(8):
            evs = [e for e in trace.iter_rank(r) if e.op == "Isend"]
            assert all(e.peer == (r + 1) % 8 for e in evs)

    def test_compute_time_recorded(self):
        def program(mpi):
            for _ in range(10):
                yield from mpi.compute(2e-3)
                yield from mpi.barrier()
            yield from mpi.finalize()

        trace = trace_app(program, 2)
        barrier_nodes = [n for n in _walk(trace.nodes) if n.op == "Barrier"]
        total = sum(n.time.total for n in barrier_nodes)
        # 2 ranks x 10 iterations x 2 ms
        assert total == pytest.approx(2 * 10 * 2e-3, rel=0.05)


def _walk(nodes):
    from repro.scalatrace.rsd import EventNode
    for n in nodes:
        if isinstance(n, EventNode):
            yield n
        else:
            yield from _walk(n.body)


class TestWildcardTrace:
    def test_any_source_recorded_as_wildcard(self):
        def program(mpi):
            if mpi.rank == 0:
                for _ in range(5):
                    st = yield from mpi.recv(source=ANY_SOURCE, tag=1)
            else:
                for _ in range(5):
                    yield from mpi.send(dest=0, nbytes=16, tag=1)
            yield from mpi.finalize()

        trace = trace_app(program, 2)
        recvs = [e for e in trace.iter_rank(0) if e.op == "Recv"]
        assert len(recvs) == 5
        assert all(e.peer == ANY_SOURCE for e in recvs)


class TestSubcommTrace:
    def test_comm_table_includes_subcomms(self):
        def program(mpi):
            sub = yield from mpi.comm_split(None, color=mpi.rank % 2,
                                            key=mpi.rank)
            yield from mpi.allreduce(64, comm=sub)
            yield from mpi.finalize()

        trace = trace_app(program, 4)
        tables = set(trace.comm_table.values())
        assert (0, 2) in tables
        assert (1, 3) in tables
        allreduces = [e for e in trace.iter_rank(0) if e.op == "Allreduce"]
        assert len(allreduces) == 1
        assert len(trace.comm_ranks(allreduces[0].comm_id)) == 2


class TestStencilTrace:
    def test_stencil_merges_across_ranks(self):
        # 1-D non-periodic halo exchange: interior ranks send both ways
        def program(mpi):
            for _ in range(20):
                reqs = []
                if mpi.rank > 0:
                    r = yield from mpi.irecv(source=mpi.rank - 1, tag=0)
                    reqs.append(r)
                    s = yield from mpi.isend(dest=mpi.rank - 1, nbytes=512,
                                             tag=0)
                    reqs.append(s)
                if mpi.rank < mpi.size - 1:
                    r = yield from mpi.irecv(source=mpi.rank + 1, tag=0)
                    reqs.append(r)
                    s = yield from mpi.isend(dest=mpi.rank + 1, nbytes=512,
                                             tag=0)
                    reqs.append(s)
                yield from mpi.waitall(reqs)
            yield from mpi.finalize()

        t8 = trace_app(program, 8)
        t32 = trace_app(program, 32)
        # interior ranks all share structure; trace size rank-independent
        assert t8.node_count() == t32.node_count()
        # per-rank streams decompress correctly at the boundaries
        first_ops = [e.op for e in t32.iter_rank(0)]
        assert first_ops.count("Isend") == 20
        mid_ops = [e.op for e in t32.iter_rank(5)]
        assert mid_ops.count("Isend") == 40


class TestHookReuse:
    def test_second_run_raises(self):
        hook = ScalaTraceHook()
        run_spmd(ring_app(iterations=5), 2, hooks=[hook])
        with pytest.raises(TraceError):
            run_spmd(ring_app(iterations=5), 2, hooks=[hook])

    def test_reset_allows_reuse(self):
        hook = ScalaTraceHook()
        run_spmd(ring_app(iterations=5), 2, hooks=[hook])
        first = dumps_trace(hook.trace)
        hook.reset()
        assert hook.trace is None
        run_spmd(ring_app(iterations=5), 2, hooks=[hook])
        assert dumps_trace(hook.trace) == first

    def test_counters_reset(self):
        hook = ScalaTraceHook()
        run_spmd(ring_app(iterations=5), 2, hooks=[hook])
        assert hook.events_in == 2 * (5 * 3 + 1)
        assert hook.nodes_live_peak > 0
        hook.reset()
        assert hook.events_in == 0
        assert hook.nodes_live_peak == 0


class TestStreamingCounters:
    def test_events_in_and_peak_emitted(self):
        with obs.instrumented() as inst:
            trace_app(ring_app(iterations=50), 4)
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters["scalatrace.events_in"] == 4 * (50 * 3 + 1)
        # the peak is bounded by compressed size, not raw events: each
        # rank holds ~6 nodes, plus log-many partial merges
        assert 0 < counters["scalatrace.nodes_live_peak"] < 100

    def test_decision_counters_emitted(self):
        with obs.instrumented() as inst:
            trace_app(ring_app(iterations=50), 4)
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        # the ranks differ only in peer values, so rank 0 decides and
        # the others take its decisions and cursor verdicts
        assert 0 < counters["scalatrace.decisions_made"] \
            < counters["scalatrace.shared_decisions"]
        assert 0 < counters["scalatrace.plans_made"] \
            < counters["scalatrace.shared_plans"]

    def test_table_lives_with_one_run(self):
        hook = ScalaTraceHook()
        run_spmd(ring_app(iterations=10), 4, model=SimpleModel(),
                 hooks=[hook])
        table = hook._table
        assert table.outcomes
        hook.reset()
        assert hook._table is not table and not hook._table.outcomes

    def test_peak_stays_flat_as_iterations_grow(self):
        # 8x the raw events may move the peak by at most a few
        # replay-cursor rows — never proportionally.
        def peak(iters):
            with obs.instrumented() as inst:
                trace_app(ring_app(iterations=iters), 4)
            return {r["name"]: r["value"]
                    for r in inst.counter_records()}["scalatrace.nodes_live_peak"]
        assert peak(400) <= peak(50) + 5


class FullWalkHook(ScalaTraceHook):
    """The tracer with its live-node sample taken by walking every
    structure, as before the sample recounted only changed queues."""

    def _sample_live(self):
        from repro.scalatrace.rsd import count_nodes
        live = (self._acc.live_node_count()
                + sum(count_nodes(nodes) for nodes in self._parked.values())
                + sum(q.live_node_count() for q in self._queues.values()))
        self.nodes_live_peak = max(self.nodes_live_peak, live)


class TestLivePeakSample:
    @staticmethod
    def _peaks(app, np):
        peaks = []
        for hook in (ScalaTraceHook(), FullWalkHook()):
            run_spmd(make_app(app, np), np, hooks=[hook])
            peaks.append(hook.nodes_live_peak)
        return peaks

    @pytest.mark.parametrize("np", [4, 16])
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_peak_matches_full_walk(self, app, np):
        ours, walked = self._peaks(app, np)
        assert ours == walked > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_peak_matches_full_walk_np64(self, app):
        ours, walked = self._peaks(app, 64)
        assert ours == walked > 0


def reference_level_order(traces):
    """The seed's merge_traces: level-order pairwise LCS reduction."""
    world_size = traces[0].world_size
    comm_table = {}
    for t in traces:
        comm_table.update(t.comm_table)
    level = list(traces)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nodes = merge_node_lists(level[i].nodes, level[i + 1].nodes,
                                     comm_table)
            nxt.append(Trace(world_size, nodes, comm_table))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    result = level[0]
    result.comm_table = comm_table
    return result


class SeedReplicaHook(MPIHook):
    """The pre-streaming tracer: collect every rank's queue until run
    end, then merge with the level-order reduction and no fast path."""

    def __init__(self):
        self._queues = {}
        self._last_end = {}
        self.trace = None

    def on_event(self, event):
        q = self._queues.get(event.rank)
        if q is None:
            q = self._queues[event.rank] = CompressionQueue(event.rank)
        ingest_event(q, self._last_end, event)

    def on_run_end(self, world):
        comm_table = {c.id: c.world_ranks
                      for c in world.registry.all_comms()}
        per_rank = [Trace(world.size,
                          self._queues[r].nodes if r in self._queues else [],
                          dict(comm_table))
                    for r in range(world.size)]
        prev = set_merge_fastpath(False)
        try:
            self.trace = reference_level_order(per_rank)
        finally:
            set_merge_fastpath(prev)


class TestStreamingByteIdentity:
    """The whole streaming pipeline (incremental flush, binary-counter
    accumulator, fingerprint fast path) must be invisible in the output:
    every app preset serializes byte-identically to the seed tracer."""

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_app_preset_byte_identical(self, app):
        (np,) = valid_rank_counts(app, [4])
        seed, streaming = SeedReplicaHook(), ScalaTraceHook()
        run_spmd(make_app(app, np), nranks=np, hooks=[seed, streaming])
        assert dumps_trace(streaming.trace) == dumps_trace(seed.trace)

    @pytest.mark.parametrize("np", [8, 9])
    def test_odd_and_even_rank_counts(self, np):
        seed, streaming = SeedReplicaHook(), ScalaTraceHook()
        run_spmd(make_app("jacobi", np), nranks=np, hooks=[seed, streaming])
        assert dumps_trace(streaming.trace) == dumps_trace(seed.trace)
