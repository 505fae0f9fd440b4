"""ScalaReplay: execute a ScalaTrace trace directly on the simulator.

The paper's §5.2 uses ScalaReplay to compare an application's trace with
its generated benchmark's trace "fairly": replaying both erases spurious
structural differences (call-stack signatures) while preserving the
semantic event stream.  Replay is also useful on its own — it is the
trace-driven twin of the generated benchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TraceError
from repro.mpi.api import ANY_SOURCE, MPIProcess
from repro.mpi.hooks import COLLECTIVE_OPS, WAIT_OPS
from repro.mpi.world import SpmdResult
from repro.scalatrace.rsd import Trace
from repro.util.expr import ANY_SOURCE as TRACE_ANY

#: collectives whose replay is ``mpi.<op.lower()>(...)``; the
#: communicator-management ops and Finalize are replayed individually
_COLLECTIVES = COLLECTIVE_OPS - {"Comm_split", "Comm_dup", "Finalize"}
_ROOTED = frozenset({"Bcast", "Reduce", "Gather", "Gatherv", "Scatter",
                     "Scatterv"})
_VECTOR = frozenset({"Alltoallv", "Reduce_scatter"})


def replay_program(trace: Trace, include_timing: bool = True):
    """SPMD program function that re-executes ``trace`` event by event.

    Communicators are rebuilt by replaying the recorded Comm_split /
    Comm_dup events; trace communicator ids are mapped onto the replayed
    ones by membership.  Computation gaps are reproduced from the per-node
    timing histograms (deterministic round-robin draws, preserving each
    node's total recorded time).
    """

    def program(mpi: MPIProcess):
        outstanding = []
        # trace comm id -> replayed Communicator, matched by membership
        by_ranks = {tuple(range(trace.world_size)): mpi.comm_world}

        def comm_for(comm_id):
            ranks = trace.comm_ranks(comm_id)
            try:
                return by_ranks[tuple(ranks)]
            except KeyError:
                raise TraceError(
                    f"replay reached an event on communicator {comm_id} "
                    f"({ranks}) before replaying its creation") from None

        for ev, delta in trace.iter_timed(mpi.rank):
            if include_timing and delta > 0:
                yield from mpi.compute(delta)

            op = ev.op
            if op == "Isend":
                req = yield from mpi.isend(dest=ev.peer, nbytes=ev.size,
                                           tag=ev.tag,
                                           comm=comm_for(ev.comm_id))
                outstanding.append(req)
            elif op == "Send":
                yield from mpi.send(dest=ev.peer, nbytes=ev.size,
                                    tag=ev.tag, comm=comm_for(ev.comm_id))
            elif op == "Irecv":
                src = ANY_SOURCE if ev.peer == TRACE_ANY else ev.peer
                req = yield from mpi.irecv(source=src, tag=ev.tag,
                                           comm=comm_for(ev.comm_id))
                outstanding.append(req)
            elif op == "Recv":
                src = ANY_SOURCE if ev.peer == TRACE_ANY else ev.peer
                yield from mpi.recv(source=src, tag=ev.tag,
                                    comm=comm_for(ev.comm_id))
            elif op in WAIT_OPS:
                # Waitany/Waitsome record the offsets of the requests
                # that actually completed, so replaying them as a
                # waitall over exactly those requests reproduces the
                # original completion (the simulator is deterministic)
                offsets = ev.wait_offsets or ()
                reqs = [outstanding[o] for o in offsets]
                for r in reqs:
                    outstanding.remove(r)
                if len(reqs) == 1 and op == "Wait":
                    yield from mpi.wait(reqs[0])
                else:
                    yield from mpi.waitall(reqs)
            elif op in _COLLECTIVES:
                # one call shape per argument list: rooted, vector-sized,
                # scalar-sized, or none (Barrier)
                kwargs = {"comm": comm_for(ev.comm_id)}
                if op in _ROOTED:
                    kwargs["root"] = ev.root
                args = (() if op == "Barrier" else
                        (list(ev.size),) if op in _VECTOR else (ev.size,))
                yield from getattr(mpi, op.lower())(*args, **kwargs)
            elif op == "Comm_split":
                color, key = ev.size
                sub = yield from mpi.comm_split(
                    comm_for(ev.comm_id),
                    None if color == -1 else color, key)
                if sub is not None:
                    by_ranks[sub.world_ranks] = sub
            elif op == "Comm_dup":
                sub = yield from mpi.comm_dup(comm_for(ev.comm_id))
                by_ranks[sub.world_ranks] = sub
            elif op == "Finalize":
                yield from mpi.finalize()
            else:
                raise TraceError(f"replay cannot interpret op {op!r}")

    return program


def replay_trace(trace: Trace, model=None, hooks=None,
                 include_timing: bool = True,
                 max_steps: Optional[int] = None) -> SpmdResult:
    """Run a full replay of ``trace``; returns the simulation result.

    Thin wrapper over the pipeline's :class:`ReplayStage`, so replays
    share the one orchestrated code path (context, instrumentation,
    stage records) with the rest of the system.
    """
    from repro.pipeline import Pipeline, PipelineConfig, ReplayStage, \
        RunContext
    config = PipelineConfig(nranks=trace.world_size, platform=None,
                            include_timing=include_timing,
                            max_steps=max_steps)
    ctx = RunContext(config, model=model, hooks=hooks)
    ctx.artifacts["trace"] = trace
    Pipeline([ReplayStage()]).run(context=ctx)
    return ctx.artifacts["run_result"]
