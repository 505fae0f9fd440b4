"""SPMD program launcher for the simulated MPI layer."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import MPIUsageError, SimulationError
from repro.mpi.api import MPIProcess
from repro.mpi.comm import CommRegistry
from repro.mpi.hooks import MPIHook
from repro.sim.engine import Engine
from repro.sim.network import LogGPModel, NetworkModel


class World:
    """Shared state of one simulated MPI job: the engine, the communicator
    registry, the hook list, and the rendezvous area for comm_split data."""

    def __init__(self, nranks: int, model: NetworkModel,
                 hooks: Optional[Sequence[MPIHook]] = None,
                 **engine_options):
        self.engine = Engine(nranks, model, **engine_options)
        self.registry = CommRegistry(nranks)
        self.hooks: List[MPIHook] = list(hooks or [])
        self.split_data: Dict[tuple, Dict[int, tuple]] = {}

    @property
    def size(self) -> int:
        return self.registry.comm_world.size


class SpmdResult:
    """Outcome of a simulated SPMD run."""

    def __init__(self, world: World, total_time: float):
        self.world = world
        self.total_time = total_time
        self.per_rank_times = [world.engine.now(r) for r in range(world.size)]
        self.messages_sent = world.engine.messages_sent
        self.bytes_sent = world.engine.bytes_sent
        self.crashed_ranks = tuple(world.engine.crashed_ranks)
        self.starved_ranks = tuple(world.engine.starved_ranks)
        #: per-link contention accounting (routed fabrics only; {} flat)
        self.link_stats = world.engine.link_stats
        #: FaultReport when the run was driven by a fault injector
        self.fault_report = None
        if world.engine.faults is not None:
            from repro.faults.report import build_fault_report
            self.fault_report = build_fault_report(world.engine,
                                                   world.engine.faults)

    @property
    def degraded(self) -> bool:
        """True when at least one rank crashed or starved."""
        return bool(self.crashed_ranks or self.starved_ranks)

    def __repr__(self) -> str:
        tail = ""
        if self.degraded:
            tail = (f", crashed={list(self.crashed_ranks)}, "
                    f"starved={list(self.starved_ranks)}")
        return (f"SpmdResult(time={self.total_time:.6g}s, "
                f"messages={self.messages_sent}{tail})")


def _wrap(program: Callable, mpi: MPIProcess):
    """Run the user program and enforce that it finalized."""
    gen = program(mpi)
    if not inspect.isgenerator(gen):
        raise MPIUsageError(
            "an SPMD program must be a generator function (use 'yield from' "
            "on the mpi methods)")
    yield from gen
    if not mpi._finalized:
        raise MPIUsageError(
            f"rank {mpi.rank} returned without calling mpi.finalize()")


def run_spmd(program: Callable, nranks: int,
             model: Optional[NetworkModel] = None,
             hooks: Optional[Sequence[MPIHook]] = None,
             **engine_options) -> SpmdResult:
    """Execute ``program`` on ``nranks`` simulated ranks.

    ``program(mpi)`` must be a generator function taking an
    :class:`MPIProcess` and must end with ``yield from mpi.finalize()``.
    Returns an :class:`SpmdResult`; hooks observe every MPI event and are
    told when the run ends.  ``engine_options`` go to
    :class:`~repro.sim.engine.Engine` unchanged (``max_steps``,
    ``faults``, ``profile``, the schedule policy and the queue
    discipline are declared there).  When a faulted simulation dies
    (deadlock/livelock) the raised :class:`SimulationError` carries a
    ``partial`` attribute with the :class:`SpmdResult` of everything that
    executed before the hang, and hooks still observe the end of the run
    — that is what lets the pipeline salvage a trace prefix and fault
    report.
    """
    world = World(nranks, model or LogGPModel(), hooks=hooks,
                  **engine_options)
    gens = [_wrap(program, MPIProcess(world, r)) for r in range(nranks)]
    try:
        total = world.engine.run(gens)
    except SimulationError as exc:
        for hook in world.hooks:
            hook.on_run_end(world)
        exc.partial = SpmdResult(world, world.engine.total_time)
        raise
    for hook in world.hooks:
        hook.on_run_end(world)
    return SpmdResult(world, total)
