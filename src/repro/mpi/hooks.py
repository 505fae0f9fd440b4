"""PMPI-style interposition for the simulated MPI layer.

Every MPI-level call made by an application emits one :class:`MPIEvent` to
each registered :class:`MPIHook` — the simulated analogue of linking an
application against a PMPI wrapper library.  ScalaTrace's tracer and the
mpiP-style profiler are both implemented as hooks, exactly mirroring the
paper's tooling (§5.1–5.2).

Events are delivered per rank in that rank's program order, with virtual
timestamps taken before and after the operation, so a hook can recover
computation time as the gap between consecutive events (§3.1).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.mpi.comm import Communicator
from repro.util.callsite import Callsite

#: Events whose ``op`` is in this set participate in collective semantics.
COLLECTIVE_OPS = frozenset({
    "Barrier", "Bcast", "Reduce", "Allreduce", "Gather", "Gatherv",
    "Scatter", "Scatterv", "Allgather", "Allgatherv", "Alltoall",
    "Alltoallv", "Reduce_scatter", "Comm_split", "Comm_dup", "Finalize",
})

#: Point-to-point events.
P2P_OPS = frozenset({"Send", "Isend", "Recv", "Irecv"})

#: Completion events.  Every member folds to one coNCePTuaL AWAITS
#: statement in the generator, so tools that normalize traces (compare,
#: replay) must treat the whole family as one op.
WAIT_OPS = frozenset({"Wait", "Waitall", "Waitany", "Waitsome"})


class MPIEvent:
    """One interposed MPI call.

    ``peer`` and ``root`` are expressed in *communicator* ranks, as the
    application wrote them; ``matched_source`` (receives only) reports the
    world rank that actually satisfied the receive, which diagnostic tools
    may use but which ScalaTrace deliberately does not record (§4.4).
    ``nbytes`` is a scalar for uniform operations and a tuple for the
    vector collectives.  ``wait_offsets`` lists, for wait operations, the
    indices (0 = oldest) of the outstanding nonblocking requests being
    completed — enough to replay request linkage losslessly.
    """

    __slots__ = ("rank", "op", "comm", "peer", "tag", "nbytes", "root",
                 "wait_offsets", "t_start", "t_end", "callsite",
                 "matched_source")

    def __init__(self, rank: int, op: str, comm: Communicator,
                 peer: Optional[int] = None, tag: int = 0,
                 nbytes: Union[int, Tuple[int, ...]] = 0,
                 root: Optional[int] = None,
                 wait_offsets: Optional[Tuple[int, ...]] = None,
                 t_start: float = 0.0, t_end: float = 0.0,
                 callsite: Optional[Callsite] = None,
                 matched_source: Optional[int] = None):
        self.rank = rank
        self.op = op
        self.comm = comm
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.root = root
        self.wait_offsets = wait_offsets
        self.t_start = t_start
        self.t_end = t_end
        self.callsite = callsite
        self.matched_source = matched_source

    @property
    def total_bytes(self) -> int:
        if isinstance(self.nbytes, tuple):
            return sum(self.nbytes)
        return self.nbytes

    def __repr__(self) -> str:
        bits = [f"rank={self.rank}", f"op={self.op}"]
        if self.peer is not None:
            bits.append(f"peer={self.peer}")
        if self.root is not None:
            bits.append(f"root={self.root}")
        bits.append(f"nbytes={self.nbytes}")
        return f"MPIEvent({', '.join(bits)})"


class MPIHook:
    """Base class for interposition hooks; override what you need."""

    def on_event(self, event: MPIEvent) -> None:
        """Called after each MPI operation completes on a rank."""

    def on_run_end(self, world) -> None:
        """Called once after every rank has finished (post-MPI_Finalize)."""


class RecordingHook(MPIHook):
    """Trivial hook that appends every event to a list; used by tests."""

    def __init__(self):
        self.events = []
        self.run_ended = False

    def on_event(self, event: MPIEvent) -> None:
        self.events.append(event)

    def on_run_end(self, world) -> None:
        self.run_ended = True

    def by_rank(self, rank: int):
        return [e for e in self.events if e.rank == rank]
