"""The simulated MPI API used by application programs.

Applications are SPMD generator functions receiving one :class:`MPIProcess`
per rank and delegating to its methods with ``yield from``::

    def program(mpi):
        right = (mpi.rank + 1) % mpi.size
        for _ in range(100):
            rreq = yield from mpi.irecv(source=ANY_SOURCE)
            yield from mpi.send(dest=right, nbytes=1024)
            yield from mpi.wait(rreq)
            yield from mpi.compute(5e-6)
        yield from mpi.finalize()

Every method interposes like a PMPI wrapper: when at least one hook
(tracer, profiler, ...) is attached to the world, it captures the call
site, timestamps the operation in virtual time and emits an
:class:`~repro.mpi.hooks.MPIEvent` to every hook.  A world with no hook
is an uninstrumented run: the calls go straight to the simulator and
build no event, as an application not linked against a PMPI tool would.
The usage checks hold either way.  Peers and roots are expressed in
communicator ranks, as in real MPI.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import MPIUsageError
from repro.mpi.comm import Communicator
from repro.mpi.hooks import MPIEvent
from repro.sim.ops import (ANY_SOURCE, ANY_TAG, Collective, Compute,
                           PostRecv, PostSend, Test, WaitAll, WaitAny)
from repro.sim.requests import Request, Status
from repro.util.callsite import Callsite, capture_callsite

__all__ = ["ANY_SOURCE", "ANY_TAG", "MPIProcess"]


class MPIProcess:
    """Per-rank MPI endpoint bound to a :class:`~repro.mpi.world.World`."""

    def __init__(self, world, rank: int):
        self.world = world
        self.rank = rank
        self._outstanding: List[Request] = []
        self._req_comm = {}
        self._split_seq = {}
        self._finalized = False
        #: hooks are fixed when the World is built, so whether anything
        #: listens is decided once; without a listener no event is built
        self._traced = bool(world.hooks)
        #: explicit callsite override; the coNCePTuaL compiler sets this so
        #: generated programs have AST-path signatures instead of stack ones
        self.callsite_override: Optional[Callsite] = None

    # -- introspection ----------------------------------------------------
    @property
    def comm_world(self) -> Communicator:
        return self.world.registry.comm_world

    @property
    def size(self) -> int:
        return self.comm_world.size

    def now(self) -> float:
        """Current virtual time on this rank (MPI_Wtime analogue)."""
        return self.world.engine.now(self.rank)

    # -- internals ----------------------------------------------------------
    def _comm(self, comm: Optional[Communicator]) -> Communicator:
        if comm is None:
            return self.comm_world
        return comm

    def _callsite(self) -> Callsite:
        if self.callsite_override is not None:
            return self.callsite_override
        return capture_callsite(skip=2)

    def _emit(self, op: str, comm: Communicator, t_start: float,
              callsite: Callsite, **kw) -> None:
        event = MPIEvent(rank=self.rank, op=op, comm=comm, t_start=t_start,
                         t_end=self.now(), callsite=callsite, **kw)
        for hook in self.world.hooks:
            hook.on_event(event)

    def _convert_status(self, st: Status, comm: Communicator) -> Status:
        """Engine statuses carry world ranks; applications see comm ranks."""
        if st is None or st.source is None:
            return st
        return Status(comm.rank_of_world(st.source), st.tag, st.nbytes)

    # -- point-to-point -------------------------------------------------------
    def send(self, dest: int, nbytes: int, tag: int = 0,
             comm: Optional[Communicator] = None):
        """Blocking standard-mode send (MPI_Send)."""
        comm = self._comm(comm)
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        req = yield PostSend(comm.to_world(dest), nbytes, tag, comm.id)
        yield WaitAll([req])
        if self._traced:
            self._emit("Send", comm, t0, cs, peer=dest, tag=tag,
                       nbytes=nbytes)

    def isend(self, dest: int, nbytes: int, tag: int = 0,
              comm: Optional[Communicator] = None):
        """Nonblocking send (MPI_Isend); complete with wait/waitall."""
        comm = self._comm(comm)
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        req = yield PostSend(comm.to_world(dest), nbytes, tag, comm.id)
        self._outstanding.append(req)
        self._req_comm[id(req)] = comm
        if self._traced:
            self._emit("Isend", comm, t0, cs, peer=dest, tag=tag,
                       nbytes=nbytes)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Optional[Communicator] = None):
        """Blocking receive (MPI_Recv); returns the Status with the matched
        (communicator-rank) source — how applications observe wildcards."""
        comm = self._comm(comm)
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        wsrc = source if source == ANY_SOURCE else comm.to_world(source)
        req = yield PostRecv(wsrc, tag, comm.id)
        (st,) = yield WaitAll([req])
        if self._traced:
            self._emit("Recv", comm, t0, cs, peer=source, tag=tag,
                       nbytes=st.nbytes, matched_source=st.source)
        return self._convert_status(st, comm)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Optional[Communicator] = None):
        """Nonblocking receive (MPI_Irecv); complete with wait/waitall."""
        comm = self._comm(comm)
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        wsrc = source if source == ANY_SOURCE else comm.to_world(source)
        req = yield PostRecv(wsrc, tag, comm.id)
        self._outstanding.append(req)
        self._req_comm[id(req)] = comm
        if self._traced:
            self._emit("Irecv", comm, t0, cs, peer=source, tag=tag,
                       nbytes=0)
        return req

    # -- completion -------------------------------------------------------------
    def _offsets_of(self, requests: Sequence[Request]) -> Tuple[int, ...]:
        offsets = []
        for req in requests:
            try:
                offsets.append(self._outstanding.index(req))
            except ValueError:
                raise MPIUsageError(
                    "waiting on a request that is not outstanding") from None
        if len(set(offsets)) != len(offsets):
            raise MPIUsageError("waiting on the same request twice")
        return tuple(sorted(offsets))

    def _retire(self, requests: Sequence[Request]) -> None:
        for req in requests:
            self._outstanding.remove(req)

    def wait(self, request: Request):
        """MPI_Wait: complete one outstanding nonblocking operation."""
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        offsets = self._offsets_of([request])
        (st,) = yield WaitAll([request])
        self._retire([request])
        comm = self._req_comm.pop(id(request))
        if self._traced:
            recv = request.kind == "recv"
            self._emit("Wait", comm, t0, cs, wait_offsets=offsets,
                       nbytes=st.nbytes if recv else 0,
                       matched_source=st.source if recv else None)
        return self._convert_status(st, comm) if request.kind == "recv" else None

    def waitall(self, requests: Sequence[Request]):
        """MPI_Waitall: complete a set of outstanding operations."""
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        requests = list(requests)
        offsets = self._offsets_of(requests)
        statuses = yield WaitAll(requests)
        self._retire(requests)
        comms = [self._req_comm.pop(id(r)) for r in requests]
        if self._traced:
            recv_bytes = sum(st.nbytes for r, st in zip(requests, statuses)
                             if r.kind == "recv")
            self._emit("Waitall", self.comm_world, t0, cs,
                       wait_offsets=offsets, nbytes=recv_bytes)
        return [self._convert_status(st, c) if r.kind == "recv" else None
                for r, st, c in zip(requests, statuses, comms)]

    def waitany(self, requests: Sequence[Request]):
        """MPI_Waitany: block until (at least) one of the outstanding
        operations completes; retires exactly that one.  Returns
        ``(index, status)`` — the index into ``requests`` of the completed
        operation, and its status (None for sends).

        The traced event's ``wait_offsets`` names only the *completed*
        request, so a replay retires the same operation the original run
        did (the simulator is deterministic, so the same one completes)."""
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        requests = list(requests)
        self._offsets_of(requests)  # validate up front
        idx, st = yield WaitAny(requests)
        req = requests[idx]
        offsets = self._offsets_of([req])
        self._retire([req])
        comm = self._req_comm.pop(id(req))
        if self._traced:
            recv = req.kind == "recv"
            self._emit("Waitany", comm, t0, cs, wait_offsets=offsets,
                       nbytes=st.nbytes if recv else 0,
                       matched_source=st.source if recv else None)
        return idx, (self._convert_status(st, comm)
                     if req.kind == "recv" else None)

    def waitsome(self, requests: Sequence[Request]):
        """MPI_Waitsome: block until at least one outstanding operation
        completes, then retire *every* operation already complete at that
        virtual time.  Returns ``(indices, statuses)`` sorted by index.

        As with :meth:`waitany`, the traced ``wait_offsets`` lists the
        completed requests only."""
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        requests = list(requests)
        self._offsets_of(requests)  # validate up front
        idx, st = yield WaitAny(requests)
        done = [(idx, st)]
        for i, req in enumerate(requests):
            if i == idx:
                continue
            flag, st2 = yield Test(req)
            if flag:
                done.append((i, st2))
        done.sort(key=lambda pair: pair[0])
        reqs = [requests[i] for i, _ in done]
        offsets = self._offsets_of(reqs)
        self._retire(reqs)
        comms = [self._req_comm.pop(id(r)) for r in reqs]
        if self._traced:
            recv_bytes = sum(s.nbytes for (_, s), r in zip(done, reqs)
                             if r.kind == "recv")
            self._emit("Waitsome", self.comm_world, t0, cs,
                       wait_offsets=offsets, nbytes=recv_bytes)
        statuses = [self._convert_status(s, c) if r.kind == "recv" else None
                    for (_, s), r, c in zip(done, reqs, comms)]
        return [i for i, _ in done], statuses

    def test(self, request: Request):
        """MPI_Test: nonblocking completion probe.  Does not emit a trace
        event (like ScalaTrace, we only record completed communication)."""
        if request not in self._outstanding:
            raise MPIUsageError("testing a request that is not outstanding")
        flag, st = yield Test(request)
        if flag:
            comm = self._req_comm.pop(id(request))
            self._outstanding.remove(request)
            return True, (self._convert_status(st, comm)
                          if request.kind == "recv" else None)
        return False, None

    # -- collectives --------------------------------------------------------------
    def _collective(self, op: str, key: str, comm: Communicator,
                    cost_bytes: int, **event_kw):
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        yield Collective(comm.world_ranks, key, nbytes=cost_bytes,
                         comm_id=comm.id)
        if self._traced:
            self._emit(op, comm, t0, cs, **event_kw)

    def barrier(self, comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Barrier", "barrier", comm, 0, nbytes=0)

    def bcast(self, nbytes: int, root: int = 0,
              comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Bcast", "bcast", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def reduce(self, nbytes: int, root: int = 0,
               comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Reduce", "reduce", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def allreduce(self, nbytes: int, comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Allreduce", "allreduce", comm, nbytes,
                                    nbytes=nbytes)

    def gather(self, nbytes: int, root: int = 0,
               comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Gather", "gather", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def gatherv(self, nbytes: int, root: int = 0,
                comm: Optional[Communicator] = None):
        """Vector gather: ``nbytes`` is *this rank's* contribution."""
        comm = self._comm(comm)
        yield from self._collective("Gatherv", "gather", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def scatter(self, nbytes: int, root: int = 0,
                comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Scatter", "scatter", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def scatterv(self, nbytes: int, root: int = 0,
                 comm: Optional[Communicator] = None):
        """Vector scatter: ``nbytes`` is *this rank's* portion."""
        comm = self._comm(comm)
        yield from self._collective("Scatterv", "scatter", comm, nbytes,
                                    nbytes=nbytes, root=root)

    def allgather(self, nbytes: int, comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Allgather", "allgather", comm, nbytes,
                                    nbytes=nbytes)

    def allgatherv(self, nbytes: int, comm: Optional[Communicator] = None):
        comm = self._comm(comm)
        yield from self._collective("Allgatherv", "allgather", comm, nbytes,
                                    nbytes=nbytes)

    def alltoall(self, nbytes: int, comm: Optional[Communicator] = None):
        """``nbytes`` is the per-destination payload."""
        comm = self._comm(comm)
        yield from self._collective("Alltoall", "alltoall", comm, nbytes,
                                    nbytes=nbytes)

    def alltoallv(self, nbytes_list: Sequence[int],
                  comm: Optional[Communicator] = None):
        """Vector all-to-all: one payload size per destination rank."""
        comm = self._comm(comm)
        nbytes_list = tuple(int(n) for n in nbytes_list)
        if len(nbytes_list) != comm.size:
            raise MPIUsageError(
                f"alltoallv needs {comm.size} sizes, got {len(nbytes_list)}")
        avg = sum(nbytes_list) // max(len(nbytes_list), 1)
        yield from self._collective("Alltoallv", "alltoall", comm, avg,
                                    nbytes=nbytes_list)

    def reduce_scatter(self, nbytes_list: Sequence[int],
                       comm: Optional[Communicator] = None):
        """``nbytes_list[i]`` is the result size delivered to comm rank i."""
        comm = self._comm(comm)
        nbytes_list = tuple(int(n) for n in nbytes_list)
        if len(nbytes_list) != comm.size:
            raise MPIUsageError(
                f"reduce_scatter needs {comm.size} sizes, "
                f"got {len(nbytes_list)}")
        avg = sum(nbytes_list) // max(len(nbytes_list), 1)
        yield from self._collective("Reduce_scatter", "reduce_scatter", comm,
                                    avg, nbytes=nbytes_list)

    # -- communicator management -----------------------------------------------
    def group_comm(self, world_ranks) -> Communicator:
        """Intern a communicator for an explicit world-rank group *without*
        any communication or trace event.

        This models coNCePTuaL's implicit sub-communicator creation (§3.2:
        "MPI subcommunicator creation ... handled implicitly"): compiled
        benchmarks know their collective groups statically, so the setup
        happens outside the measured/traced region.
        """
        ranks = tuple(sorted(int(r) for r in world_ranks))
        if ranks == self.comm_world.world_ranks:
            return self.comm_world
        return self.world.registry.intern(("group", ranks), ranks)

    def comm_split(self, comm: Optional[Communicator], color: Optional[int],
                   key: int = 0):
        """MPI_Comm_split: returns this rank's sub-communicator, or None
        when ``color`` is None (MPI_UNDEFINED)."""
        comm = self._comm(comm)
        seq = self._split_seq.get(("split", comm.id), 0)
        self._split_seq[("split", comm.id)] = seq + 1
        slot = self.world.split_data.setdefault((comm.id, seq), {})
        slot[self.rank] = (color, key)
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        yield Collective(comm.world_ranks, "allgather", nbytes=8,
                         comm_id=comm.id)
        if self._traced:
            color_code = -1 if color is None else color
            self._emit("Comm_split", comm, t0, cs, nbytes=(color_code, key))
        if color is None:
            return None
        members = sorted((k, w) for w, (c, k) in slot.items() if c == color)
        ranks = tuple(w for _, w in members)
        return self.world.registry.intern(("split", comm.id, seq, color),
                                          ranks)

    def comm_dup(self, comm: Optional[Communicator] = None):
        """MPI_Comm_dup: a new communicator with identical membership."""
        comm = self._comm(comm)
        seq = self._split_seq.get(("dup", comm.id), 0)
        self._split_seq[("dup", comm.id)] = seq + 1
        if self._traced:
            cs, t0 = self._callsite(), self.now()
        yield Collective(comm.world_ranks, "barrier", comm_id=comm.id)
        if self._traced:
            self._emit("Comm_dup", comm, t0, cs, nbytes=0)
        return self.world.registry.intern(("dup", comm.id, seq),
                                          comm.world_ranks)

    # -- compute & teardown ---------------------------------------------------------
    def compute(self, seconds: float):
        """Advance this rank's clock: the simulated computation phase
        between MPI calls (what ScalaTrace measures as delta time)."""
        yield Compute(seconds)

    def finalize(self):
        """MPI_Finalize: a world-wide collective (treated exactly as the
        paper's algorithms treat it, §4.3/§4.4)."""
        if self._finalized:
            raise MPIUsageError(f"rank {self.rank} finalized twice")
        if self._outstanding:
            raise MPIUsageError(
                f"rank {self.rank} finalized with "
                f"{len(self._outstanding)} outstanding requests")
        comm = self.comm_world
        yield from self._collective("Finalize", "finalize", comm, 0, nbytes=0)
        self._finalized = True
