"""Operation vocabulary of the simulator kernel.

Rank programs are Python generator functions.  They communicate with the
engine by yielding instances of the classes below; the engine resumes the
generator with the operation's result:

==================  =============================================
op yielded          generator receives back
==================  =============================================
:class:`Compute`    ``None`` (local clock advanced)
:class:`PostSend`   a send :class:`~repro.sim.requests.Request`
:class:`PostRecv`   a recv :class:`~repro.sim.requests.Request`
:class:`WaitAll`    list of :class:`~repro.sim.requests.Status`
:class:`WaitAny`    ``(index, Status)``
:class:`Test`       ``(bool, Status or None)``
:class:`Collective` ``None`` (clock advanced to collective end)
==================  =============================================

These are deliberately lower-level than MPI: the :mod:`repro.mpi` layer
builds blocking sends/receives and the full collective zoo on top.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import BadOperationError
from repro.sim.requests import Request

#: Wildcard source / tag values, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1


class Op:
    """Marker base class for all simulator operations.

    The engine dispatches on the exact class of a yielded op: a subclass
    of one of the classes below is not recognised, and like any other
    non-op value it ends the run in an :class:`~repro.errors.MPIUsageError`.
    """

    __slots__ = ()


class Compute(Op):
    """Advance the issuing rank's virtual clock by ``duration`` seconds —
    the simulated equivalent of a computation phase (or a generated
    benchmark's spin loop)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise BadOperationError(f"negative compute duration: {duration}")
        self.duration = duration if duration.__class__ is float \
            else float(duration)

    def __repr__(self) -> str:
        return f"Compute({self.duration:.6g})"


class PostSend(Op):
    """Post a nonblocking send of ``nbytes`` to world rank ``dst``."""

    __slots__ = ("dst", "nbytes", "tag", "comm_id")

    def __init__(self, dst: int, nbytes: int, tag: int = 0, comm_id: int = 0):
        if dst < 0:
            raise BadOperationError(f"bad destination: {dst}")
        if nbytes < 0:
            raise BadOperationError(f"negative message size: {nbytes}")
        self.dst = dst if dst.__class__ is int else int(dst)
        self.nbytes = nbytes if nbytes.__class__ is int else int(nbytes)
        self.tag = tag if tag.__class__ is int else int(tag)
        self.comm_id = comm_id if comm_id.__class__ is int else int(comm_id)

    def __repr__(self) -> str:
        return f"PostSend(dst={self.dst}, nbytes={self.nbytes}, tag={self.tag})"


class PostRecv(Op):
    """Post a nonblocking receive; ``src`` may be :data:`ANY_SOURCE` and
    ``tag`` may be :data:`ANY_TAG`."""

    __slots__ = ("src", "tag", "comm_id", "nbytes")

    def __init__(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                 comm_id: int = 0, nbytes: int = 0):
        if src < ANY_SOURCE:
            raise BadOperationError(f"bad source: {src}")
        self.src = src if src.__class__ is int else int(src)
        self.tag = tag if tag.__class__ is int else int(tag)
        self.comm_id = comm_id if comm_id.__class__ is int else int(comm_id)
        # nbytes is advisory; the matched message sets the actual size
        self.nbytes = nbytes if nbytes.__class__ is int else int(nbytes)

    def __repr__(self) -> str:
        return f"PostRecv(src={self.src}, tag={self.tag})"


class WaitAll(Op):
    """Block until every request in ``requests`` completes."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Request]):
        self.requests = tuple(requests)

    def __repr__(self) -> str:
        return f"WaitAll({len(self.requests)} requests)"


class WaitAny(Op):
    """Block until at least one request completes; resumes with the index
    and status of the earliest-completing one."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Request]):
        if not requests:
            raise BadOperationError("WaitAny needs at least one request")
        self.requests = tuple(requests)

    def __repr__(self) -> str:
        return f"WaitAny({len(self.requests)} requests)"


class Test(Op):
    """Non-blocking completion check of a single request."""

    __test__ = False  # not a pytest test class
    __slots__ = ("request",)

    def __init__(self, request: Request):
        self.request = request


class Collective(Op):
    """A collective operation over an explicit world-rank group.

    ``key`` selects the cost formula in the network model (``barrier``,
    ``bcast``, ``reduce``, ``allreduce``, ``gather``, ``scatter``,
    ``allgather``, ``alltoall``, ``reduce_scatter``, ``finalize``).
    ``nbytes`` is the per-rank payload the cost formula should use.
    The engine blocks each participant until all of ``group`` arrive, then
    resumes everyone at ``max(arrival clocks) + cost``.
    """

    __slots__ = ("group", "key", "nbytes", "comm_id")

    # programs yield the same group tuple every iteration (hot path for
    # iterative collectives); memoize its sorted form by object identity.
    # The memo keeps a strong reference to the key tuple, so the identity
    # test can never hit a recycled id.  Only exact tuples are cached —
    # a list could be mutated between yields, so anything else is
    # normalized per call.
    _group_memo: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())

    def __init__(self, group: Tuple[int, ...], key: str, nbytes: int = 0,
                 comm_id: int = 0):
        if not group:
            raise BadOperationError("collective over empty group")
        if type(group) is tuple:
            memo_key, memo_sorted = Collective._group_memo
            if memo_key is group:
                self.group = memo_sorted
            else:
                srt = tuple(sorted(group))
                Collective._group_memo = (group, srt)
                self.group = srt
        else:
            self.group = tuple(sorted(group))
        self.key = key
        self.nbytes = nbytes if nbytes.__class__ is int else int(nbytes)
        self.comm_id = comm_id if comm_id.__class__ is int else int(comm_id)

    def __repr__(self) -> str:
        return (f"Collective({self.key}, |group|={len(self.group)}, "
                f"nbytes={self.nbytes})")
