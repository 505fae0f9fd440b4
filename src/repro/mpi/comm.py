"""Communicators for the simulated MPI layer.

A communicator is an ordered subset of world ranks; position in the order
is the *communicator rank*.  The paper's §4.2 points out that trace events
recorded against a sub-communicator must eventually be re-expressed in
"absolute" MPI_COMM_WORLD ranks for the generated benchmark to be readable;
this class provides both directions of that translation.

Communicator identity is *interned* per world: every rank that derives the
same logical communicator (same split instance, same color) receives an
object with the same integer ``id``, which is what the engine uses to keep
collective and point-to-point traffic on different communicators separate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import MPIUsageError


class Communicator:
    __slots__ = ("id", "world_ranks", "_index")

    def __init__(self, cid: int, world_ranks: Tuple[int, ...]):
        if len(set(world_ranks)) != len(world_ranks):
            raise MPIUsageError("duplicate ranks in communicator")
        self.id = cid
        self.world_ranks = tuple(world_ranks)
        self._index = {w: i for i, w in enumerate(self.world_ranks)}

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def rank_of_world(self, world_rank: int) -> int:
        """Communicator rank of a world rank (the inverse of to_world)."""
        try:
            return self._index[world_rank]
        except KeyError:
            raise MPIUsageError(
                f"world rank {world_rank} is not in communicator {self.id}"
            ) from None

    def to_world(self, comm_rank: int) -> int:
        """Absolute world rank of a communicator rank."""
        if not 0 <= comm_rank < self.size:
            raise MPIUsageError(
                f"rank {comm_rank} out of range for communicator {self.id} "
                f"of size {self.size}")
        return self.world_ranks[comm_rank]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Communicator):
            return NotImplemented
        return self.id == other.id and self.world_ranks == other.world_ranks

    def __hash__(self) -> int:
        return hash((self.id, self.world_ranks))

    def __repr__(self) -> str:
        return f"Communicator(id={self.id}, size={self.size})"


class CommRegistry:
    """World-wide interning table for communicators.

    Keys identify a *logical* creation event — e.g. ``("split", parent_id,
    instance, color)`` — so that every participating rank resolves to the
    identical :class:`Communicator` object.
    """

    def __init__(self, world_size: int):
        self.world_size = world_size
        self.comm_world = Communicator(0, tuple(range(world_size)))
        self._next_id = 1
        self._by_key: Dict[tuple, Communicator] = {}
        self._by_id: Dict[int, Communicator] = {0: self.comm_world}

    def intern(self, key: tuple, world_ranks: Tuple[int, ...]) -> Communicator:
        comm = self._by_key.get(key)
        if comm is None:
            comm = Communicator(self._next_id, world_ranks)
            self._next_id += 1
            self._by_key[key] = comm
            self._by_id[comm.id] = comm
        elif comm.world_ranks != tuple(world_ranks):
            raise MPIUsageError(
                f"communicator key {key} re-interned with different ranks")
        return comm

    def by_id(self, cid: int) -> Optional[Communicator]:
        return self._by_id.get(cid)

    def all_comms(self):
        return list(self._by_id.values())
