"""RSD/PRSD trace data model (ScalaTrace's compressed representation).

An application trace is a sequence of nodes:

* :class:`EventNode` — one MPI call site.  Covers many *instances* (loop
  iterations) and many *ranks*; parameters that vary are captured without
  loss by :class:`ParamField`.
* :class:`LoopNode` — a Power-RSD: ``count`` repetitions of a nested node
  sequence, discovered by on-the-fly loop compression.

The two mechanisms of compression that keep the trace near-constant size
(the paper's §3.1) are visible directly in the model: loop folding grows
``count`` instead of the node list, and inter-rank merging grows the
:class:`~repro.util.rankset.RankSet` (plus a closed-form
:class:`~repro.util.expr.ParamExpr` such as "peer = rank+1 mod N") instead
of duplicating nodes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.util.expr import ParamExpr
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq


class ParamField:
    """A per-event parameter that may vary across loop iterations and/or
    across ranks, stored losslessly in the most compact available form.

    Exactly one representation is active:

    * ``seq``  — a :class:`ValueSeq` of per-iteration values, identical on
      every participating rank (covers the single-rank case trivially);
    * ``expr`` — a :class:`ParamExpr` giving a per-rank value that is
      constant across iterations (e.g. ``rank+1 mod N``);
    * ``rank_map`` — rank → :class:`ValueSeq`, the fully general lossless
      fallback for parameters that vary per rank *and* per iteration in a
      pattern with no closed form (e.g. CG's butterfly partners,
      ``rank XOR 2^k``).  Trace size then grows with the rank count for
      this one RSD — the price of losslessness for irregular patterns.

    Ranks in ``expr`` and ``rank_map`` are *communicator* ranks.
    """

    __slots__ = ("seq", "expr", "rank_map")

    def __init__(self, seq: Optional[ValueSeq] = None,
                 expr: Optional[ParamExpr] = None,
                 rank_map: Optional[Dict[int, ValueSeq]] = None):
        if (seq is None) + (expr is None) + (rank_map is None) != 2:
            raise TraceError(
                "ParamField needs exactly one of seq/expr/rank_map")
        self.seq = seq
        self.expr = expr
        self.rank_map = rank_map

    @classmethod
    def of(cls, value) -> "ParamField":
        """One instance of ``value`` (a traced event's parameter)."""
        field = cls.__new__(cls)
        field.seq = ValueSeq.single(value)
        field.expr = None
        field.rank_map = None
        return field

    # -- queries ------------------------------------------------------------
    def is_constant(self) -> bool:
        if self.seq is not None:
            return self.seq.is_constant()
        if self.expr is not None:
            return self.expr.is_constant()
        return False

    def constant_value(self):
        if self.seq is not None:
            return self.seq.value
        if self.expr is not None:
            return self.expr.constant_value()
        raise TraceError("rank_map fields have no single constant value")

    @staticmethod
    def _seq_at(seq: ValueSeq, instance: int):
        if seq.is_constant():
            return seq.value
        return seq[instance]

    def _rank_seq(self, rank: int) -> ValueSeq:
        """The per-instance values on one rank (not for expr fields)."""
        if self.seq is not None:
            return self.seq
        try:
            return self.rank_map[rank]
        except KeyError:
            raise TraceError(f"rank {rank} missing from rank_map") from None

    def value_at(self, rank: int, instance: int):
        """Concrete value for a given (communicator) rank and instance."""
        if self.expr is not None:
            return self.expr.evaluate(rank)
        return self._seq_at(self._rank_seq(rank), instance)

    def rank_values(self, rank: int) -> Tuple[object, Optional[list]]:
        """All of one rank's values: ``(value, None)`` when it is the
        same on every instance, else ``(None, per-instance list)``."""
        if self.expr is not None:
            return self.expr.evaluate(rank), None
        seq = self._rank_seq(rank)
        if seq.is_constant():
            return seq.value, None
        return None, list(seq)

    def instances(self) -> Optional[int]:
        """Number of recorded instances, or None for expr fields (which are
        instance-count agnostic)."""
        if self.seq is not None and not self.seq.is_constant():
            return len(self.seq)
        if self.rank_map is not None:
            lens = {len(s) for s in self.rank_map.values()
                    if not s.is_constant()}
            if lens:
                return max(lens)
        return None

    def copy(self) -> "ParamField":
        """A copy whose value sequences are its own (an expression is
        shared: nothing changes one after it is made)."""
        field = ParamField.__new__(ParamField)
        field.seq = None if self.seq is None else self.seq.copy()
        field.expr = self.expr
        field.rank_map = None if self.rank_map is None else {
            r: s.copy() for r, s in self.rank_map.items()}
        return field

    def _seq_for(self, rank: int) -> ValueSeq:
        if self.seq is not None:
            return self.seq
        if self.expr is not None:
            return ValueSeq.constant(self.expr.evaluate(rank), 1)
        return self.rank_map[rank]

    @staticmethod
    def _constant_samples(field: "ParamField", ranks) -> Optional[list]:
        """(rank, int) samples if the field is constant-per-rank with
        integer values on every given rank; else None."""
        if field.expr is not None:
            return field.expr.samples(ranks)
        seq = field.seq
        out = []
        for r in ranks:
            s = field.rank_map[r] if seq is None else seq
            if not s.is_constant():
                return None
            v = s.value
            if not isinstance(v, int):
                return None
            out.append((r, v))
        return out

    def merge_ranks(self, my_ranks: RankSet, other: "ParamField",
                    other_ranks: RankSet,
                    comm_size: Optional[int]) -> "ParamField":
        """Field covering both rank sets (inter-rank merge).  Always
        succeeds: closed forms are preferred; failing that, the lossless
        per-rank ``rank_map`` fallback is used."""
        if self.seq is not None and other.seq is not None \
                and self.seq == other.seq:
            return ParamField(seq=self.seq)
        if self.expr is not None and other.expr is not None:
            return ParamField(expr=self.expr.merge(
                my_ranks, other.expr, other_ranks, comm_size))
        a = self._constant_samples(self, my_ranks)
        b = self._constant_samples(other, other_ranks)
        if a is not None and b is not None:
            return ParamField(expr=ParamExpr.infer(a + b, comm_size))
        m = {r: self._seq_for(r) for r in my_ranks}
        m.update({r: other._seq_for(r) for r in other_ranks})
        # compact: identical sequences everywhere collapse back to seq
        seqs = list(m.values())
        if all(s == seqs[0] for s in seqs[1:]):
            return ParamField(seq=seqs[0])
        return ParamField(rank_map=m)

    # -- identity ---------------------------------------------------------------
    def _key(self):
        if self.seq is not None:
            return ("seq", tuple(self.seq.runs))
        if self.expr is not None:
            return ("expr", self.expr._key())
        return ("map", tuple(sorted(
            (r, tuple(s.runs)) for r, s in self.rank_map.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamField):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def serialize(self) -> str:
        if self.seq is not None:
            return "Q" + self.seq.serialize()
        if self.expr is not None:
            return "E" + self.expr.serialize()
        return "M" + ";".join(
            f"{r}={s.serialize()}"
            for r, s in sorted(self.rank_map.items()))

    @classmethod
    def parse(cls, text: str) -> "ParamField":
        if text.startswith("Q"):
            return cls(seq=ValueSeq.parse(text[1:]))
        if text.startswith("E"):
            return cls(expr=ParamExpr.parse(text[1:]))
        if text.startswith("M"):
            m = {}
            for part in text[1:].split(";"):
                r, s = part.split("=", 1)
                m[int(r)] = ValueSeq.parse(s)
            return cls(rank_map=m)
        raise TraceError(f"bad ParamField: {text!r}")

    def __repr__(self) -> str:
        return f"ParamField({self.serialize()})"


#: Modulus/base of the structural fingerprint space.  Fingerprints are
#: Rabin-style rolling hashes over node structure, kept in a prime field
#: so :class:`~repro.scalatrace.compress.CompressionQueue` can compare a
#: whole window of nodes with one subtraction (see ``docs/PERFORMANCE.md``).
FP_MOD = (1 << 61) - 1
FP_BASE = 1_000_003


class Node:
    """Base class of trace nodes.

    ``fp`` is a structural *fingerprint*: a stable hash of the identity
    fields :func:`~repro.scalatrace.compress.nodes_match` compares (call
    site identity, rank set, loop shape — never per-iteration parameters
    or timing).  Two nodes that match always share a fingerprint, so
    ``fp`` inequality disproves a match in O(1); equality is confirmed
    structurally before any fold, keeping compression output independent
    of hash collisions.  Nodes are never structurally mutated after
    construction, so the fingerprint is computed once in ``__init__``.
    """

    __slots__ = ("ranks", "fp")

    def iter_events(self) -> Iterator["EventNode"]:
        raise NotImplementedError

    def event_instances(self, rank: int) -> int:
        """Number of concrete MPI events this node expands to on ``rank``."""
        raise NotImplementedError


class EventNode(Node):
    """One MPI call site (an RSD).

    ``instances`` is the per-rank repetition count (identical across the
    rank set — nodes with differing counts are never merged).

    Timing follows ScalaTrace's path-aware summarization (§3.1: "the time
    spent in the first iteration generally differs significantly from the
    times spent in subsequent iterations"): ``time_first`` holds the
    computation delta preceding each rank's *first* instance of this
    event, ``time_rest`` the deltas of all subsequent instances.  The
    ``time`` property exposes the merged aggregate.

    ``shape`` is the signature, the instance count and which parameters
    are present (none of them ever change after construction).  Two
    events merge across ranks exactly when their shapes are equal, and an
    event's shape is all that the inter-rank alignment and the generator's
    rank classes read of it.
    """

    __slots__ = ("op", "callsite", "comm_id", "instances", "peer", "size",
                 "tag", "root", "wait_offsets", "time_first", "time_rest",
                 "sig", "shape")

    def __init__(self, op: str, callsite, comm_id: int, ranks: RankSet,
                 instances: int = 1,
                 peer: Optional[ParamField] = None,
                 size: Optional[ParamField] = None,
                 tag: Optional[ParamField] = None,
                 root: Optional[ParamField] = None,
                 wait_offsets: Optional[Tuple[int, ...]] = None,
                 time_first: Optional[TimeHistogram] = None,
                 time_rest: Optional[TimeHistogram] = None):
        self.op = op
        self.callsite = callsite
        self.comm_id = comm_id
        self.ranks = ranks
        self.instances = instances
        self.peer = peer
        self.size = size
        self.tag = tag
        self.root = root
        self.wait_offsets = wait_offsets
        self.time_first = (time_first if time_first is not None
                           else TimeHistogram())
        self.time_rest = (time_rest if time_rest is not None
                          else TimeHistogram())
        self.sig = ("event", op, callsite, comm_id, wait_offsets)
        self.shape = (self.sig, instances, peer is None, size is None,
                      tag is None, root is None)
        self.fp = hash(("event", op, callsite, comm_id, wait_offsets,
                        ranks)) % FP_MOD

    @property
    def time(self) -> TimeHistogram:
        """Aggregate of first-instance and subsequent-instance deltas."""
        merged = self.time_first.copy()
        merged.merge(self.time_rest)
        return merged

    def sample_count(self) -> int:
        """Total recorded delta samples (== concrete instances covered)."""
        return self.time_first.count + self.time_rest.count

    def first_period(self) -> Optional[int]:
        """Per-rank instance stride at which first-iteration samples
        occur: instance k is a loop-entry first iff k % period == 0.
        None when there are no first samples or the counts are uneven."""
        nr = max(len(self.ranks), 1)
        firsts = self.time_first.count // nr
        total = self.sample_count() // nr
        if firsts <= 0 or total <= 0 or total % firsts:
            return None
        return total // firsts

    def signature(self) -> tuple:
        """Structural identity used to decide whether two nodes *could* be
        the same call site (params may still differ and be merged).
        Cached at construction — every identity field is immutable."""
        return self.sig

    def iter_events(self) -> Iterator["EventNode"]:
        yield self

    def event_instances(self, rank: int) -> int:
        return self.instances if rank in self.ranks else 0

    def copy(self) -> "EventNode":
        """A deep copy: its parameter sequences and histograms are its
        own, so merging into the copy in place leaves this node as it is."""
        peer, size, tag, root = (
            None if f is None else f.copy()
            for f in (self.peer, self.size, self.tag, self.root))
        return EventNode(self.op, self.callsite, self.comm_id, self.ranks,
                         self.instances, peer, size, tag, root,
                         self.wait_offsets, self.time_first.copy(),
                         self.time_rest.copy())

    def __repr__(self) -> str:
        return (f"EventNode({self.op}, ranks={self.ranks.serialize()}, "
                f"x{self.instances})")


def loop_fp(count: int, ranks: RankSet, width: int, body_fp: int) -> int:
    """Fingerprint of a loop of ``count`` iterations over a ``width``-node
    body whose rolling fingerprint is ``body_fp``."""
    return hash(("loop", count, ranks, width, body_fp)) % FP_MOD


class LoopNode(Node):
    """A Power-RSD: ``count`` repetitions of ``body``.

    ``body_fp`` is the rolling fingerprint of the body sequence in the
    same field the :class:`~repro.scalatrace.compress.CompressionQueue`
    uses for its tail windows, so "does this loop's body equal that
    w-node tail?" is a single integer comparison.
    """

    __slots__ = ("count", "body", "body_fp")

    def __init__(self, count: int, body: List[Node], ranks: RankSet):
        if count < 1:
            raise TraceError("loop count must be >= 1")
        self.count = count
        self.body = list(body)
        self.ranks = ranks
        h = 0
        for node in self.body:
            h = (h * FP_BASE + node.fp) % FP_MOD
        self.body_fp = h
        self.fp = loop_fp(count, ranks, len(self.body), h)

    def bump_count(self, delta: int) -> None:
        """Increase the iteration count in place, refreshing the cached
        whole-node fingerprint (``body_fp`` is count-independent and
        stays valid).

        Only the compression queue may call this, and only on loops it
        owns — in-place absorption is what keeps streaming compression
        O(window) per event instead of rebuilding the loop's node tree
        for every absorbed iteration.
        """
        self.count += delta
        self.fp = loop_fp(self.count, self.ranks, len(self.body),
                          self.body_fp)

    def signature(self) -> tuple:
        return ("loop", self.count, tuple(n.signature() for n in self.body))

    def copy(self) -> "LoopNode":
        """A deep copy (see :meth:`EventNode.copy`)."""
        return LoopNode(self.count, [n.copy() for n in self.body],
                        self.ranks)

    def iter_events(self) -> Iterator[EventNode]:
        for node in self.body:
            yield from node.iter_events()

    def event_instances(self, rank: int) -> int:
        if rank not in self.ranks:
            return 0
        return sum(n.event_instances(rank) for n in self.body) * self.count

    def __repr__(self) -> str:
        return f"LoopNode(x{self.count}, |body|={len(self.body)})"


def count_nodes(nodes: List[Node]) -> int:
    """Total number of nodes in a forest, loop bodies included.

    This is the unit the streaming pipeline's memory accounting is
    expressed in (``scalatrace.nodes_live_peak``): live *nodes*, not raw
    events, are what a bounded-memory tracer is allowed to hold."""
    total = 0
    for n in nodes:
        total += 1
        if isinstance(n, LoopNode):
            total += count_nodes(n.body)
    return total


class Trace:
    """A complete (possibly multi-rank) compressed trace."""

    def __init__(self, world_size: int, nodes: Optional[List[Node]] = None,
                 comm_table: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.world_size = world_size
        self.nodes: List[Node] = nodes if nodes is not None else []
        #: comm_id -> ordered world ranks
        self.comm_table: Dict[int, Tuple[int, ...]] = comm_table or {
            0: tuple(range(world_size))}
        #: comm_id -> (its comm_table entry, world rank -> comm rank)
        self._comm_index: Dict[int, Tuple[tuple, Dict[int, int]]] = {}

    def comm_ranks(self, comm_id: int) -> Tuple[int, ...]:
        try:
            return self.comm_table[comm_id]
        except KeyError:
            raise TraceError(f"unknown communicator {comm_id}") from None

    def node_count(self) -> int:
        """Total node count (a proxy for trace size; the compression
        benchmarks assert this stays near-constant as ranks/iterations
        grow)."""
        return count_nodes(self.nodes)

    def event_count(self, rank: Optional[int] = None) -> int:
        """Number of concrete MPI events (decompressed) for one rank or
        summed over all ranks."""
        ranks = range(self.world_size) if rank is None else [rank]
        total = 0
        for r in ranks:
            total += self._count_rank(self.nodes, r)
        return total

    def _count_rank(self, nodes, rank) -> int:
        total = 0
        for n in nodes:
            if rank not in n.ranks:
                continue
            if isinstance(n, EventNode):
                total += n.instances
            else:
                total += self._count_rank(n.body, rank) * n.count
        return total

    def expr_rank(self, comm_id: int, world_rank: int) -> int:
        """The rank value a ParamExpr should be evaluated with: expressions
        are inferred in *communicator* rank space (peers are comm-relative),
        so world ranks must be translated first."""
        ranks = self.comm_ranks(comm_id)
        found = self._comm_index.get(comm_id)
        if found is None or found[0] is not ranks:
            # reversed, so a rank listed twice keeps its first index
            found = self._comm_index[comm_id] = (ranks, {
                r: i for i, r in reversed(list(enumerate(ranks)))})
        try:
            return found[1][world_rank]
        except KeyError:
            raise TraceError(
                f"rank {world_rank} not in communicator {comm_id}") from None

    def iter_rank(self, rank: int, nodes: Optional[List[Node]] = None
                  ) -> Iterator["ConcreteEvent"]:
        """Decompress this rank's event stream (in program order).

        ``nodes`` is a :func:`select_events` selection of this trace's
        nodes to expand instead of all of them; its events carry the
        instance numbers they have in the full stream."""
        yield from _expand(self, self.nodes if nodes is None else nodes,
                           rank, {})

    def iter_timed(self, rank: int
                   ) -> Iterator[Tuple["ConcreteEvent", float]]:
        """This rank's events, each with the computation delta preceding
        it.  Path-aware timing (§3.1): loop-entry-first instances draw
        from the node's first-iteration histogram, the rest from its
        subsequent-iteration one.  Draws are deterministic round-robin
        replays, so each node's total recorded time is preserved."""
        draws: Dict[int, Iterator[float]] = {}
        for ev in self.iter_rank(rank):
            it = draws.get(id(ev.node))
            if it is None:
                it = draws[id(ev.node)] = instance_deltas(ev.node)
            yield ev, next(it)

    def iter_events(self) -> Iterator[EventNode]:
        """Every event node (RSD) of the trace, loop bodies included."""
        for node in self.nodes:
            yield from node.iter_events()

    def __repr__(self) -> str:
        return (f"Trace(world={self.world_size}, nodes={self.node_count()}, "
                f"events={self.event_count()})")


def instance_deltas(node: EventNode) -> Iterator[float]:
    """The computation delta before instance 0, 1, 2, ... of ``node`` on
    any one rank it covers (the draws :meth:`Trace.iter_timed` makes):
    loop-entry-first instances replay the first-iteration histogram, the
    rest the subsequent-iteration one."""
    period = node.first_period()
    firsts = rests = None
    k = 0
    while True:
        if node.time_rest.count and (period is None or k % period != 0):
            if rests is None:
                rests = node.time_rest.replay_values()
            yield next(rests)
        else:
            if firsts is None:
                firsts = node.time_first.replay_values()
            yield next(firsts)
        k += 1


class ConcreteEvent:
    """A fully decompressed per-rank event, as used by replay, statistics,
    and the generator's traversal algorithms."""

    __slots__ = ("rank", "op", "comm_id", "peer", "size", "tag", "root",
                 "wait_offsets", "node", "instance")

    def __init__(self, rank, op, comm_id, peer, size, tag, root,
                 wait_offsets, node, instance):
        self.rank = rank
        self.op = op
        self.comm_id = comm_id
        self.peer = peer
        self.size = size
        self.tag = tag
        self.root = root
        self.wait_offsets = wait_offsets
        self.node = node
        self.instance = instance

    def key(self) -> tuple:
        """Semantic identity (ignores which node produced the event)."""
        return (self.rank, self.op, self.comm_id, self.peer, self.size,
                self.tag, self.root, self.wait_offsets)

    def __repr__(self) -> str:
        return (f"ConcreteEvent(rank={self.rank}, {self.op}, "
                f"peer={self.peer}, size={self.size})")


def select_events(nodes: List[Node], ops) -> List[Node]:
    """``nodes`` keeping only the events whose op is in ``ops``: a loop
    holding none is dropped, one holding some keeps its count and ranks
    over the events it holds.  Instances are counted per event node, so
    expanding the selection (``Trace.iter_rank(rank, selection)``)
    numbers each kept event as expanding the whole trace does."""
    out: List[Node] = []
    for node in nodes:
        if isinstance(node, EventNode):
            if node.op in ops:
                out.append(node)
            continue
        body = select_events(node.body, ops)
        if body:
            out.append(LoopNode(node.count, body, node.ranks))
    return out


def _at(values: Optional[tuple], instance: int):
    """One instance's value from a :meth:`ParamField.rank_values` pair
    (None for an absent field)."""
    if values is None:
        return None
    value, per_instance = values
    return value if per_instance is None else per_instance[instance]


def _expand(trace: Trace, nodes: List[Node], rank: int,
            seen: Dict[int, list]) -> Iterator[ConcreteEvent]:
    """``rank``'s events under ``nodes``; ``seen`` maps id(event node)
    to [its instances expanded so far, then its peer, size, tag and
    root values on this rank], read once per node."""
    for node in nodes:
        if rank not in node.ranks:
            continue
        if isinstance(node, EventNode):
            state = seen.get(id(node))
            if state is None:
                erank = trace.expr_rank(node.comm_id, rank)
                state = seen[id(node)] = [0] + [
                    None if field is None else field.rank_values(erank)
                    for field in (node.peer, node.size, node.tag,
                                  node.root)]
            first = state[0]
            state[0] = first + node.instances
            _, peer, size, tag, root = state
            for k in range(first, first + node.instances):
                yield ConcreteEvent(
                    rank, node.op, node.comm_id, _at(peer, k),
                    _at(size, k), _at(tag, k), _at(root, k),
                    node.wait_offsets, node, k)
        else:
            for _ in range(node.count):
                yield from _expand(trace, node.body, rank, seen)
