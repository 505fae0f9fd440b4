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
        if sum(x is not None for x in (seq, expr, rank_map)) != 1:
            raise TraceError(
                "ParamField needs exactly one of seq/expr/rank_map")
        self.seq = seq
        self.expr = expr
        self.rank_map = rank_map

    @classmethod
    def of(cls, value) -> "ParamField":
        return cls(seq=ValueSeq.constant(value, 1))

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

    # -- composition ---------------------------------------------------------
    @staticmethod
    def _expanded(seq: ValueSeq, count: int) -> ValueSeq:
        return (ValueSeq.constant(seq.value, count) if seq.is_constant()
                else seq)

    def concat(self, other: "ParamField", my_count: int,
               other_count: int) -> Optional["ParamField"]:
        """Field covering my instances followed by ``other``'s (loop
        folding; counts are per-rank instance counts).  Returns None if
        the fields cannot combine (e.g. differing expressions)."""
        if self.seq is not None and other.seq is not None:
            a = self._expanded(self.seq, my_count)
            b = self._expanded(other.seq, other_count)
            return ParamField(seq=a.concat(b))
        if self.expr is not None and other.expr is not None \
                and self.expr == other.expr:
            return ParamField(expr=self.expr)
        if self.rank_map is not None and other.rank_map is not None \
                and set(self.rank_map) == set(other.rank_map):
            merged = {}
            for r, s in self.rank_map.items():
                merged[r] = self._expanded(s, my_count).concat(
                    self._expanded(other.rank_map[r], other_count))
            return ParamField(rank_map=merged)
        return None

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
        out = []
        for r in ranks:
            s = field._seq_for(r)
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

    ``fp`` is a structural *fingerprint*: a stable hash of exactly the
    fields :func:`~repro.scalatrace.compress.nodes_match` inspects (call
    site identity, rank set, loop shape — never per-iteration parameters
    or timing).  Two nodes that match always share a fingerprint, so
    ``fp`` inequality disproves a match in O(1); equality is confirmed
    structurally before any fold, keeping compression output independent
    of hash collisions.  Nodes are never structurally mutated after
    construction, so the fingerprint is computed once in ``__init__``.

    ``mfp`` is the *merge* fingerprint: like ``fp`` but rank-agnostic
    (and count/instance-agnostic), so the same call structure recorded on
    two different ranks hashes identically.  The inter-rank merge uses a
    rolling hash over ``mfp`` to gate its identical-sequence fast path;
    as with ``fp``, equality is always confirmed structurally before it
    changes behaviour, so collisions cannot alter merge output.
    """

    __slots__ = ("ranks", "fp", "mfp")

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
        # Rank/instance-agnostic: two ranks recording the same call site
        # get the same merge fingerprint (instances are compared exactly
        # by the merge's structural-identity walk, not hashed here, so
        # in-place instance bumps in the compressor can't stale it).
        self.mfp = hash(self.sig) % FP_MOD

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

    def param_value(self, field_name: str, rank: int, instance: int):
        field: Optional[ParamField] = getattr(self, field_name)
        if field is None:
            return None
        return field.value_at(rank, instance)

    def copy(self) -> "EventNode":
        return EventNode(self.op, self.callsite, self.comm_id, self.ranks,
                         self.instances, self.peer, self.size, self.tag,
                         self.root, self.wait_offsets,
                         self.time_first.copy(), self.time_rest.copy())

    def __repr__(self) -> str:
        return (f"EventNode({self.op}, ranks={self.ranks.serialize()}, "
                f"x{self.instances})")


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
        hm = 0
        for node in self.body:
            h = (h * FP_BASE + node.fp) % FP_MOD
            hm = (hm * FP_BASE + node.mfp) % FP_MOD
        self.body_fp = h
        self.fp = hash(("loop", count, ranks, len(self.body),
                        h)) % FP_MOD
        # Count excluded on purpose: ``bump_count`` (the hot streaming
        # absorb path) must stay a single-hash refresh of ``fp``; the
        # merge fast path compares counts exactly in its identity walk.
        self.mfp = hash(("loop", len(self.body), hm)) % FP_MOD

    def bump_count(self, delta: int) -> None:
        """Increase the iteration count in place, refreshing the cached
        whole-node fingerprint (``body_fp`` is count-independent and
        stays valid).

        Only the compression queue may call this, and only on loops it
        built itself — in-place absorption is what keeps streaming
        compression O(window) per event instead of rebuilding the loop's
        node tree for every absorbed iteration.
        """
        self.count += delta
        self.fp = hash(("loop", self.count, self.ranks, len(self.body),
                        self.body_fp)) % FP_MOD

    def signature(self) -> tuple:
        return ("loop", self.count, tuple(n.signature() for n in self.body))

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
        try:
            return ranks.index(world_rank)
        except ValueError:
            raise TraceError(
                f"rank {world_rank} not in communicator {comm_id}") from None

    def iter_rank(self, rank: int) -> Iterator["ConcreteEvent"]:
        """Decompress this rank's event stream (in program order)."""
        counters: Dict[int, int] = {}
        yield from _expand(self, self.nodes, rank, counters)

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


def _expand(trace: Trace, nodes: List[Node], rank: int,
            counters: Dict[int, int]) -> Iterator[ConcreteEvent]:
    for node in nodes:
        if rank not in node.ranks:
            continue
        if isinstance(node, EventNode):
            erank = trace.expr_rank(node.comm_id, rank)
            for _ in range(node.instances):
                k = counters.get(id(node), 0)
                counters[id(node)] = k + 1
                yield ConcreteEvent(
                    rank, node.op, node.comm_id,
                    node.param_value("peer", erank, k),
                    node.param_value("size", erank, k),
                    node.param_value("tag", erank, k),
                    node.param_value("root", erank, k),
                    node.wait_offsets, node, k)
        else:
            for _ in range(node.count):
                yield from _expand(trace, node.body, rank, counters)
