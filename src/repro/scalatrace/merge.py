"""Inter-rank (radix) trace merging.

At MPI_Finalize time ScalaTrace combines the per-rank compressed traces
into one global trace whose RSDs carry rank *sets* (§3.1).  We reproduce
that with a binary merge tree: traces are merged pairwise, aligning the
two node sequences with an LCS over structural signatures.

Nodes that align merge by unioning their rank sets and re-expressing
parameter differences as closed-form :class:`~repro.util.expr.ParamExpr`
(e.g. a ring's ``dest = rank+1 mod N``) when possible, falling back to
per-rank tables — never discarding information.  Nodes that do not align
are interleaved in an order preserving both inputs' program orders, each
keeping its own rank set (this is how e.g. "rank 0 sends, ranks 1..N-1
receive" coexists inside one merged loop body).

Three throughput mechanisms sit on top of the pairwise LCS merge:

* **weight-only alignment** — the DP needs each cell's match weight,
  never the merged node, so it computes weights without building
  anything (memoized per pair merge) and builds merged nodes only for
  the pairs on the traceback (see :class:`_PairMerge`);
* an **identical-sequence fast path** — in the common SPMD case every
  rank records the same call structure, so the pairwise merge is gated
  by a rolling Rabin hash over rank-agnostic node fingerprints
  (:attr:`~repro.scalatrace.rsd.Node.mfp`) and, once structural identity
  is confirmed exactly, aligned position-by-position without running
  the O(n·m) LCS DP.  The diagonal is only taken when it is *provably*
  what the DP would pick (see :func:`_diagonal_safe`), so output bytes
  never depend on which path ran;
* a **streaming accumulator** (:class:`TraceMergeAccumulator`) — a
  binomial binary counter over per-rank node lists that keeps at most
  ``log2(P)+1`` partial merges live while producing the exact same merge
  association tree as the level-order pairwise reduction it replaced.
  Ranks can be fed (in rank order) as they finish and their queues
  dropped immediately, which is what bounds the tracer's peak memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.scalatrace.rsd import EventNode, LoopNode, Node, Trace
from repro.util.rankset import RankSet

_PARAM_FIELDS = ("peer", "size", "tag", "root")

#: Process-wide toggle for the identical-sequence fast path; flipped by
#: :func:`set_merge_fastpath` (benchmarks and the byte-identity
#: regression tests use it to time/compare the pure-LCS baseline).
_FASTPATH = True


def set_merge_fastpath(enabled: bool) -> bool:
    """Enable/disable the identical-sequence merge fast path.

    Returns the previous setting so callers can restore it in a
    ``try/finally``.  The fast path never changes merge output — this
    exists so baselines and regression tests can exercise the LCS path
    on inputs the fast path would otherwise shortcut."""
    global _FASTPATH
    prev = _FASTPATH
    _FASTPATH = bool(enabled)
    return prev


#: (communicator size, world rank -> communicator rank); the map is None
#: when the two coincide, so rank sets need no remapping.
_CommMap = Tuple[Optional[int], Optional[Dict[int, int]]]


def _comm_map(comm_table: Dict[int, Tuple[int, ...]],
              comm_id: int) -> _CommMap:
    """Rank space in which parameters of ``comm_id`` events merge (peers
    are communicator-relative).  Ranks outside the communicator, and all
    ranks of a communicator missing from the table, map to themselves."""
    comm_ranks = comm_table.get(comm_id)
    if not comm_ranks:
        return None, None
    if all(w == i for i, w in enumerate(comm_ranks)):
        return len(comm_ranks), None
    return len(comm_ranks), {w: i for i, w in enumerate(comm_ranks)}


def _merge_events(a: EventNode, b: EventNode,
                  comm_map: _CommMap) -> EventNode:
    """Merged RSD covering both rank sets of two mergeable events (same
    signature, instance count and parameter presence pattern);
    ``comm_map`` is :func:`_comm_map` of their communicator."""
    comm_size, index = comm_map
    a_cranks, b_cranks = a.ranks, b.ranks
    if index is not None:
        a_cranks = RankSet(index.get(r, r) for r in a.ranks)
        b_cranks = RankSet(index.get(r, r) for r in b.ranks)
    merged = {}
    for name in _PARAM_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        # merge in communicator-rank space (peers are comm-relative);
        # always succeeds (irregular variation falls back to the
        # lossless per-rank map)
        merged[name] = None if fa is None else fa.merge_ranks(
            a_cranks, fb, b_cranks, comm_size)
    time_first = a.time_first.copy()
    time_first.merge(b.time_first)
    time_rest = a.time_rest.copy()
    time_rest.merge(b.time_rest)
    return EventNode(a.op, a.callsite, a.comm_id, a.ranks | b.ranks,
                     a.instances, merged["peer"], merged["size"],
                     merged["tag"], merged["root"], a.wait_offsets,
                     time_first, time_rest)


def _match_weight(node: Node) -> int:
    """Alignment priority of a successful match.

    Collectives dominate: when matching a point-to-point pair conflicts in
    order with matching a collective pair, the collective must win — this
    is how the merge realizes Algorithm 1's guarantee that one logical
    collective becomes one RSD.  Loops inherit the weight of their
    contents (they may carry collectives inside)."""
    if isinstance(node, EventNode):
        from repro.mpi.hooks import COLLECTIVE_OPS
        return 10_000 if node.op in COLLECTIVE_OPS else 1
    return sum(_match_weight(n) for n in node.body)


def _seq_mfp(nodes: List[Node]) -> int:
    """Rolling Rabin hash of a node sequence's rank-agnostic merge
    fingerprints (same field as the compressor's window hashes)."""
    from repro.scalatrace.rsd import FP_BASE, FP_MOD
    h = 0
    for n in nodes:
        h = (h * FP_BASE + n.mfp) % FP_MOD
    return h


def _identical_structure(a: Node, b: Node) -> bool:
    """Exact structural identity as the merge fast path requires it.

    For events this is precisely the condition under which two events
    merge (:func:`_merge_events` never fails): same signature, same
    instance count, same parameter presence pattern.  For loops: same
    count, same body length, and pairwise identical bodies.
    Fingerprints got us here cheaply; this walk is what makes the fast
    path collision-proof."""
    if isinstance(a, EventNode):
        return (isinstance(b, EventNode)
                and a.sig == b.sig
                and a.instances == b.instances
                and (a.peer is None) == (b.peer is None)
                and (a.size is None) == (b.size is None)
                and (a.tag is None) == (b.tag is None)
                and (a.root is None) == (b.root is None))
    if not isinstance(b, LoopNode):
        return False
    assert isinstance(a, LoopNode)
    return (a.count == b.count
            and len(a.body) == len(b.body)
            and all(_identical_structure(x, y)
                    for x, y in zip(a.body, b.body)))


def _event_keys(node: Node) -> set:
    """(signature, instances) of every event in a node's subtree."""
    keys = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, EventNode):
            keys.add((n.sig, n.instances))
        else:
            stack.extend(n.body)
    return keys


def _diagonal_safe(nodes: List[Node]) -> bool:
    """True when the all-diagonal alignment of ``nodes`` against a
    structurally identical copy is provably the alignment the weighted
    LCS DP picks — the condition for the fast path to be byte-identical.

    Event↔event cross matches are weight-conserving (the merged node
    weighs exactly what each side weighs), so any alignment built from
    them totals at most the diagonal's weight, and the traceback's
    match-first tie-break then yields the diagonal.  The only way an
    off-diagonal alignment can *out-weigh* the diagonal is a loop↔loop
    cross merge, whose supersequence body can weigh more than either
    side.  Such a merge needs equal counts and at least one shared body
    node — so the fast path is safe whenever no two distinct loops in
    the list have equal counts and overlapping event sets.  Compressed
    SPMD traces almost never trip this (distinct phases use distinct
    call sites); when they do we conservatively fall back to the DP."""
    loops = [n for n in nodes if isinstance(n, LoopNode)]
    if len(loops) < 2:
        return True
    by_count: Dict[int, List[LoopNode]] = {}
    for n in loops:
        by_count.setdefault(n.count, []).append(n)
    for group in by_count.values():
        if len(group) < 2:
            continue
        keysets = [_event_keys(n) for n in group]
        for i in range(len(keysets)):
            for j in range(i + 1, len(keysets)):
                if keysets[i] & keysets[j]:
                    return False
    return True


#: One alignment of two node lists: matched (i, j) index pairs, and
#: whether the diagonal fast path produced them.
_Alignment = Tuple[List[Tuple[int, int]], bool]


class _PairMerge:
    """One top-level pair merge: weight-only alignment, then building.

    The weighted LCS needs only each cell's *weight*, never the merged
    node, so alignment builds nothing: two events are mergeable iff
    their signature, instance count and parameter presence pattern agree
    (then :func:`_merge_events` always succeeds and the merge weighs what
    either side weighs); two loops iff their counts agree and their
    bodies share at least one aligned pair (then the merge is the body
    supersequence, whose weight follows from the body alignment).
    Merged nodes are built afterwards, for the traceback's pairs only.

    Every memo is keyed by node (or node-list) identity.  That is sound
    for the lifetime of one merge: inputs are never mutated, and the
    caller's lists keep every keyed object alive, so no id is reused.
    """

    def __init__(self, comm_table: Dict[int, Tuple[int, ...]]):
        self.comm_table = comm_table
        #: id(node) -> _match_weight(node)
        self._weights: Dict[int, int] = {}
        #: id(list) -> merge class of each node: equal classes mean the
        #: nodes *could* merge (events: exactly when they merge; loops:
        #: equal counts)
        self._class_lists: Dict[int, List[int]] = {}
        self._class_ids: Dict[tuple, int] = {}
        #: (id(loop), id(loop)) -> merged-loop weight, None if unmergeable
        self._loop_weights: Dict[Tuple[int, int], Optional[int]] = {}
        #: (id(list), id(list)) -> alignment
        self._alignments: Dict[Tuple[int, int], _Alignment] = {}
        #: comm_id -> _comm_map(comm_table, comm_id)
        self._comm_maps: Dict[int, _CommMap] = {}

    def _weight(self, node: Node) -> int:
        w = self._weights.get(id(node))
        if w is None:
            if isinstance(node, EventNode):
                w = _match_weight(node)
            else:
                w = sum(self._weight(n) for n in node.body)
            self._weights[id(node)] = w
        return w

    def _classes(self, nodes: List[Node]) -> List[int]:
        classes = self._class_lists.get(id(nodes))
        if classes is None:
            classes = []
            for node in nodes:
                if isinstance(node, EventNode):
                    key: tuple = (node.sig, node.instances,
                                  node.peer is None, node.size is None,
                                  node.tag is None, node.root is None)
                else:
                    key = ("loop", node.count)
                classes.append(self._class_ids.setdefault(
                    key, len(self._class_ids)))
            self._class_lists[id(nodes)] = classes
        return classes

    def pair_weight(self, a: Node, b: Node) -> Optional[int]:
        """``_match_weight`` of the node merging ``a`` and ``b`` would
        build, or None if they do not merge — computed without building."""
        if isinstance(a, EventNode):
            return self._weight(a) if _identical_structure(a, b) else None
        if isinstance(b, LoopNode) and a.count == b.count:
            return self._loop_weight(a, b)
        return None

    def _loop_weight(self, a: LoopNode, b: LoopNode) -> Optional[int]:
        key = (id(a), id(b))
        if key in self._loop_weights:
            return self._loop_weights[key]
        w = None
        # Require at least one genuinely shared body node: otherwise any
        # two equal-count loops would merge, and those spurious matches
        # displace collective alignment in the outer LCS.  Bodies with no
        # merge class in common cannot share one, so skip their DP.
        if not set(self._classes(a.body)).isdisjoint(
                self._classes(b.body)):
            pairs, _ = self._align(a.body, b.body)
            if pairs:
                # the merged body is the supersequence: every node of
                # both bodies, each matched pair replaced by its merge
                w = self._weight(a) + self._weight(b) - sum(
                    self._weight(a.body[i]) + self._weight(b.body[j])
                    - self.pair_weight(a.body[i], b.body[j])
                    for i, j in pairs)
        self._loop_weights[key] = w
        return w

    def _align(self, xs: List[Node], ys: List[Node]) -> _Alignment:
        key = (id(xs), id(ys))
        found = self._alignments.get(key)
        if found is None:
            if _FASTPATH and xs and len(xs) == len(ys) \
                    and _seq_mfp(xs) == _seq_mfp(ys) \
                    and all(_identical_structure(x, y)
                            for x, y in zip(xs, ys)) \
                    and _diagonal_safe(xs):
                found = ([(i, i) for i in range(len(xs))], True)
            else:
                found = self._lcs(xs, ys)
            self._alignments[key] = found
        return found

    def _lcs(self, xs: List[Node], ys: List[Node]) -> _Alignment:
        """Maximum-weight common subsequence of mergeable nodes, with the
        match-first traceback (ties prefer the match, then moving down
        ``xs``)."""
        n, m = len(xs), len(ys)
        cx, cy = self._classes(xs), self._classes(ys)
        weight: Dict[Tuple[int, int], int] = {}
        dp = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            x, c = xs[i], cx[i]
            row, below = dp[i], dp[i + 1]
            for j in range(m - 1, -1, -1):
                best = max(below[j], row[j + 1])
                if cy[j] == c:
                    w = self.pair_weight(x, ys[j])
                    if w is not None:
                        weight[i, j] = w
                        best = max(best, below[j + 1] + w)
                row[j] = best
        pairs = []
        i = j = 0
        while i < n and j < m:
            w = weight.get((i, j))
            if w is not None and dp[i][j] == dp[i + 1][j + 1] + w:
                pairs.append((i, j))
                i += 1
                j += 1
            elif dp[i + 1][j] >= dp[i][j + 1]:
                i += 1
            else:
                j += 1
        return pairs, False

    def build(self, xs: List[Node], ys: List[Node]) -> List[Node]:
        """The merged supersequence of ``xs`` and ``ys``: unmatched nodes
        keep their own rank sets, matched pairs merge (loops recurse on
        their memoized body alignment, so no body DP runs twice)."""
        pairs, fast = self._align(xs, ys)
        if fast:
            obs.count("scalatrace.merge_fastpath_hits", 1)
        else:
            obs.count("scalatrace.lcs_cells", len(xs) * len(ys))
            obs.count("scalatrace.lcs_alignments", len(pairs))
        out: List[Node] = []
        xi = yi = 0
        for i, j in pairs:
            out.extend(xs[xi:i])
            out.extend(ys[yi:j])
            a, b = xs[i], ys[j]
            if isinstance(a, EventNode):
                comm = self._comm_maps.get(a.comm_id)
                if comm is None:
                    comm = _comm_map(self.comm_table, a.comm_id)
                    self._comm_maps[a.comm_id] = comm
                out.append(_merge_events(a, b, comm))
            else:
                out.append(LoopNode(a.count, self.build(a.body, b.body),
                                    a.ranks | b.ranks))
            xi, yi = i + 1, j + 1
        out.extend(xs[xi:])
        out.extend(ys[yi:])
        return out


def merge_node_lists(xs: List[Node], ys: List[Node],
                     comm_table) -> List[Node]:
    """Order-preserving merge (shortest common supersequence around the
    maximum-weight LCS of mergeable nodes).

    Identical-sequence fast path: when both sides have the same length
    and the same rolling merge fingerprint, an exact structural walk
    confirms pairwise identity and the alignment is the diagonal,
    skipping the O(n·m) DP.  Gated further by :func:`_diagonal_safe` so
    the diagonal is exactly what the DP's traceback would produce; any
    doubt falls through to the DP."""
    return _PairMerge(comm_table).build(xs, ys)


class TraceMergeAccumulator:
    """Streaming binary-counter merge of per-rank node lists.

    Feed node lists one rank at a time, **in rank order**, and read the
    merged result off :meth:`result`.  Internally this is a binomial
    binary counter: singleton lists merge into span-2 partials, equal
    span partials merge on arrival, so at most ``log2(P)+1`` partial
    merges are ever live — the seam that lets the tracer drop each
    rank's compression queue the moment that rank finalizes, instead of
    holding all P per-rank traces until run end.

    Byte-identity contract: finalizing the counter by folding the
    remaining partials smallest-first produces *exactly* the merge
    association tree of the level-order pairwise reduction this class
    replaced (the tie-off of an incomplete binary tree is the same
    either way; ``tests/scalatrace/test_merge.py`` pins this against a
    reference reduction on every app preset), so results are
    byte-identical to the pre-streaming merge for any rank count.
    """

    def __init__(self, world_size: Optional[int] = None,
                 comm_table: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.world_size = world_size
        #: comm_id -> ordered world ranks; grows as rank tables arrive.
        #: Any comm referenced by a fed node list must already be
        #: present (callers feed each rank's table alongside its nodes).
        self.comm_table: Dict[int, Tuple[int, ...]] = dict(comm_table or {})
        #: (span, nodes) partial merges, largest span first.
        self._partials: List[Tuple[int, List[Node]]] = []
        #: How many per-rank lists have been fed.
        self.fed = 0

    def add(self, trace: Trace) -> None:
        """Feed one per-rank trace (nodes + comm table)."""
        if self.world_size is None:
            self.world_size = trace.world_size
        self.comm_table.update(trace.comm_table)
        self.add_nodes(trace.nodes)

    def add_nodes(self, nodes: List[Node],
                  comm_table: Optional[Dict[int, Tuple[int, ...]]] = None
                  ) -> None:
        """Feed one rank's node list (the Trace-free seam the streaming
        tracer uses); merges equal-span partials immediately."""
        if comm_table:
            self.comm_table.update(comm_table)
        span = 1
        while self._partials and self._partials[-1][0] == span:
            _, prev = self._partials.pop()
            nodes = merge_node_lists(prev, nodes, self.comm_table)
            obs.count("scalatrace.pair_merges", 1)
            span *= 2
        self._partials.append((span, nodes))
        self.fed += 1

    def live_node_count(self) -> int:
        """Nodes currently held across all partial merges (the term the
        tracer samples into ``scalatrace.nodes_live_peak``)."""
        from repro.scalatrace.rsd import count_nodes
        return sum(count_nodes(nodes) for _, nodes in self._partials)

    def result(self) -> Trace:
        """Finalize: fold remaining partials smallest-first (earlier
        ranks stay the left operand) and return the merged trace."""
        if not self._partials:
            raise ValueError("no traces to merge")
        obs.count("scalatrace.merge_depth", (self.fed - 1).bit_length())
        span, nodes = self._partials[-1]
        for pspan, prev in reversed(self._partials[:-1]):
            nodes = merge_node_lists(prev, nodes, self.comm_table)
            obs.count("scalatrace.pair_merges", 1)
            span += pspan
        self._partials = [(span, nodes)]
        if self.world_size is None:
            raise ValueError("accumulator was never told a world size")
        return Trace(self.world_size, nodes, self.comm_table)


def merge_traces(traces: List[Trace]) -> Trace:
    """Binary (radix-tree) merge of per-rank traces into a global trace.

    Implemented on :class:`TraceMergeAccumulator`; output is
    byte-identical to the level-order pairwise reduction."""
    if not traces:
        raise ValueError("no traces to merge")
    world_size = traces[0].world_size
    comm_table: Dict[int, Tuple[int, ...]] = {}
    for t in traces:
        comm_table.update(t.comm_table)
    with obs.span("scalatrace.merge", traces=len(traces)):
        if len(traces) == 1:
            obs.count("scalatrace.merge_depth", 0)
            result = traces[0]
        else:
            acc = TraceMergeAccumulator(world_size, comm_table)
            for t in traces:
                acc.add_nodes(t.nodes)
            result = acc.result()
    result.comm_table = comm_table
    return result
