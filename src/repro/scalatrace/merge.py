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

Four throughput mechanisms sit on top of the pairwise LCS merge:

* **weight-only alignment** — the DP needs each cell's match weight,
  never the merged node, so it computes weights without building
  anything and builds merged nodes only for the pairs on the traceback
  (see :class:`_ShapeMemo`);
* an **identical-sequence fast path** — in the common SPMD case every
  rank records the same call structure, so two lists of one shape are
  aligned position-by-position without running the O(n·m) LCS DP.  The
  diagonal is only taken when it is *provably* what the DP would pick
  (see :meth:`_ShapeMemo.diagonal_safe`), so output bytes never depend
  on which path ran;
* a **streaming accumulator** (:class:`TraceMergeAccumulator`) — a
  binomial binary counter over per-rank node lists that keeps at most
  ``log2(P)+1`` partial merges live while producing the exact same merge
  association tree as the level-order pairwise reduction it replaced.
  Ranks can be fed (in rank order) as they finish and their queues
  dropped immediately, which is what bounds the tracer's peak memory;
* **shared alignments** — an alignment reads node shape only, so every
  memo is keyed on interned shape ids, at every nesting level: the
  accumulator computes each distinct alignment once (a top-level one, a
  loop-body one, a loop pair's weight) and builds every merge of lists
  of those shapes along it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.scalatrace.rsd import EventNode, LoopNode, Node, Trace
from repro.util.rankset import RankSet

_PARAM_FIELDS = ("peer", "size", "tag", "root")

#: Process-wide toggle for the identical-sequence fast path and shared
#: alignments; flipped by :func:`set_merge_fastpath` (benchmarks and the
#: byte-identity regression tests use it to time/compare the pure-LCS
#: baseline).
_FASTPATH = True


def set_merge_fastpath(enabled: bool) -> bool:
    """Enable/disable the identical-sequence merge fast path and the
    accumulator's shared alignments.

    Returns the previous setting so callers can restore it in a
    ``try/finally``.  Neither shortcut ever changes merge output — this
    exists so baselines and regression tests can run the LCS DP on every
    merge the shortcuts would otherwise skip."""
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


#: The first item of a loop's shape key (an event's is its signature, a
#: tuple, so the two kinds of key never collide).
_LOOP = "loop"

#: One alignment of two node lists: matched (i, j) index pairs, and
#: whether the diagonal fast path produced them.
_Alignment = Tuple[List[Tuple[int, int]], bool]

#: A pair merge's alignment: matched ``(i, j, body plan)`` triples, the
#: body plan (the loop bodies' alignment, same form) None for events.
#: It reads node shape only (signatures, counts, parameter presence),
#: never ranks or values, so it applies to any two lists shaped like the
#: ones it was computed on.
_Plan = Tuple[Tuple[int, int, Optional[tuple]], ...]


class _ShapeMemo:
    """Every alignment one merge sequence computes, keyed on shape.

    An alignment reads only shape: each event's
    :attr:`~repro.scalatrace.rsd.EventNode.shape` and each loop's count
    and body, never ranks, values or timing.  :meth:`intern` gives a node
    list an id that stands for exactly that (equal ids, equal shapes),
    and every memo here is keyed on such ids, so an alignment computed
    for one merge serves every later merge of lists of those shapes, at
    every nesting level.  Ids are kept both ways: ``ids`` maps a key to
    its id and ``keys`` an id to its key.  A list's key is the tuple of
    its nodes' ids; an event's is its shape; a loop's is ``("loop",
    count, body id)``.  Alignments are computed from these keys alone,
    so a memo miss walks no node.

    The weighted LCS needs only each cell's *weight*, never the merged
    node, so alignment builds nothing: two events are mergeable iff
    their shapes agree (then :func:`_merge_events` always succeeds and
    the merge weighs what either side weighs); two loops iff their
    counts agree and their bodies share at least one aligned pair (then
    the merge is the body supersequence, whose weight follows from the
    body alignment).  :func:`_build` builds the merged nodes along a
    :meth:`plan` afterwards.
    """

    def __init__(self):
        #: shape key -> id, and id -> shape key
        self.ids: Dict[tuple, int] = {}
        self.keys: List[tuple] = []
        #: node id -> match weight of such a node
        self._weights: Dict[int, int] = {}
        #: list id -> merge class of each node: equal classes mean the
        #: nodes *could* merge (events: their id, so exactly when they
        #: merge; loops: minus the count)
        self._classes: Dict[int, List[int]] = {}
        #: (list id, list id) -> alignment
        self._alignments: Dict[Tuple[int, int], _Alignment] = {}
        #: (loop id, loop id) -> merged-loop weight, None if unmergeable
        self._loop_weights: Dict[Tuple[int, int], Optional[int]] = {}
        #: (list id, list id) -> (plan, merged list id, its counters)
        self._plans: Dict[Tuple[int, int],
                          Tuple[_Plan, int, Dict[str, int]]] = {}

    def forget(self) -> None:
        """Drop every alignment, so the next merge aligns afresh."""
        self._alignments.clear()
        self._loop_weights.clear()
        self._plans.clear()

    def _id(self, key: tuple) -> int:
        found = self.ids.get(key)
        if found is None:
            found = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return found

    def intern(self, nodes: List[Node]) -> int:
        """The shape id of ``nodes`` (interning every body on the way)."""
        return self._id(tuple([
            self._id(n.shape if isinstance(n, EventNode)
                     else (_LOOP, n.count, self.intern(n.body)))
            for n in nodes]))

    def _weight(self, node: int) -> int:
        """Alignment priority of a match with this node.

        Collectives dominate: when matching a point-to-point pair
        conflicts in order with matching a collective pair, the
        collective must win — this is how the merge realizes Algorithm
        1's guarantee that one logical collective becomes one RSD.
        Loops inherit the weight of their contents (they may carry
        collectives inside)."""
        w = self._weights.get(node)
        if w is None:
            key = self.keys[node]
            if key[0] == _LOOP:
                w = sum(self._weight(n) for n in self.keys[key[2]])
            else:
                from repro.mpi.hooks import COLLECTIVE_OPS
                w = 10_000 if key[0][1] in COLLECTIVE_OPS else 1
            self._weights[node] = w
        return w

    def _classes_of(self, nodes: int) -> List[int]:
        found = self._classes.get(nodes)
        if found is None:
            found = self._classes[nodes] = [
                -self.keys[n][1] if self.keys[n][0] == _LOOP else n
                for n in self.keys[nodes]]
        return found

    def _pair_weight(self, a: int, b: int) -> Optional[int]:
        """Weight of the node merging two nodes of one merge class would
        build, or None if they do not merge — computed without
        building."""
        if self.keys[a][0] == _LOOP:
            return self._loop_weight(a, b)
        return self._weight(a)

    def _loop_weight(self, a: int, b: int) -> Optional[int]:
        key = (a, b)
        if key in self._loop_weights:
            return self._loop_weights[key]
        w = None
        abody, bbody = self.keys[a][2], self.keys[b][2]
        # Require at least one genuinely shared body node: otherwise any
        # two equal-count loops would merge, and those spurious matches
        # displace collective alignment in the outer LCS.  Bodies with no
        # merge class in common cannot share one, so skip their DP.
        if not set(self._classes_of(abody)).isdisjoint(
                self._classes_of(bbody)):
            pairs, _ = self._align(abody, bbody)
            if pairs:
                # the merged body is the supersequence: every node of
                # both bodies, each matched pair replaced by its merge
                xs, ys = self.keys[abody], self.keys[bbody]
                w = self._weight(a) + self._weight(b) - sum(
                    self._weight(xs[i]) + self._weight(ys[j])
                    - self._pair_weight(xs[i], ys[j])
                    for i, j in pairs)
        self._loop_weights[key] = w
        return w

    def _align(self, xs: int, ys: int) -> _Alignment:
        found = self._alignments.get((xs, ys))
        if found is None:
            obs.count("scalatrace.alignments_computed", 1)
            if _FASTPATH and xs == ys and self.keys[xs] \
                    and self.diagonal_safe(xs):
                found = ([(i, i) for i in range(len(self.keys[xs]))], True)
            else:
                found = (self._lcs(xs, ys), False)
            self._alignments[xs, ys] = found
        return found

    def diagonal_safe(self, nodes: int) -> bool:
        """True when the all-diagonal alignment of the list ``nodes``
        against itself is provably the alignment the weighted LCS DP
        picks — the condition for the fast path to be byte-identical.

        Event↔event cross matches are weight-conserving (the merged node
        weighs exactly what each side weighs), so any alignment built
        from them totals at most the diagonal's weight, and the
        traceback's match-first tie-break then yields the diagonal.  The
        only way an off-diagonal alignment can *out-weigh* the diagonal
        is a loop↔loop cross merge, whose supersequence body can weigh
        more than either side.  Such a merge needs equal counts and at
        least one shared body node — so the fast path is safe whenever
        no two distinct loops in the list have equal counts and
        overlapping event sets.  Compressed SPMD traces almost never trip
        this (distinct phases use distinct call sites); when they do we
        conservatively fall back to the DP."""
        by_count: Dict[int, List[int]] = {}
        for n in self.keys[nodes]:
            key = self.keys[n]
            if key[0] == _LOOP:
                by_count.setdefault(key[1], []).append(key[2])
        for group in by_count.values():
            if len(group) < 2:
                continue
            keysets = [self._event_keys(body) for body in group]
            for i in range(len(keysets)):
                for j in range(i + 1, len(keysets)):
                    if keysets[i] & keysets[j]:
                        return False
        return True

    def _event_keys(self, nodes: int) -> set:
        """(signature, instances) of every event under a list id."""
        found = set()
        stack = list(self.keys[nodes])
        while stack:
            key = self.keys[stack.pop()]
            if key[0] == _LOOP:
                stack.extend(self.keys[key[2]])
            else:
                found.add(key[:2])
        return found

    def _lcs(self, xs: int, ys: int) -> List[Tuple[int, int]]:
        """Maximum-weight common subsequence of mergeable nodes, with the
        match-first traceback (ties prefer the match, then moving down
        ``xs``)."""
        xnodes, ynodes = self.keys[xs], self.keys[ys]
        n, m = len(xnodes), len(ynodes)
        cx, cy = self._classes_of(xs), self._classes_of(ys)
        weight: Dict[Tuple[int, int], int] = {}
        dp = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            x, c = xnodes[i], cx[i]
            row, below = dp[i], dp[i + 1]
            for j in range(m - 1, -1, -1):
                best = max(below[j], row[j + 1])
                if cy[j] == c:
                    w = self._pair_weight(x, ynodes[j])
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
        return pairs

    def plan(self, xs: int, ys: int) -> Tuple[_Plan, int, Dict[str, int]]:
        """How lists of shapes ``xs`` and ``ys`` merge: the traceback's
        pairs, each loop pair with its bodies' plan; the merged list's
        shape id; and the alignment counters of the whole plan, which
        every merge built along it emits (:func:`_emit`)."""
        found = self._plans.get((xs, ys))
        if found is not None:
            return found
        pairs, fast = self._align(xs, ys)
        xnodes, ynodes = self.keys[xs], self.keys[ys]
        counts: Dict[str, int] = Counter()
        if fast:
            counts["scalatrace.merge_fastpath_hits"] += 1
        else:
            counts["scalatrace.lcs_cells"] += len(xnodes) * len(ynodes)
            counts["scalatrace.lcs_alignments"] += len(pairs)
        plan = []
        merged: List[int] = []
        xi = yi = 0
        for i, j in pairs:
            merged.extend(xnodes[xi:i])
            merged.extend(ynodes[yi:j])
            key = self.keys[xnodes[i]]
            if key[0] == _LOOP:
                body, body_shape, body_counts = self.plan(
                    key[2], self.keys[ynodes[j]][2])
                counts.update(body_counts)
                merged.append(self._id((_LOOP, key[1], body_shape)))
            else:
                body = None
                merged.append(xnodes[i])   # a merged event keeps its shape
            plan.append((i, j, body))
            xi, yi = i + 1, j + 1
        merged.extend(xnodes[xi:])
        merged.extend(ynodes[yi:])
        found = self._plans[xs, ys] = (tuple(plan), self._id(tuple(merged)),
                                       counts)
        return found


def _diagonal_safe(nodes: List[Node]) -> bool:
    """:meth:`_ShapeMemo.diagonal_safe` of a node list."""
    memo = _ShapeMemo()
    return memo.diagonal_safe(memo.intern(nodes))


class _CommMaps(dict):
    """comm_id -> :func:`_comm_map`, computed on first use."""

    def __init__(self, comm_table: Dict[int, Tuple[int, ...]]):
        super().__init__()
        self.comm_table = comm_table

    def __missing__(self, comm_id: int) -> _CommMap:
        found = self[comm_id] = _comm_map(self.comm_table, comm_id)
        return found


def _emit(counts: Dict[str, int]) -> None:
    """Count one merge's alignment: the counters describe the alignment
    each merge is built from, whether it was computed or shared."""
    for name, n in counts.items():
        obs.count(name, n)


def _build(xs: List[Node], ys: List[Node], plan: _Plan,
           comm_maps: _CommMaps) -> List[Node]:
    """The merged supersequence of ``xs`` and ``ys`` along ``plan``:
    unmatched nodes keep their own rank sets, matched pairs merge."""
    out: List[Node] = []
    xi = yi = 0
    for i, j, body in plan:
        out.extend(xs[xi:i])
        out.extend(ys[yi:j])
        a, b = xs[i], ys[j]
        if body is None:
            out.append(_merge_events(a, b, comm_maps[a.comm_id]))
        else:
            out.append(LoopNode(a.count,
                                _build(a.body, b.body, body, comm_maps),
                                a.ranks | b.ranks))
        xi, yi = i + 1, j + 1
    out.extend(xs[xi:])
    out.extend(ys[yi:])
    return out


def merge_node_lists(xs: List[Node], ys: List[Node],
                     comm_table) -> List[Node]:
    """Order-preserving merge (shortest common supersequence around the
    maximum-weight LCS of mergeable nodes).

    Identical-sequence fast path: when both sides have the same shape
    the alignment is the diagonal, skipping the O(n·m) DP.  Gated
    further by :meth:`_ShapeMemo.diagonal_safe` so the diagonal is
    exactly what the DP's traceback would produce; any doubt falls
    through to the DP."""
    memo = _ShapeMemo()
    plan, _, counts = memo.plan(memo.intern(xs), memo.intern(ys))
    _emit(counts)
    return _build(xs, ys, plan, _CommMaps(comm_table))


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

    Shared alignments: an alignment reads node shape only (event
    shapes, loop counts; never ranks, values or timing), so one
    :class:`_ShapeMemo` serves every merge the accumulator makes.  Each
    distinct alignment, top-level or of two loop bodies, is computed
    once and replayed on every later pair of those shapes; a merged
    partial's shape id comes off its plan, without walking its nodes.
    SPMD ranks, and the generator's rebuilt per-rank lists, come in a
    few shapes however many ranks there are, so most merges replay one
    (``scalatrace.alignments_computed`` counts the alignments computed).
    Every merge still does its own rank-set unions, parameter merges and
    histogram folds, in the same association order, so the bytes are
    those of aligning every merge afresh — which is what the merges do
    while the fast path is off (:func:`set_merge_fastpath`), keeping
    that the pure-DP baseline.
    """

    def __init__(self, world_size: Optional[int] = None,
                 comm_table: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.world_size = world_size
        #: comm_id -> ordered world ranks; grows as rank tables arrive.
        #: Any comm referenced by a fed node list must already be
        #: present (callers feed each rank's table alongside its nodes).
        self.comm_table: Dict[int, Tuple[int, ...]] = dict(comm_table or {})
        #: (span, nodes, shape id) partial merges, largest span first.
        self._partials: List[Tuple[int, List[Node], int]] = []
        #: How many per-rank lists have been fed.
        self.fed = 0
        #: every alignment the merges compute, by shape
        self._memo = _ShapeMemo()

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
        shape = self._memo.intern(nodes)
        span = 1
        while self._partials and self._partials[-1][0] == span:
            _, prev, prev_shape = self._partials.pop()
            nodes, shape = self._merge(prev, prev_shape, nodes, shape)
            span *= 2
        self._partials.append((span, nodes, shape))
        self.fed += 1

    def _merge(self, xs: List[Node], xshape: int, ys: List[Node],
               yshape: int) -> Tuple[List[Node], int]:
        """One pair merge, and the merged list's shape id."""
        obs.count("scalatrace.pair_merges", 1)
        if not _FASTPATH:
            self._memo.forget()
        plan, shape, counts = self._memo.plan(xshape, yshape)
        _emit(counts)
        return _build(xs, ys, plan, _CommMaps(self.comm_table)), shape

    def live_node_count(self) -> int:
        """Nodes currently held across all partial merges (the term the
        tracer samples into ``scalatrace.nodes_live_peak``)."""
        from repro.scalatrace.rsd import count_nodes
        return sum(count_nodes(nodes) for _, nodes, _ in self._partials)

    def result(self) -> Trace:
        """Finalize: fold remaining partials smallest-first (earlier
        ranks stay the left operand) and return the merged trace."""
        if not self._partials:
            raise ValueError("no traces to merge")
        obs.count("scalatrace.merge_depth", (self.fed - 1).bit_length())
        span, nodes, shape = self._partials[-1]
        for pspan, prev, prev_shape in reversed(self._partials[:-1]):
            nodes, shape = self._merge(prev, prev_shape, nodes, shape)
            span += pspan
        self._partials = [(span, nodes, shape)]
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
