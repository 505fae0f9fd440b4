"""On-the-fly intra-rank loop compression (RSD → PRSD folding).

This is ScalaTrace's core compression step (§3.1): as events stream in,
repeated tails of the trace queue are folded into :class:`LoopNode`\\ s so
that a 1000-iteration communication loop occupies a handful of nodes
instead of thousands.  Three rewrite rules run to fixpoint after every
append:

* **coalesce** — two adjacent loops with matching bodies merge their
  iteration counts;
* **absorb**  — a loop followed by one more copy of its body increments
  its count;
* **fold**    — two adjacent copies of a w-node window become a loop with
  count 2.

Two nodes "match" when they are the same call site (op, stack signature,
communicator, wait structure); parameters that differ per iteration are
concatenated into :class:`~repro.scalatrace.rsd.ParamField` sequences, so
folding is always lossless.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import (FP_BASE, FP_MOD, EventNode, LoopNode, Node,
                                  ParamField, count_nodes)
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq


def _contains_collective(node: Node) -> bool:
    if isinstance(node, EventNode):
        return node.op in COLLECTIVE_OPS
    return any(_contains_collective(n) for n in node.body)

#: Maximum repeated-window width considered when folding.  Loop bodies in
#: real codes (and in the NPB suite) are far narrower than this.
DEFAULT_MAX_WINDOW = 32

_PARAM_FIELDS = ("peer", "size", "tag", "root")

#: FP_BASE ** k mod FP_MOD, extended on demand (shared by every queue —
#: powers depend only on the window width).
_FP_POWS = [1]


def _fp_pow(k: int) -> int:
    while len(_FP_POWS) <= k:
        _FP_POWS.append((_FP_POWS[-1] * FP_BASE) % FP_MOD)
    return _FP_POWS[k]


#: Outcomes of the fused match-and-plan walk over a candidate fold window.
_NO_MATCH, _INPLACE, _SLOW = 0, 1, 2


def _pair_plan(x: Node, y: Node) -> int:
    """Structural compatibility for folding, fused with the in-place
    merge capability check so the hot path walks each window once.

    Returns ``_NO_MATCH`` when the nodes are not the same call-site
    structure (parameters may differ, rank sets must agree — trivially
    true inside a per-rank queue, essential when recompressing a merged
    multi-rank trace); ``_INPLACE`` when they match and every parameter
    field can be merged by mutation; ``_SLOW`` when they match but the
    merge must go through the rebuilding :func:`_merge_sequence` (which
    may still refuse, e.g. differing expressions).

    The cached fingerprint covers exactly the identity fields compared
    below, so ``fp`` inequality settles the common (non-matching) case
    in O(1); the structural comparison then guards against hash
    collisions, keeping the fold decision — and therefore compression
    output — exact.
    """
    if x.fp != y.fp or x.ranks != y.ranks:
        return _NO_MATCH
    if isinstance(x, EventNode):
        if not isinstance(y, EventNode) or x.sig != y.sig:
            return _NO_MATCH
        if x.sample_count() == 0 or y.sample_count() == 0:
            return _SLOW   # zero-sample expansion; rebuild handles it
        return _INPLACE if _fields_can_merge(x, y) else _SLOW
    if not isinstance(y, LoopNode) or x.count != y.count \
            or len(x.body) != len(y.body):
        return _NO_MATCH
    plan = _INPLACE
    for xb, yb in zip(x.body, y.body):
        p = _pair_plan(xb, yb)
        if p == _NO_MATCH:
            return _NO_MATCH
        if p == _SLOW:
            plan = _SLOW
    return plan


def _segments_plan(xs: List[Node], ys: List[Node]) -> int:
    """Fold ``_pair_plan`` over equal-length segments."""
    plan = _INPLACE
    for x, y in zip(xs, ys):
        p = _pair_plan(x, y)
        if p == _NO_MATCH:
            return _NO_MATCH
        if p == _SLOW:
            plan = _SLOW
    return plan


def nodes_match(a: Node, b: Node) -> bool:
    """Public structural-match predicate (parameters may differ)."""
    return _pair_plan(a, b) != _NO_MATCH


def _merge_events(a: EventNode, b: EventNode,
                  separate_entries: bool) -> Optional[EventNode]:
    """Node representing all instances of ``a`` followed by all of ``b``.

    Time histograms sum over ranks, so per-rank instance counts divide by
    the rank-set size (1 inside a per-rank queue).

    §3.1 path-aware timing: when the two copies are consecutive
    iterations of the *same* loop entry (``separate_entries=False``),
    ``b``'s first-iteration samples become subsequent-iteration samples;
    when each copy was its own loop entry (the copies live inside sibling
    inner loops being folded by an outer loop), both firsts stay firsts.
    """
    ca = a.sample_count() // max(len(a.ranks), 1)
    cb = b.sample_count() // max(len(b.ranks), 1)
    merged = {}
    for name in _PARAM_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        if (fa is None) != (fb is None):
            return None
        if fa is None:
            merged[name] = None
            continue
        combined = fa.concat(fb, ca, cb)
        if combined is None:
            return None
        merged[name] = combined
    time_first = a.time_first.copy()
    time_rest = a.time_rest.copy()
    if separate_entries:
        time_first.merge(b.time_first)
    else:
        time_rest.merge(b.time_first)
    time_rest.merge(b.time_rest)
    return EventNode(a.op, a.callsite, a.comm_id, a.ranks, a.instances,
                     merged["peer"], merged["size"], merged["tag"],
                     merged["root"], a.wait_offsets, time_first, time_rest)


def _merge_sequence(xs: List[Node], ys: List[Node],
                    separate_entries: bool = False) -> Optional[List[Node]]:
    out = []
    for x, y in zip(xs, ys):
        if isinstance(x, EventNode):
            m = _merge_events(x, y, separate_entries)
        else:
            # copies of a nested loop are distinct entries of that loop
            inner = _merge_sequence(x.body, y.body, separate_entries=True)
            m = (LoopNode(x.count, inner, x.ranks)
                 if inner is not None and x.count == y.count else None)
        if m is None:
            return None
        out.append(m)
    return out


# -- in-place absorption fast path -------------------------------------------
#
# ``_merge_sequence`` rebuilds the entire merged node tree — new EventNodes,
# new ValueSeqs, copied histograms — on *every* absorbed iteration, which
# makes streaming a K-iteration loop O(K · body) in allocations.  When the
# surviving loop node was built by this queue itself (so its whole subtree
# is freshly constructed and aliased nowhere else), the same result can be
# produced by mutating it: append the new per-iteration parameter values,
# merge the timing samples, and bump the loop count.  The functions below
# mirror ``_merge_events``/``_merge_sequence`` exactly — same expansion of
# constant sequences, same first/rest histogram routing — so the folded
# output is byte-identical; they just skip the reconstruction.

def _fields_can_merge(a: EventNode, b: EventNode) -> bool:
    """Would ``_merge_events(a, b, ...)`` succeed, and can it be done by
    mutation?  (Params only — the structural match is established by the
    caller; zero-length sequences are deferred to the slow path.)"""
    for name in _PARAM_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        if fa is None and fb is None:
            continue
        if fa is None or fb is None:
            return False
        if fa.seq is not None and fb.seq is not None:
            if fa.seq.length == 0 or fb.seq.length == 0:
                return False   # degenerate; take the slow path
            continue
        if fa.expr is not None and fb.expr is not None and fa.expr == fb.expr:
            continue
        if fa.rank_map is not None and fb.rank_map is not None \
                and set(fa.rank_map) == set(fb.rank_map):
            if any(s.length == 0 for s in fa.rank_map.values()) or \
                    any(s.length == 0 for s in fb.rank_map.values()):
                return False
            continue
        return False
    return True


def _seq_extend(xs: ValueSeq, ys: ValueSeq, ca: int, cb: int) -> None:
    """In-place equivalent of
    ``_expanded(xs, ca).concat(_expanded(ys, cb))`` (both non-empty)."""
    runs = xs.runs
    if len(runs) == 1 and xs.length != ca:
        runs[0] = (runs[0][0], ca)
        xs.length = ca
    truns = ys.runs
    if len(truns) == 1:
        v = truns[0][0]
        last = runs[-1]
        if last[0] == v:
            runs[-1] = (v, last[1] + cb)
        else:
            runs.append((v, cb))
        xs.length += cb
    else:
        for v, c in truns:
            last = runs[-1]
            if last[0] == v:
                runs[-1] = (v, last[1] + c)
            else:
                runs.append((v, c))
        xs.length += ys.length


def _seq_push(seq: ValueSeq, value, ca: int) -> None:
    """In-place equivalent of ``_seq_extend`` with a single fresh value
    (``cb == 1``) — the replay-cursor absorb step."""
    runs = seq.runs
    if len(runs) == 1 and seq.length != ca:
        runs[0] = (runs[0][0], ca)
        seq.length = ca
    last = runs[-1]
    if last[0] == value:
        runs[-1] = (value, last[1] + 1)
    else:
        runs.append((value, 1))
    seq.length += 1


def _field_extend(fx: ParamField, fy: ParamField, ca: int, cb: int) -> None:
    if fx.seq is not None:
        _seq_extend(fx.seq, fy.seq, ca, cb)
    elif fx.rank_map is not None:
        for r, s in fx.rank_map.items():
            _seq_extend(s, fy.rank_map[r], ca, cb)
    # expr fields: equal by validation, nothing to append


def _merge_events_inplace(x: EventNode, y: EventNode,
                          separate_entries: bool) -> None:
    nr = len(x.ranks) or 1
    ca = x.sample_count() // nr
    cb = y.sample_count() // nr
    if x.peer is not None:
        _field_extend(x.peer, y.peer, ca, cb)
    if x.size is not None:
        _field_extend(x.size, y.size, ca, cb)
    if x.tag is not None:
        _field_extend(x.tag, y.tag, ca, cb)
    if x.root is not None:
        _field_extend(x.root, y.root, ca, cb)
    if separate_entries:
        x.time_first.merge(y.time_first)
    else:
        x.time_rest.merge(y.time_first)
    x.time_rest.merge(y.time_rest)


def _merge_sequence_inplace(xs: List[Node], ys: List[Node],
                            separate_entries: bool = False) -> None:
    for x, y in zip(xs, ys):
        if isinstance(x, EventNode):
            _merge_events_inplace(x, y, separate_entries)
        else:
            # nested loop copies are distinct entries of that loop; the
            # count stays (checked equal by the structural match)
            _merge_sequence_inplace(x.body, y.body, separate_entries=True)


class CompressionQueue:
    """The per-rank trace queue with fixpoint tail compression.

    ``fold_collectives=False`` keeps windows containing collective events
    out of loop folds; Algorithm 1's rebuild uses this so that logical
    collectives occupy structurally identical positions on every rank
    before the global (multi-rank) recompression pass runs.

    The queue keeps a rolling fingerprint table alongside ``nodes``:
    ``_prefix[i]`` is the Rabin hash of ``nodes[:i]`` over node
    fingerprints, so the hash of any tail window is one multiply-subtract
    and the absorb/fold window searches compare *one integer per
    candidate width* instead of structurally walking up to
    ``max_window`` nodes.  A fingerprint hit is still confirmed by
    the structural walk before anything is merged, so the folded
    output is byte-identical to the unfingerprinted algorithm.

    On top of that sits the *replay cursor*, the streaming steady-state
    fast path.  Once the tail is a queue-built loop whose flat event body
    the incoming stream keeps replaying, each iteration's events are
    matched field-by-field against the body and buffered as raw values;
    when a full copy of the body has arrived, it is absorbed by mutating
    the loop directly — no :class:`EventNode`, histogram, or parameter
    object is ever constructed for the absorbed iteration.  The cursor
    engages only after a fingerprint precheck proves that *no* rewrite
    rule could fire on any intermediate queue state it skips (any hash
    coincidence declines the cursor), so the compressed output is
    byte-identical to the rule-at-a-time algorithm.  External reads go
    through the :attr:`nodes` property, which first materialises any
    partially buffered iteration.

    Timing invariant: each appended event's delta is added to exactly
    one histogram, exactly once, in stream order — to the fresh node's
    ``time_first`` in :meth:`_make_event`, or to a loop body event's
    ``time_rest`` in :meth:`_apply_cursor_window` (rows the cursor
    buffers land in order, in :meth:`_apply_cursor_window` or
    :meth:`_flush_pending`, before any later event).  Beyond those adds
    the queue only copies and merges histograms and reads their
    ``count``.  The generator's rank-class rebuild
    (:mod:`repro.generator.rebuild`) records one queue's adds and merges
    and replays them on other ranks' deltas, so it relies on both.
    """

    def __init__(self, rank: int, max_window: int = DEFAULT_MAX_WINDOW,
                 fold_collectives: bool = True):
        self.rank = rank
        self.ranks = RankSet.single(rank)
        self._nodes: List[Node] = []
        self.max_window = max_window
        self.fold_collectives = fold_collectives
        self._prefix: List[int] = [0]   # _prefix[i] = fp-hash of nodes[:i]
        #: ids of nodes this queue built itself (always still in
        #: ``nodes`` — ids are discarded on removal, so no stale-id reuse).
        #: Their subtrees are freshly constructed and aliased nowhere else,
        #: which licenses the in-place fold/absorb/coalesce fast paths;
        #: nodes arriving through :meth:`append_node` are never mutated.
        self._owned: set = set()
        # replay-cursor state: the tail loop being replayed, the per-body
        # match specs, window width, position, and the buffered raw rows
        self._cloop = None
        self._cbody: list = []
        self._cw = 0
        self._cpos = 0
        self._pending: list = []
        self._no_engage = None   # memo of the last state that failed engage
        _fp_pow(max_window + 1)   # pre-extend for direct indexing

    @property
    def nodes(self) -> List[Node]:
        """The compressed node list.  Materialises any loop iteration the
        replay cursor is still buffering, so external readers always see
        the exact state the rule-at-a-time algorithm would have."""
        if self._cloop is not None:
            self._flush_pending()
        return self._nodes

    def live_node_count(self) -> int:
        """Nodes this queue currently holds: compressed output plus any
        rows the replay cursor is still buffering.  Unlike :attr:`nodes`
        this never flushes the cursor, so the streaming tracer can
        sample its memory high-water mark without perturbing state."""
        return count_nodes(self._nodes) + len(self._pending)

    # -- fingerprint table ---------------------------------------------------
    def _push_fp(self, node: Node) -> None:
        self._prefix.append(
            (self._prefix[-1] * FP_BASE + node.fp) % FP_MOD)

    def _window_fp(self, a: int, b: int) -> int:
        """Hash of ``nodes[a:b]``, O(1) from the prefix table."""
        pref = self._prefix
        return (pref[b] - pref[a] * _fp_pow(b - a)) % FP_MOD

    def _replace_tail(self, width: int, node: Node) -> None:
        """Substitute ``nodes[-width:]`` with ``node`` (a loop this queue
        just built), keeping the fingerprint table and ownership in step."""
        q = self._nodes
        for old in q[-width:]:
            self._owned.discard(id(old))
        del q[-width:]
        del self._prefix[len(q) + 1:]
        q.append(node)
        self._owned.add(id(node))
        self._push_fp(node)

    def _drop_tail_keep(self, width: int) -> None:
        """Drop ``nodes[-width:]`` after their content was merged *into*
        the (mutated) node just before them, whose fingerprint changed —
        refresh its prefix entry."""
        q = self._nodes
        for old in q[-width:]:
            self._owned.discard(id(old))
        del q[-width:]
        del self._prefix[len(q):]
        self._push_fp(q[-1])

    def append_event(self, op: str, callsite, comm_id: int,
                     peer=None, size=None, tag=None, root=None,
                     wait_offsets=None, delta_t: float = 0.0) -> None:
        if self._cloop is not None:
            spec = self._cbody[self._cpos]
            if (op == spec[0] and callsite == spec[1] and comm_id == spec[2]
                    and wait_offsets == spec[3]
                    and (peer is None) == spec[4]
                    and (size is None) == spec[5]
                    and (tag is None) == spec[6]
                    and (root is None) == spec[7]):
                self._pending.append((peer, size, tag, root, delta_t))
                self._cpos += 1
                if self._cpos == self._cw:
                    self._apply_cursor_window()
                return
            self._flush_pending()   # replay broke: materialise, disengage
        node = self._make_event(op, callsite, comm_id, peer, size, tag,
                                root, wait_offsets, delta_t)
        self._owned.add(id(node))   # built here: eligible for in-place fold
        self.append_node(node)
        self._try_engage()

    def _make_event(self, op, callsite, comm_id, peer, size, tag, root,
                    wait_offsets, delta_t) -> EventNode:
        # the one add of this event's delta (see the timing invariant)
        time_first = TimeHistogram()
        time_first.add(max(delta_t, 0.0))
        return EventNode(
            op, callsite, comm_id, self.ranks, instances=1,
            peer=ParamField.of(peer) if peer is not None else None,
            size=ParamField.of(size) if size is not None else None,
            tag=ParamField.of(tag) if tag is not None else None,
            root=ParamField.of(root) if root is not None else None,
            wait_offsets=wait_offsets, time_first=time_first)

    def append_node(self, node: Node) -> None:
        if self._cloop is not None:
            self._flush_pending()
        self._nodes.append(node)
        self._push_fp(node)
        self.compress_tail()

    def _foldable(self, nodes: List[Node]) -> bool:
        if self.fold_collectives:
            return True
        return not any(_contains_collective(n) for n in nodes)

    def compress_tail(self) -> None:
        """Apply coalesce/absorb/fold until no rule fires."""
        q = self._nodes
        changed = True
        while changed:
            changed = (self._try_coalesce(q) or self._try_absorb(q)
                       or self._try_fold(q))

    # -- replay cursor -------------------------------------------------------
    def _try_engage(self) -> None:
        """Arm the replay cursor when the queue tail is a queue-built loop
        with a flat, seq-parameter event body that the stream may keep
        replaying — and the fingerprint precheck proves no rewrite rule
        could fire on any intermediate state the cursor would skip."""
        q = self._nodes
        if not q:
            return
        loop = q[-1]
        if not isinstance(loop, LoopNode) or id(loop) not in self._owned:
            return
        body = loop.body
        if len(body) > self.max_window:
            return   # absorb could never fire on this window
        state = (id(loop), loop.fp, len(q), self._prefix[-1])
        if state == self._no_engage:
            return
        ranks = self.ranks
        specs = []
        for e in body:
            if not isinstance(e, EventNode) or e.ranks != ranks \
                    or e.sample_count() == 0:
                self._no_engage = state
                return
            for f in (e.peer, e.size, e.tag, e.root):
                if f is not None and (f.seq is None or f.seq.length == 0):
                    self._no_engage = state
                    return
            specs.append((e.op, e.callsite, e.comm_id, e.wait_offsets,
                          e.peer is None, e.size is None, e.tag is None,
                          e.root is None))
        if not self._foldable(body) or not self._cursor_precheck(loop):
            self._no_engage = state
            return
        self._cloop = loop
        self._cbody = specs
        self._cw = len(body)
        self._cpos = 0

    def _cursor_precheck(self, loop: LoopNode) -> bool:
        """True when no rewrite rule can fire on any queue state
        ``nodes + body[:k]`` for ``0 < k < len(body)`` — the states the
        cursor skips while buffering a replayed iteration.

        Conservative in the safe direction: rules fire only on window-
        fingerprint equality, so checking every candidate window hash
        (coalesce never applies — the hypothetical tail is an event)
        and declining on *any* coincidence bounds rule firing from
        above.  A decline merely falls back to the rule-at-a-time path.
        """
        q = self._nodes
        body = loop.body
        n0 = len(q)
        w = len(body)
        mw = self.max_window
        pows = _FP_POWS
        hp = list(self._prefix)
        for j in range(w - 1):
            hp.append((hp[-1] * FP_BASE + body[j].fp) % FP_MOD)
        for k in range(1, w):
            n = n0 + k
            top = hp[n]
            # absorb: a loop strictly before the tail loop could claim a
            # window ending in the buffered events (widths <= k end on
            # events/our loop and cannot fire: shown in _try_absorb)
            for wp in range(k + 1, min(mw, n - 1) + 1):
                pi = n - wp - 1
                if pi < 0:
                    break
                if pi >= n0 - 1:
                    continue
                prev = q[pi]
                if isinstance(prev, LoopNode) and len(prev.body) == wp \
                        and prev.body_fp == (top - hp[n - wp] * pows[wp]) \
                        % FP_MOD:
                    return False
            # fold: any repeated adjacent window in the hypothetical tail
            for wp in range(1, min(mw, n // 2) + 1):
                pw = pows[wp]
                mid = hp[n - wp]
                if (mid - hp[n - 2 * wp] * pw) % FP_MOD == \
                        (top - mid * pw) % FP_MOD:
                    return False
        return True

    def _apply_cursor_window(self) -> None:
        """Absorb one fully buffered body replay into the cursor loop —
        the in-place equivalent of appending each buffered event and
        letting ``_try_absorb`` fire on the last one."""
        loop = self._cloop
        body = loop.body
        for e, row in zip(body, self._pending):
            ca = e.sample_count()   # per-rank: single-rank queue
            f = e.peer
            if f is not None:
                _seq_push(f.seq, row[0], ca)
            f = e.size
            if f is not None:
                _seq_push(f.seq, row[1], ca)
            f = e.tag
            if f is not None:
                _seq_push(f.seq, row[2], ca)
            f = e.root
            if f is not None:
                _seq_push(f.seq, row[3], ca)
            dt = row[4]
            e.time_rest.add(dt if dt > 0.0 else 0.0)
        self._pending.clear()
        self._cpos = 0
        loop.bump_count(1)
        pref = self._prefix
        pref[-1] = (pref[-2] * FP_BASE + loop.fp) % FP_MOD
        obs.count("scalatrace.nodes_folded", self._cw)
        nq = len(self._nodes)
        self.compress_tail()
        if len(self._nodes) == nq and self._nodes[-1] is loop:
            # shape unchanged; only the loop's fingerprint moved — the
            # precheck must be re-proved against the new count
            if not self._cursor_precheck(loop):
                self._cloop = None
        else:
            self._cloop = None
            self._try_engage()

    def _flush_pending(self) -> None:
        """Disengage the cursor, materialising any buffered rows as real
        nodes through the normal append path (the precheck guarantees the
        rules stay quiescent while they land)."""
        self._cloop = None
        rows = self._pending
        if not rows:
            return
        specs = self._cbody
        self._pending = []
        self._cpos = 0
        for spec, row in zip(specs, rows):
            node = self._make_event(spec[0], spec[1], spec[2], row[0],
                                    row[1], row[2], row[3], spec[3], row[4])
            self._owned.add(id(node))
            self.append_node(node)

    # -- rules --------------------------------------------------------------
    #
    # Each rule gates on a fingerprint first, confirms structurally via
    # ``_segments_plan`` (one fused walk that also decides in-place
    # eligibility), then merges — by mutation when the surviving node was
    # built by this queue, by reconstruction otherwise.  Both merge paths
    # produce identical node values.

    def _try_coalesce(self, q: List[Node]) -> bool:
        if len(q) < 2:
            return False
        a, b = q[-2], q[-1]
        if not (isinstance(a, LoopNode) and isinstance(b, LoopNode)):
            return False
        # fingerprint gate: matching bodies share a body_fp (counts may
        # differ, so whole-node fps cannot be compared here)
        if a.body_fp != b.body_fp:
            return False
        if a.ranks != b.ranks or len(a.body) != len(b.body):
            return False
        plan = _segments_plan(a.body, b.body)
        if plan == _NO_MATCH:
            return False
        if plan == _INPLACE and id(a) in self._owned:
            _merge_sequence_inplace(a.body, b.body)
            a.bump_count(b.count)
            self._drop_tail_keep(1)
            obs.count("scalatrace.nodes_folded", 1)
            return True
        merged_body = _merge_sequence(a.body, b.body)
        if merged_body is None:
            return False
        self._replace_tail(
            2, LoopNode(a.count + b.count, merged_body, a.ranks))
        obs.count("scalatrace.nodes_folded", 1)
        return True

    def _try_absorb(self, q: List[Node]) -> bool:
        n = len(q)
        pref = self._prefix
        pows = _FP_POWS
        for w in range(1, min(self.max_window, n - 1) + 1):
            prev = q[-w - 1]
            if not isinstance(prev, LoopNode) or len(prev.body) != w:
                continue
            # fingerprint gate: one integer compare per candidate width
            if prev.body_fp != (pref[n] - pref[n - w] * pows[w]) % FP_MOD:
                continue
            tail = q[-w:]
            plan = _segments_plan(prev.body, tail)
            if plan == _NO_MATCH:
                continue
            if not self._foldable(tail):
                continue
            if plan == _INPLACE and id(prev) in self._owned:
                _merge_sequence_inplace(prev.body, tail)
                prev.bump_count(1)
                self._drop_tail_keep(w)
                obs.count("scalatrace.nodes_folded", w)
                return True
            merged_body = _merge_sequence(prev.body, tail)
            if merged_body is None:
                continue
            self._replace_tail(
                w + 1, LoopNode(prev.count + 1, merged_body, prev.ranks))
            obs.count("scalatrace.nodes_folded", w)
            return True
        return False

    def _try_fold(self, q: List[Node]) -> bool:
        n = len(q)
        pref = self._prefix
        pows = _FP_POWS
        top = pref[n]
        for w in range(1, min(self.max_window, n // 2) + 1):
            # fingerprint gate: one integer compare per candidate width
            mid = pref[n - w]
            pw = pows[w]
            if (mid - pref[n - 2 * w] * pw) % FP_MOD != \
                    (top - mid * pw) % FP_MOD:
                continue
            first, second = q[-2 * w:-w], q[-w:]
            plan = _segments_plan(first, second)
            if plan == _NO_MATCH:
                continue
            if not self._foldable(second):
                continue
            ranks = first[0].ranks
            for node in first[1:]:
                ranks = ranks | node.ranks
            owned = self._owned
            if plan == _INPLACE and all(id(x) in owned for x in first):
                _merge_sequence_inplace(first, second)
                self._replace_tail(2 * w, LoopNode(2, first, ranks))
                obs.count("scalatrace.nodes_folded", 2 * w - 1)
                return True
            merged_body = _merge_sequence(first, second)
            if merged_body is None:
                continue
            self._replace_tail(2 * w, LoopNode(2, merged_body, ranks))
            obs.count("scalatrace.nodes_folded", 2 * w - 1)
            return True
        return False


def compress_node_list(nodes: List[Node]) -> List[Node]:
    """Recompress a (possibly multi-rank) node sequence.

    Used after inter-rank merging to fold structures that only became
    foldable once rank sets were unified — the final step of Algorithm 1's
    output-queue compression (§4.3: "we apply ScalaTrace's loop
    compression algorithm to the output RSD queue").
    """
    with obs.span("scalatrace.compress", nodes=len(nodes)):
        queue = CompressionQueue(rank=0)
        for node in nodes:
            if isinstance(node, LoopNode):
                node = LoopNode(node.count, _compress_inner(node.body),
                                node.ranks)
            queue.append_node(node)
        return queue.nodes


def _compress_inner(nodes: List[Node]) -> List[Node]:
    """Recursive body recompression without re-entering the outer span."""
    queue = CompressionQueue(rank=0)
    for node in nodes:
        if isinstance(node, LoopNode):
            node = LoopNode(node.count, _compress_inner(node.body),
                            node.ranks)
        queue.append_node(node)
    return queue.nodes
