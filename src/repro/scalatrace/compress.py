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

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import (FP_BASE, FP_MOD, EventNode, LoopNode, Node,
                                  ParamField, count_nodes, loop_fp)
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


def nodes_match(x: Node, y: Node) -> bool:
    """Do ``x`` and ``y`` fold together?  They must be the same call-site
    structure (parameters may differ, rank sets must agree — trivially
    true inside a per-rank queue, essential when recompressing a merged
    multi-rank trace), and their parameters must merge
    (:func:`_fields_merge`).

    The cached fingerprint covers exactly the identity fields compared
    below, so ``fp`` inequality settles the common (non-matching) case
    in O(1); the structural comparison then guards against hash
    collisions, keeping the fold decision — and therefore compression
    output — exact.
    """
    if x.fp != y.fp or x.ranks != y.ranks:
        return False
    if isinstance(x, EventNode):
        return (isinstance(y, EventNode) and x.sig == y.sig
                and _fields_merge(x, y))
    return (isinstance(y, LoopNode) and x.count == y.count
            and len(x.body) == len(y.body)
            and all(map(nodes_match, x.body, y.body)))


# -- in-place merging ---------------------------------------------------------
#
# Every node a queue holds is its own: built by the queue, or a deep copy
# of what :meth:`CompressionQueue.append_node` was given.  So a rule
# merges by mutating the surviving node: it appends the other copy's
# per-iteration parameter values, merges its timing samples and bumps
# the loop count, and never rebuilds a node tree.

def _fields_merge(a: EventNode, b: EventNode) -> bool:
    """Can ``b``'s instances be appended to ``a``'s?  Each needs a timing
    sample per rank, which gives its instance count; a node without one
    never folds.  Each parameter must be present on both or neither:
    non-empty sequences, equal expressions, or rank maps of non-empty
    sequences over the same ranks."""
    nr = len(a.ranks) or 1
    if a.sample_count() < nr or b.sample_count() < nr:
        return False
    for name in _PARAM_FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        if fa is None and fb is None:
            continue
        if fa is None or fb is None:
            return False
        if fa.seq is not None and fb.seq is not None:
            if fa.seq.length == 0 or fb.seq.length == 0:
                return False
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
    """Append ``ys`` (``cb`` instances) to ``xs`` (``ca`` instances), both
    non-empty.  A constant sequence stands for its value on every
    instance, so its one run is first stretched to its instance count."""
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
    (``cb == 1``) — the replay cursor's merge of a row."""
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


def _extend_event(x: EventNode, y: EventNode,
                  separate_entries: bool) -> None:
    """Make ``x`` stand for all of its instances followed by all of
    ``y``'s.

    Time histograms sum over ranks, so per-rank instance counts divide by
    the rank-set size (1 inside a per-rank queue).

    §3.1 path-aware timing: when the two copies are consecutive
    iterations of the *same* loop entry (``separate_entries=False``),
    ``y``'s first-iteration samples become subsequent-iteration samples;
    when each copy was its own loop entry (the copies live inside sibling
    inner loops being folded by an outer loop), both firsts stay firsts.
    """
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


def _extend_nodes(xs: List[Node], ys: List[Node],
                  separate_entries: bool = False) -> None:
    """:func:`_extend_event` over two matching node sequences."""
    for x, y in zip(xs, ys):
        if isinstance(x, EventNode):
            _extend_event(x, y, separate_entries)
        else:
            # nested loop copies are distinct entries of that loop; the
            # count stays (checked equal by the structural match)
            _extend_nodes(x.body, y.body, separate_entries=True)


def _merge_items(xs: List[Node], items: list) -> None:
    """Absorb one replayed iteration into the body ``xs`` it copies, in
    place: ``_extend_nodes(xs, ys)`` where each cursor row in
    ``items`` stands for the one-sample event node the rule-at-a-time
    path would have built, and each loop is a copy built by the cursor."""
    for x, y in zip(xs, items):
        if type(y) is tuple:
            ca = x.sample_count()   # per-rank: single-rank queue
            f = x.peer
            if f is not None:
                _seq_push(f.seq, y[0], ca)
            f = x.size
            if f is not None:
                _seq_push(f.seq, y[1], ca)
            f = x.tag
            if f is not None:
                _seq_push(f.seq, y[2], ca)
            f = x.root
            if f is not None:
                _seq_push(f.seq, y[3], ca)
            # == time_rest.merge(the fresh node's one-sample time_first)
            x.time_rest.add(max(y[4], 0.0))
        else:
            # copies of a nested loop are distinct entries of that loop
            _extend_nodes(x.body, y.body, separate_entries=True)


class _Frame:
    """One loop instance the replay cursor is inside.

    ``spec`` is the loop of the tail loop's tree being replayed (the tail
    loop itself in the root frame); ``specs`` are its body's event match
    keys (None at inner loops) and ``subs`` the inner loops' key trees by
    body position, from the plan's tree (:meth:`CompressionQueue._cursor_plan`).  ``items`` are the current iteration's
    finished body positions: an event is a raw row ``(peer, size, tag,
    root, delta_t)``, or — while ``build``, on an inner loop's first
    iteration, which becomes that loop's body — the node the
    rule-at-a-time path builds; an inner loop is its finished copy.
    ``first`` is an inner loop's completed first iteration, and ``acc``
    the loop folded from it once the second completes."""

    __slots__ = ("spec", "specs", "subs", "width", "items", "build", "first",
                 "acc")

    def __init__(self, spec: LoopNode, tree: tuple, build: bool):
        self.spec = spec
        self.specs, self.subs = tree
        self.width = len(spec.body)
        self.items: list = []
        self.build = build
        self.first: Optional[List[Node]] = None
        self.acc: Optional[LoopNode] = None

    def live_nodes(self) -> int:
        """Nodes the rule-at-a-time path would hold for this frame."""
        if self.acc is not None:
            total = count_nodes([self.acc])
        else:
            total = count_nodes(self.first or [])
        for item in self.items:
            total += 1 if type(item) is tuple else count_nodes([item])
        return total


def _hits(bad: set, x: int) -> bool:
    """Does the prefix hash ``x`` solve any of a plan's equations?"""
    for a, b in bad:
        if (a * x - b) % FP_MOD == 0:
            return True
    return False


def _event_key(e: EventNode) -> tuple:
    """What the cursor compares an incoming event against: the node's
    signature and which parameters are present."""
    return (e.op, e.callsite, e.comm_id, e.wait_offsets, e.peer is None,
            e.size is None, e.tag is None, e.root is None)


#: A plan verdict not yet in a :class:`DecisionTable`.
_UNSEEN = object()

#: Rules as recorded in a :class:`DecisionTable` outcome.
_COALESCE, _ABSORB, _FOLD = 0, 1, 2


class DecisionTable:
    """Compression decisions shared by the per-rank queues of one traced
    run, keyed on exact rank-free queue state.

    The rules' outcome on a queue is a function of the call-site
    structure of its nodes alone: inside a per-rank queue every rank set
    is the queue's one rank, every node is the queue's own (a queue owns
    every node it holds, so every firing merges in place), and parameter
    values and timing never decide a fold (every event carries its
    timing sample and its parameters as sequences, which always merge).
    Ranks of one class reach the same structures, so the first queue to
    reach a state decides it by the rules and every later one applies
    the recorded outcome.

    States are interned, which makes them exact: an event's *shape* is
    its match key (:func:`_event_key`), a loop's is its count and the
    state of its body, and the state of a node sequence is interned from
    the state of the sequence without its last node and that node's
    shape (state 0 is the empty sequence).  Equal ids are equal
    sequences of shapes; no hash decides anything.

    ``outcomes`` maps a queue state to the ``(rule, width, state after)``
    firings ``compress_tail`` ran from it to fixpoint (empty: quiet).
    ``plans`` maps the state of a queue whose tail is a loop to the
    replay cursor's verdict there: the loop's match-key tree
    (:meth:`CompressionQueue._cursor_plan`) when the cursor may replay
    it, else None.  A plan's ``bad`` equations are in the hash space of
    the queue that made them, but their answer at a state is the same
    for every queue in that state, so the answer is what is shared.

    Only :class:`~repro.scalatrace.tracer.ScalaTraceHook` makes tables,
    one per run, for queues of one window width that take events through
    :meth:`CompressionQueue.append_event` alone.
    """

    def __init__(self):
        #: event match key or (count, body state) -> shape, and back
        self._shapes: Dict[tuple, int] = {}
        self._keys: List[tuple] = []
        #: (state, shape) -> state, and each state's last shape
        self._states: Dict[Tuple[int, int], int] = {}
        self._last: List[int] = [-1]
        self.outcomes: Dict[int, tuple] = {}
        self.plans: Dict[int, object] = {}
        #: outcomes applied from the table / decided by the rules
        self.shared_decisions = 0
        self.decisions_made = 0
        #: cursor verdicts taken from the table / made by a queue
        self.shared_plans = 0
        self.plans_made = 0

    def step(self, state: int, shape: int) -> int:
        """The state of a sequence in ``state`` extended by ``shape``."""
        key = (state, shape)
        nxt = self._states.get(key)
        if nxt is None:
            nxt = self._states[key] = len(self._last)
            self._last.append(shape)
        return nxt

    def _intern(self, key: tuple) -> int:
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = len(self._keys)
            self._keys.append(key)
        return shape

    def shape(self, node: Node) -> int:
        if isinstance(node, EventNode):
            return self._intern(_event_key(node))
        body = 0
        for n in node.body:
            body = self.step(body, self.shape(n))
        return self._intern((node.count, body))

    def loop(self, count: int, body: List[int]) -> int:
        """The shape of ``count`` iterations of the nodes in ``body``,
        each given by the state it is the last node of."""
        state = 0
        for at in body:
            state = self.step(state, self._last[at])
        return self._intern((count, state))

    def recount(self, state: int, count: int) -> int:
        """The shape of the loop last in ``state`` at ``count``."""
        return self._intern((count, self._keys[self._last[state]][1]))


class CompressionQueue:
    """The per-rank trace queue with fixpoint tail compression.

    The queue owns every node it holds: it built the node, or the node
    is a deep copy of one :meth:`append_node` was given (the caller's
    node is never mutated).  So every rule merges by mutating the node
    that survives, and no merge rebuilds a node tree.

    Per queue: the nodes, the fingerprint prefix table, the replay
    cursor's frames and its last plan.  Per hook, when a
    :class:`DecisionTable` is passed: the rules' outcomes and the
    cursor's verdicts, keyed on exact rank-free queue states, which the
    queue follows in ``_states`` next to ``_prefix``.  A queue in a state
    the table knows applies the recorded firings (in place, without the
    gate scans) or takes the recorded verdict; a new state is decided by
    the rules below and recorded.  Without a table (the generator's
    rebuild, :func:`compress_node_list`, harnesses) every state is
    decided by the rules.

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
    fast path.  Once the tail is a loop, inner loops included, the
    incoming stream is matched event by event against the expansion of
    its body.  The cursor builds what the rule-at-a-time path would
    build, but without scanning the rules: an event becomes a
    raw row, except on an inner loop's first iteration, whose nodes
    become that loop's body; an inner loop's later iterations and each
    whole iteration of the tail loop are merged in place into their
    copies by the same merges the absorb and fold rules make, so inner
    timing lands in the inner copy's histograms before it is merged
    outward.  What the cursor holds is at most what the rule-at-a-time
    path would hold.  It engages only after a fingerprint precheck
    proves that, on every queue state it skips, the first rule that
    could fire is the one it applies (:meth:`_cursor_plan`; any hash
    coincidence declines the cursor), so the compressed output is
    byte-identical to the rule-at-a-time algorithm.  External reads go
    through the :attr:`nodes` property, which first materialises any
    partly replayed iteration.

    Timing invariant: each appended event's delta is added to exactly
    one histogram, exactly once — to the fresh node's ``time_first`` in
    :meth:`_make_event`, or to a body event's ``time_rest`` when the
    cursor merges a row.  Beyond those adds the queue only copies and
    merges histograms, creates them through :meth:`_histogram` and reads
    their ``count``.  The generator's rank-class rebuild
    (:mod:`repro.generator.rebuild`) passes stream positions as deltas,
    records one queue's adds and merges and replays them on other ranks'
    deltas, so it relies on both.
    """

    def __init__(self, rank: int, max_window: int = DEFAULT_MAX_WINDOW,
                 fold_collectives: bool = True,
                 table: Optional[DecisionTable] = None):
        self.rank = rank
        self.ranks = RankSet.single(rank)
        self._nodes: List[Node] = []
        self.max_window = max_window
        self.fold_collectives = fold_collectives
        self._prefix: List[int] = [0]   # _prefix[i] = fp-hash of nodes[:i]
        #: the replay cursor's frames, outermost first (empty: disengaged)
        self._frames: List[_Frame] = []
        #: the tail loop the cursor may engage on at the next event
        self._armed: Optional[LoopNode] = None
        #: the last cursor plan: (tail loop, (len(nodes), prefix before
        #: it), plan or None) — the plan does not depend on the loop's
        #: count, so it is made once per tail loop and position
        self._plan = None
        #: events the replay cursor took (``scalatrace.cursor_events``)
        self.cursor_events = 0
        #: the hook-wide decision table, and ``_states[i]``, the table's
        #: state of ``nodes[:i]`` (both None without a table)
        self._table = table
        self._states: Optional[List[int]] = [0] if table is not None \
            else None
        _fp_pow(max_window + 1)   # pre-extend for direct indexing

    @property
    def nodes(self) -> List[Node]:
        """The compressed node list.  Materialises any loop iteration the
        replay cursor is still replaying, so external readers always see
        the exact state the rule-at-a-time algorithm would have."""
        if self._frames:
            self._disengage()
        return self._nodes

    def live_node_count(self) -> int:
        """Nodes this queue currently holds: compressed output plus what
        the replay cursor is still replaying.  Unlike :attr:`nodes` this
        never disengages the cursor, so the streaming tracer can sample
        its memory high-water mark without perturbing state."""
        return count_nodes(self._nodes) + sum(
            f.live_nodes() for f in self._frames)

    # -- fingerprint table ---------------------------------------------------
    def _push_fp(self, node: Node) -> None:
        self._prefix.append(
            (self._prefix[-1] * FP_BASE + node.fp) % FP_MOD)

    def _push(self, node: Node) -> None:
        """Append ``node`` to the queue and its tables."""
        self._nodes.append(node)
        self._push_fp(node)
        table = self._table
        if table is not None:
            self._states.append(table.step(self._states[-1],
                                           table.shape(node)))

    def _window_fp(self, a: int, b: int) -> int:
        """Hash of ``nodes[a:b]``, O(1) from the prefix table."""
        pref = self._prefix
        return (pref[b] - pref[a] * _fp_pow(b - a)) % FP_MOD

    def _replace_tail(self, width: int, node: Node) -> None:
        """Substitute ``nodes[-width:]`` with ``node`` (a loop this queue
        just built), keeping the fingerprint table in step."""
        q = self._nodes
        del q[-width:]
        del self._prefix[len(q) + 1:]
        q.append(node)
        self._push_fp(node)

    def _drop_tail_keep(self, width: int) -> None:
        """Drop ``nodes[-width:]`` after their content was merged *into*
        the (mutated) node just before them, whose fingerprint changed —
        refresh its prefix entry."""
        q = self._nodes
        del q[-width:]
        del self._prefix[len(q):]
        self._push_fp(q[-1])

    def append_event(self, op: str, callsite, comm_id: int,
                     peer=None, size=None, tag=None, root=None,
                     wait_offsets=None, delta_t: float = 0.0) -> None:
        frames = self._frames
        if not frames and self._armed is not None:
            frames = self._engage((op, callsite, comm_id, wait_offsets,
                                   peer is None, size is None, tag is None,
                                   root is None))
        if frames:
            f = frames[-1]
            spec = f.specs[len(f.items)]
            if (op == spec[0]
                    and (callsite is spec[1] or callsite == spec[1])
                    and comm_id == spec[2] and wait_offsets == spec[3]
                    and (peer is None) == spec[4]
                    and (size is None) == spec[5]
                    and (tag is None) == spec[6]
                    and (root is None) == spec[7]):
                self.cursor_events += 1
                items = f.items
                if f.build:
                    items.append(self._make_event(
                        op, callsite, comm_id, peer, size, tag, root,
                        wait_offsets, delta_t))
                else:
                    items.append((peer, size, tag, root, delta_t))
                k = len(items)
                if k == f.width or f.specs[k] is None:
                    self._cursor_advance()
                return
            self._disengage()   # replay broke: materialise, disengage
        self._append(self._make_event(op, callsite, comm_id, peer, size,
                                      tag, root, wait_offsets, delta_t))
        self._try_engage()

    def _histogram(self) -> TimeHistogram:
        """A fresh, empty histogram for a node this queue builds."""
        return TimeHistogram()

    def _make_event(self, op, callsite, comm_id, peer, size, tag, root,
                    wait_offsets, delta_t) -> EventNode:
        # the one add of this event's delta (see the timing invariant)
        time_first = self._histogram()
        time_first.add(max(delta_t, 0.0))
        return EventNode(
            op, callsite, comm_id, self.ranks, instances=1,
            peer=ParamField.of(peer) if peer is not None else None,
            size=ParamField.of(size) if size is not None else None,
            tag=ParamField.of(tag) if tag is not None else None,
            root=ParamField.of(root) if root is not None else None,
            wait_offsets=wait_offsets, time_first=time_first,
            time_rest=self._histogram())

    def append_node(self, node: Node) -> None:
        """Append a deep copy of ``node`` and compress; ``node`` itself is
        left as it is."""
        self._append(node.copy())

    def _append(self, node: Node) -> None:
        """Append ``node``, which the queue now owns, and compress."""
        self._armed = None
        if self._frames:
            self._disengage()
        self._push(node)
        self.compress_tail()

    def _foldable(self, nodes: List[Node]) -> bool:
        if self.fold_collectives:
            return True
        return not any(_contains_collective(n) for n in nodes)

    def compress_tail(self) -> None:
        """Apply coalesce/absorb/fold until no rule fires.

        With a decision table, a state some queue of the run already
        decided takes the recorded firings, each merged in place without
        the rules' gate scans; any other state is decided by the rules,
        and it and every state the firings pass through are recorded."""
        q = self._nodes
        table = self._table
        if table is None:
            while self._fire(q) is not None:
                pass
            return
        states = self._states
        done = table.outcomes.get(states[-1])
        if done is not None:
            table.shared_decisions += 1
            for rule, width, after in done:
                if rule == _COALESCE:
                    self._coalesce()
                elif rule == _ABSORB:
                    self._absorb(width)
                else:
                    self._fold(width)
                del states[len(q):]
                states.append(after)
            return
        table.decisions_made += 1
        seen = [states[-1]]
        fired = []
        while True:
            got = self._fire(q)
            if got is None:
                break
            rule, width = got
            m = len(q)
            if rule == _FOLD:
                shape = table.loop(2, states[m:m + width])
            else:
                shape = table.recount(states[m], q[-1].count)
            after = table.step(states[m - 1], shape)
            del states[m:]
            states.append(after)
            fired.append((rule, width, after))
            seen.append(after)
        for i, state in enumerate(seen):
            table.outcomes.setdefault(state, tuple(fired[i:]))

    def _fire(self, q: List[Node]) -> Optional[tuple]:
        """Apply the first rule that fires on the tail and return
        ``(rule, width)``, or None when none fires."""
        return (self._try_coalesce(q) or self._try_absorb(q)
                or self._try_fold(q))

    # -- replay cursor -------------------------------------------------------
    def _try_engage(self) -> None:
        """Arm the replay cursor when the queue tail is a loop; it
        engages if the next event starts the loop's body."""
        q = self._nodes
        if q and isinstance(q[-1], LoopNode):
            self._armed = q[-1]

    def _engage(self, key: tuple) -> List[_Frame]:
        """Engage on the armed loop when the incoming event (match
        ``key``) starts its body and the loop's plan
        (:meth:`_cursor_plan`) holds at its current count."""
        loop = self._armed
        self._armed = None
        first = loop.body[0]
        while isinstance(first, LoopNode):
            first = first.body[0]
        if _event_key(first) != key:
            return self._frames
        tree = self._verdict(loop)
        if tree is not None:
            self._frames = [_Frame(loop, tree, build=False)]
            self._cursor_advance()
        return self._frames

    def _verdict(self, loop: LoopNode) -> Optional[tuple]:
        """The key tree the cursor replays the tail ``loop`` with at its
        current count, or None when it must not: the table's verdict for
        the queue's state, else this queue's plan (made once per tail
        loop and position) checked at the count."""
        table = self._table
        if table is not None:
            state = self._states[-1]
            tree = table.plans.get(state, _UNSEEN)
            if tree is not _UNSEEN:
                table.shared_plans += 1
                return tree
            table.plans_made += 1
        where = (len(self._nodes), self._prefix[-2])
        memo = self._plan
        if memo is None or memo[0] is not loop or memo[1] != where:
            memo = self._plan = (loop, where, self._cursor_plan(loop))
        plan = memo[2]
        tree = (plan[1] if plan is not None
                and not _hits(plan[0], self._prefix[-1]) else None)
        if table is not None:
            table.plans[state] = tree
        return tree

    def _cursor_plan(self, loop: LoopNode):
        """``(bad, tree)`` for replaying ``loop`` at the queue tail, or
        None when the cursor must not replay it.

        ``tree`` is ``(keys, subs)``: the loop body's event match keys
        (None at inner loops) and each inner loop's tree by body position;
        it reads nothing but call-site structure, so any queue can replay
        with it.  ``bad`` holds pairs ``(a, b)``: where ``a * x == b`` (mod
        ``FP_MOD``) for the prefix hash ``x`` through the loop, some rule
        might fire early on a queue state the cursor skips.

        The skipped states are walked on fingerprints alone: an
        event appends its node's fingerprint; an inner loop's second
        iteration must fold with its first, and each later one be
        absorbed into the folded copy; the last event must let the tail
        loop absorb the iteration.  At each state every rule's gate is
        scanned in the order ``compress_tail`` tries them, and the first
        that may pass must be the expected one (or none, when nothing is
        expected).  A gate's window hash is linear in the prefix hash
        through the loop, the only input that moves with the loop's
        count: a gate that cannot pass at all is skipped, one that
        passes at any count declines the plan, and one that passes at
        one value of ``x`` adds its equation to ``bad``.  Conservative
        in the safe direction: a gate only bounds a rule from above, so
        a decline merely leaves the events to the rule-at-a-time path.
        """
        ranks = self.ranks
        mw = self.max_window

        def eligible(lp: LoopNode, inner: bool) -> Optional[tuple]:
            body = lp.body
            if lp.ranks != ranks or not body or len(body) > mw \
                    or (inner and lp.count < 2):
                return None
            row = []
            subs = {}
            for k, e in enumerate(body):
                if isinstance(e, LoopNode):
                    sub = subs[k] = eligible(e, True)
                    if sub is None:
                        return None
                    row.append(None)
                    continue
                if e.ranks != ranks or e.sample_count() == 0:
                    return None
                for fld in (e.peer, e.size, e.tag, e.root):
                    if fld is not None and (fld.seq is None
                                            or fld.seq.length == 0):
                        return None
                row.append(_event_key(e))
            return row, subs

        tree = eligible(loop, False)
        if tree is None or not self._foldable(loop.body):
            return None

        q = self._nodes
        n0 = len(q)              # the loop is nodes[n0 - 1]
        pref = self._prefix
        M = FP_MOD
        lo = max(0, n0 - 1 - mw)   # no rule reaches further back

        def shape(node):
            if isinstance(node, LoopNode):
                return (len(node.body), node.body_fp, node.body[-1].fp)
            return None

        # The model queue from position ``lo`` on: loop positions with
        # their shapes ``(width, body_fp, last body fp)``, positions by
        # fingerprint (both ascending; the loop's own fingerprint moves
        # with its count and is left out), and for the skipped tail after
        # the loop its fingerprints, shapes and rolling hash.
        loops = [(i, shape(q[i])) for i in range(lo, n0)
                 if isinstance(q[i], LoopNode)]
        loop_shape = loops[-1][1]   # the tail loop is the last loop
        where: Dict[int, List[int]] = {}
        fps: list = []
        shapes: list = []
        tail_h = [0]
        bad = set()

        def push(fp, shp):
            pos = n0 + len(fps)
            fps.append(fp)
            shapes.append(shp)
            if shp is not None:
                loops.append((pos, shp))
            at = where.get(fp)
            if at is None:
                at = where[fp] = [i for i in range(lo, n0 - 1)
                                  if q[i].fp == fp]
            at.append(pos)
            tail_h.append((tail_h[-1] * FP_BASE + fp) % M)

        def replace(width, lp, count):
            for _ in range(width):
                where[fps.pop()].pop()
                if shapes.pop() is not None:
                    loops.pop()
                tail_h.pop()
            push(loop_fp(count, ranks, len(lp.body), lp.body_fp), shape(lp))

        def window(a, b):
            # hash of positions [a, b) as (c, d): c * x + d, x the prefix
            # hash through the loop (c == 0 when the window misses it)
            p = _fp_pow(b - a)
            if b < n0:
                return 0, (pref[b] - pref[a] * p) % M
            yb = tail_h[b - n0]
            if a >= n0:
                return 0, (yb - tail_h[a - n0] * p) % M
            return _fp_pow(b - n0), (yb - pref[a] * p) % M

        def verdict(lhs, rhs):
            """None: never equal; True: equal at any x; else ``(a, b)``:
            equal where a * x == b."""
            da = (lhs[0] - rhs[0]) % M
            db = (rhs[1] - lhs[1]) % M
            if da == 0:
                return True if db == 0 else None
            return da, db

        def settle(kind=None, width=0) -> bool:
            """Scan the gates of the current state; True when the first
            gate that may pass is rule ``kind`` at ``width`` (None: no
            gate may pass)."""
            t = len(fps)
            n = n0 + t
            last = fps[-1]
            b = shapes[-1]
            if b is not None:
                a = shapes[-2] if t > 1 else loop_shape
                if a is not None and a[1] == b[1]:
                    return False   # coalesce might fire
            # absorb, by width: a loop whose body would end at the tail
            for p, shp in reversed(loops):
                w = n - 1 - p
                if w > mw:
                    break
                if w == 0 or shp[0] != w or shp[2] != last:
                    continue
                v = verdict(window(n - w, n), (0, shp[1]))
                if kind == "absorb" and w == width:
                    return v is True
                if v is True:
                    return False
                if v is not None:
                    bad.add(v)
            if kind == "absorb":
                return False
            # fold, by width: the node w back must match the tail node
            limit = min(mw, n // 2, width or mw)
            for j in reversed(where[last]):
                w = n - 1 - j
                if w > limit:
                    break
                if w == 0:
                    continue
                v = verdict(window(n - 2 * w, n - w), window(n - w, n))
                if kind == "fold" and w == width:
                    return v is True
                if v is True:
                    return False
                if v is not None:
                    bad.add(v)
            if n - n0 <= limit:
                # the node w back is the loop: its fingerprint must be
                # the tail node's
                bad.add((1, (last + pref[n0 - 1] * FP_BASE) % M))
            return kind is None

        def replay(nodes) -> bool:
            for i, node in enumerate(nodes):
                if i and not settle():
                    return False
                if isinstance(node, EventNode):
                    push(node.fp, None)
                    continue
                w = len(node.body)
                if not (replay(node.body) and settle()
                        and replay(node.body) and settle("fold", w)):
                    return False
                replace(2 * w, node, 2)
                for count in range(3, node.count + 1):
                    if not (settle() and replay(node.body)
                            and settle("absorb", w)):
                        return False
                    replace(w + 1, node, count)
            return True

        if not (replay(loop.body) and settle("absorb", len(loop.body))):
            return None
        return bad, tree

    def _cursor_advance(self) -> None:
        """Settle the frames after an event filled a body position:
        finish every completed iteration (an inner loop's second is
        folded with its first and later ones absorbed into the fold, as
        the rules would), then step into any inner loop that comes next."""
        frames = self._frames
        while True:
            f = frames[-1]
            k = len(f.items)
            if k < f.width:
                node = f.spec.body[k]
                if isinstance(node, EventNode):
                    return
                frames.append(_Frame(node, f.subs[k], build=True))
                continue
            if len(frames) == 1:
                self._cursor_absorb()
                return
            w = f.width
            if f.build:
                f.first = f.items
                f.build = False
            elif f.acc is None:
                _merge_items(f.first, f.items)
                f.acc = LoopNode(2, f.first, self.ranks)
                obs.count("scalatrace.nodes_folded", 2 * w - 1)
            else:
                _merge_items(f.acc.body, f.items)
                f.acc.bump_count(1)
                obs.count("scalatrace.nodes_folded", w)
            f.items = []
            if f.acc is not None and f.acc.count == f.spec.count:
                frames.pop()
                frames[-1].items.append(f.acc)

    def _cursor_absorb(self) -> None:
        """Absorb one fully replayed iteration into the tail loop — what
        ``_try_absorb`` does on the iteration's last event — then let the
        rules run on the new count and re-arm."""
        root = self._frames[0]
        loop = root.spec
        _merge_items(loop.body, root.items)
        root.items = []
        loop.bump_count(1)
        pref = self._prefix
        pref[-1] = (pref[-2] * FP_BASE + loop.fp) % FP_MOD
        states = self._states
        if states is not None:
            states[-1] = self._table.step(
                states[-2], self._table.recount(states[-1], loop.count))
        obs.count("scalatrace.nodes_folded", root.width)
        q = self._nodes
        nq = len(q)
        self.compress_tail()
        if len(q) == nq and q[-1] is loop and self._verdict(loop) is not None:
            self._cursor_advance()   # step into a leading inner loop
        else:
            self._frames = []
            self._try_engage()

    def _disengage(self) -> None:
        """Disengage the cursor, materialising what it holds as the nodes
        the rule-at-a-time path would hold (the plan guarantees the rules
        are quiescent on that state)."""
        frames = self._frames
        self._frames = []
        nodes: List[Node] = []
        for f in frames:
            if f.acc is not None:
                nodes.append(f.acc)
            elif f.first is not None:
                nodes.extend(f.first)
            for k, item in enumerate(f.items):
                if type(item) is tuple:
                    key = f.specs[k]
                    item = self._make_event(key[0], key[1], key[2], item[0],
                                            item[1], item[2], item[3],
                                            key[3], item[4])
                nodes.append(item)
        for node in nodes:
            self._push(node)

    # -- rules --------------------------------------------------------------
    #
    # Each rule gates on a fingerprint first, confirms with
    # :func:`nodes_match`, then merges in place.  A rule that fires
    # returns ``(rule, width)``; its in-place merge is also what a
    # decision table's recorded firings apply.

    def _coalesce(self) -> None:
        a, b = self._nodes[-2], self._nodes[-1]
        _extend_nodes(a.body, b.body)
        a.bump_count(b.count)
        self._drop_tail_keep(1)
        obs.count("scalatrace.nodes_folded", 1)

    def _absorb(self, w: int) -> None:
        q = self._nodes
        prev = q[-w - 1]
        _extend_nodes(prev.body, q[-w:])
        prev.bump_count(1)
        self._drop_tail_keep(w)
        obs.count("scalatrace.nodes_folded", w)

    def _fold(self, w: int) -> None:
        q = self._nodes
        first = q[-2 * w:-w]
        _extend_nodes(first, q[-w:])
        self._replace_tail(2 * w, LoopNode(2, first, _union_ranks(first)))
        obs.count("scalatrace.nodes_folded", 2 * w - 1)

    def _try_coalesce(self, q: List[Node]) -> Optional[tuple]:
        if len(q) < 2:
            return None
        a, b = q[-2], q[-1]
        if not (isinstance(a, LoopNode) and isinstance(b, LoopNode)):
            return None
        # fingerprint gate: matching bodies share a body_fp (counts may
        # differ, so whole-node fps cannot be compared here)
        if a.body_fp != b.body_fp:
            return None
        if a.ranks != b.ranks or len(a.body) != len(b.body) \
                or not all(map(nodes_match, a.body, b.body)):
            return None
        self._coalesce()
        return _COALESCE, 1

    def _try_absorb(self, q: List[Node]) -> Optional[tuple]:
        n = len(q)
        pref = self._prefix
        pows = _FP_POWS
        last = q[-1].fp
        for w in range(1, min(self.max_window, n - 1) + 1):
            prev = q[-w - 1]
            if not isinstance(prev, LoopNode) or len(prev.body) != w:
                continue
            # fingerprint gates: the body's last node must match the tail
            # node, then its body hash the tail window's
            if prev.body[-1].fp != last or prev.body_fp != \
                    (pref[n] - pref[n - w] * pows[w]) % FP_MOD:
                continue
            tail = q[-w:]
            if all(map(nodes_match, prev.body, tail)) \
                    and self._foldable(tail):
                self._absorb(w)
                return _ABSORB, w
        return None

    def _try_fold(self, q: List[Node]) -> Optional[tuple]:
        n = len(q)
        pref = self._prefix
        pows = _FP_POWS
        top = pref[n]
        last = q[-1].fp if q else 0
        for w in range(1, min(self.max_window, n // 2) + 1):
            # fingerprint gates: the windows' last nodes must match, then
            # the windows' hashes
            if q[n - 1 - w].fp != last:
                continue
            mid = pref[n - w]
            pw = pows[w]
            if (mid - pref[n - 2 * w] * pw) % FP_MOD != \
                    (top - mid * pw) % FP_MOD:
                continue
            second = q[-w:]
            if all(map(nodes_match, q[-2 * w:-w], second)) \
                    and self._foldable(second):
                self._fold(w)
                return _FOLD, w
        return None


def _union_ranks(nodes: List[Node]) -> RankSet:
    ranks = nodes[0].ranks
    for node in nodes[1:]:
        ranks = ranks | node.ranks
    return ranks


def compress_node_list(nodes: List[Node]) -> List[Node]:
    """Recompress a (possibly multi-rank) node sequence.

    Used after inter-rank merging to fold structures that only became
    foldable once rank sets were unified — the final step of Algorithm 1's
    output-queue compression (§4.3: "we apply ScalaTrace's loop
    compression algorithm to the output RSD queue").  ``nodes`` are left
    as they are.
    """
    with obs.span("scalatrace.compress", nodes=len(nodes)):
        return _recompress(nodes)


def _recompress(nodes: List[Node]) -> List[Node]:
    """:func:`compress_node_list` without the span.  Each loop is rebuilt
    around its recompressed body, a node no one else holds, so the queue
    takes it as it is; each event is appended as a copy."""
    queue = CompressionQueue(rank=0)
    for node in nodes:
        if isinstance(node, LoopNode):
            queue._append(LoopNode(node.count, _recompress(node.body),
                                   node.ranks))
        else:
            queue.append_node(node)
    return queue.nodes
