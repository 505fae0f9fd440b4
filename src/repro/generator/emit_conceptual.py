"""Trace → coNCePTuaL AST emission.

This is the language-specific code generator plugged into the traversal
framework (§4.1).  It maps:

* ``LoopNode``  → ``FOR n REPETITIONS { ... }``, or ``FOR EACH rep IN
  {0, ..., n-1}`` when some parameter varies with that loop's iteration
  (the paper's "IF statement conditioned on a loop variable");
* computation time preceding an event → ``COMPUTE FOR x MICROSECONDS``
  (the histogram mean — ScalaTrace's timing summarization);
* point-to-point RSDs → ``SEND ... TO UNSUSPECTING TASK`` / ``RECEIVE``
  statements (asynchronous for Isend/Irecv), with peers expressed in
  absolute ranks as closed forms (``(t + 1) MOD num_tasks``, ``t - 2``),
  falling back to per-task-group statements for irregular patterns;
* wait RSDs → ``AWAIT COMPLETION``;
* collective RSDs → Table 1 substitutions (:mod:`repro.generator.mapping`).

The emitter produces an AST, never raw text; the printer renders it and
the parser can re-read it, so generated programs are grammatical by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, Expr, ForEach, ForRep,
                                        IfStmt, IsIn, LogStmt, Num, Program,
                                        RecvStmt, ResetStmt, SendStmt,
                                        SingleTask, Stmt, SuchThat,
                                        TaskSelector, Var)
from repro.errors import GenerationError
from repro import obs
from repro.generator.absolutize import absolutize_rank_field
from repro.generator.mapping import map_collective
from repro.mpi.hooks import COLLECTIVE_OPS, P2P_OPS, WAIT_OPS
from repro.scalatrace.rsd import EventNode, LoopNode, ParamField, Trace
from repro.util.expr import ANY_SOURCE, ParamExpr
from repro.util.rankset import RankSet
from repro.util.valueseq import ValueSeq

TASK_VAR = "t"

#: computation deltas shorter than this (seconds) are dropped as noise —
#: they are interposition overhead, not application compute phases
MIN_COMPUTE_MEAN = 5e-8


def rank_predicate(ranks: RankSet, var: str,
                   world: int) -> Optional[Expr]:
    """A coNCePTuaL predicate over ``var`` that holds for exactly the
    tasks in ``ranks`` out of ``world``, or None when that is every task
    (the caller says ALL TASKS).  The most readable form that fits:
    ``t = 3``, ``t <= 3``, ``t >= 2 /\\ t <= 9``, ``t MOD 4 = 0`` with
    the bounds it needs, else ``t IS IN {1, 5, 11}``."""
    if len(ranks) == world:
        return None
    task = Var(var)
    if len(ranks) == 1:
        return BinOp("=", task, Num(ranks.min()))
    runs = ranks.runs
    if len(runs) != 1:
        return IsIn(task, tuple(Num(r) for r in ranks))
    start, stop, stride = runs[0]
    clauses: List[Expr] = []
    if stride != 1:
        clauses.append(BinOp("=", BinOp("MOD", task, Num(stride)),
                             Num(start % stride)))
    if start > 0:
        clauses.append(BinOp(">=", task, Num(start)))
    if stop < world - 1:
        clauses.append(BinOp("<=", task, Num(stop)))
    if not clauses:
        return None
    pred = clauses[0]
    for clause in clauses[1:]:
        pred = BinOp("/\\", pred, clause)
    return pred


class _LoopCtx:
    """One level of the enclosing-loop chain during emission."""

    __slots__ = ("var", "count", "parent", "used")

    def __init__(self, var: str, count: int, parent: Optional["_LoopCtx"]):
        self.var = var
        self.count = count
        self.parent = parent
        self.used = False

    def chain(self) -> List["_LoopCtx"]:
        """Outer → inner chain ending at self."""
        out = []
        ctx = self
        while ctx is not None:
            out.append(ctx)
            ctx = ctx.parent
        return list(reversed(out))


def _attribute_variation(values: List, chain: List[_LoopCtx]):
    """Find the loop level that explains a per-instance value sequence.

    ``values`` has one entry per concrete instance (flattened over the
    loop chain, innermost index fastest).  Returns ``(ctx, period)`` where
    the value depends only on ``ctx``'s iteration index and ``period`` is
    the per-iteration value list — or None when no single level explains
    the variation.  Inner levels are preferred (tighter conditions).
    """
    total = 1
    for ctx in chain:
        total *= ctx.count
    if len(values) != total:
        return None
    inner = 1
    for j in range(len(chain) - 1, -1, -1):
        ctx = chain[j]
        period: List = [None] * ctx.count
        ok = True
        for idx, v in enumerate(values):
            i_j = (idx // inner) % ctx.count
            if period[i_j] is None:
                period[i_j] = v
            elif period[i_j] != v:
                ok = False
                break
        if ok:
            return ctx, period
        inner *= ctx.count
    return None


def _flat_index(chain: List[_LoopCtx]) -> Expr:
    """The flattened iteration index over a loop chain (innermost index
    fastest), e.g. ``rep0 * 2 + rep1``; marks every level as used."""
    for c in chain:
        c.used = True
    index: Expr = Var(chain[0].var)
    for c in chain[1:]:
        index = BinOp("+", BinOp("*", index, Num(c.count)), Var(c.var))
    return index


def _segmented(index: Expr, values: List, emit) -> List[Stmt]:
    """One statement group per run of equal ``values`` (one value per
    iteration of ``index``): ``emit(value)`` guarded by a range test on
    ``index``, unless the run spans every iteration."""
    last = len(values) - 1
    out: List[Stmt] = []
    a = 0
    for b, v in enumerate(values):
        if b < last and values[b + 1] == v:
            continue
        stmts = emit(v)
        if a == 0 and b == last:
            out.extend(stmts)
        else:
            if a == b:
                cond: Expr = BinOp("=", index, Num(a))
            elif a == 0:
                cond = BinOp("<=", index, Num(b))
            elif b == last:
                cond = BinOp(">=", index, Num(a))
            else:
                cond = BinOp("/\\", BinOp(">=", index, Num(a)),
                             BinOp("<=", index, Num(b)))
            out.append(IfStmt(cond, stmts))
        a = b + 1
    return out


def _field(v) -> Optional[ParamField]:
    """A segment value as a field: raw per-iteration values become
    constant fields; fields and None pass through."""
    if v is None or isinstance(v, ParamField):
        return v
    return ParamField.of(v)


class ConceptualEmitter:
    """Emit a coNCePTuaL program AST from an aligned trace (unresolved
    wildcards remain representable as FROM ANY TASK)."""

    def __init__(self, trace: Trace, include_timing: bool = True,
                 label: str = "Total time (us)",
                 split_first_rest: bool = True):
        self.trace = trace
        self.world = trace.world_size
        self.include_timing = include_timing
        #: emit separate first-iteration COMPUTE conditionals (§3.1);
        #: False collapses to one aggregate mean per call site — the
        #: ablation knob for §4.5's timing-summarization error source
        self.split_first_rest = split_first_rest
        self.label = label
        self._loop_counter = 0

    # -- top level ---------------------------------------------------------
    def generate(self) -> Program:
        with obs.span("generator.emit"):
            body = self._emit_nodes(self.trace.nodes, None)
            stmts: List[Stmt] = [ResetStmt(AllTasks())]
            stmts.extend(body)
            stmts.append(LogStmt(AllTasks(), "FINAL", "elapsed_usecs",
                                 self.label))
            obs.count("generator.statements_emitted", len(stmts))
            return Program(stmts)

    def _emit_nodes(self, nodes, ctx: Optional[_LoopCtx]) -> List[Stmt]:
        out: List[Stmt] = []
        for node in nodes:
            if isinstance(node, LoopNode):
                out.append(self._emit_loop(node, ctx))
            else:
                out.extend(self._emit_event(node, ctx))
        return out

    def _emit_loop(self, node: LoopNode, parent: Optional[_LoopCtx]) -> Stmt:
        var = f"rep{self._loop_counter}"
        self._loop_counter += 1
        ctx = _LoopCtx(var, node.count, parent)
        body = self._emit_nodes(node.body, ctx)
        if ctx.used:
            return ForEach(var, Num(0), Num(node.count - 1), body)
        return ForRep(Num(node.count), body)

    # -- events ------------------------------------------------------------------
    def _emit_event(self, node: EventNode,
                    ctx: Optional[_LoopCtx]) -> List[Stmt]:
        if node.instances != 1:
            raise GenerationError(
                f"unexpected multi-instance event node {node!r}")
        stmts: List[Stmt] = []
        if self.include_timing:
            stmts.extend(self._emit_compute(node, ctx))
        op = node.op
        if op in WAIT_OPS:
            stmts.append(AwaitStmt(self._selector(node.ranks)))
        elif op in P2P_OPS:
            stmts.extend(self._emit_p2p(node, ctx))
        elif op in COLLECTIVE_OPS:
            stmts.extend(self._emit_collective(node, ctx))
        else:
            raise GenerationError(f"cannot emit op {op!r}")
        return stmts

    # -- computation -----------------------------------------------------------
    def _emit_compute(self, node: EventNode,
                      ctx: Optional[_LoopCtx]) -> List[Stmt]:
        """COMPUTE statements for the deltas preceding this event.

        When the first-iteration delta differs materially from the
        subsequent-iteration mean (ScalaTrace's path-aware timing, §3.1),
        the split is preserved with a conditional on the innermost loop
        variable; otherwise a single mean suffices.
        """
        first, rest = node.time_first, node.time_rest
        sel = self._selector(node.ranks)

        def compute(mean):
            return ComputeStmt(sel, Num(round(mean * 1e6, 3)))

        if rest.count == 0 or ctx is None or not self.split_first_rest:
            total = first.total + rest.total
            count = first.count + rest.count
            mean = total / count if count else 0.0
            return [compute(mean)] if mean > MIN_COMPUTE_MEAN else []
        fm = first.mean if first.count else 0.0
        rm = rest.mean
        if first.count and abs(fm - rm) > max(0.25 * max(fm, rm), 1e-6):
            ctx.used = True
            var = Var(ctx.var)
            if fm <= MIN_COMPUTE_MEAN:
                return [IfStmt(BinOp(">=", var, Num(1)), [compute(rm)])] \
                    if rm > MIN_COMPUTE_MEAN else []
            if rm <= MIN_COMPUTE_MEAN:
                return [IfStmt(BinOp("=", var, Num(0)), [compute(fm)])]
            return [IfStmt(BinOp("=", var, Num(0)), [compute(fm)],
                           [compute(rm)])]
        total = first.total + rest.total
        mean = total / (first.count + rest.count)
        return [compute(mean)] if mean > MIN_COMPUTE_MEAN else []

    # -- selectors ---------------------------------------------------------------
    def _selector(self, ranks: RankSet,
                  need_var: bool = False) -> TaskSelector:
        if len(ranks) == self.world:
            return AllTasks(TASK_VAR) if need_var else AllTasks()
        if len(ranks) == 1 and not need_var:
            return SingleTask(Num(ranks.min()))
        pred = rank_predicate(ranks, TASK_VAR, self.world)
        if pred is None:
            return AllTasks(TASK_VAR) if need_var else AllTasks()
        return SuchThat(TASK_VAR, pred)

    # -- expression rendering ------------------------------------------------------
    def _rank_expr_ast(self, expr: ParamExpr) -> Optional[Expr]:
        if expr.kind == "const":
            if expr.delta == ANY_SOURCE:
                return None  # wildcard: handled by the caller
            return Num(expr.delta)
        if expr.kind == "rel":
            base: Expr = Var(TASK_VAR)
            if expr.delta > 0:
                base = BinOp("+", base, Num(expr.delta))
            elif expr.delta < 0:
                base = BinOp("-", base, Num(-expr.delta))
            if expr.mod is not None:
                mod: Expr = (Var("num_tasks") if expr.mod == self.world
                             else Num(expr.mod))
                return BinOp("MOD", base, mod)
            return base
        return None  # table: needs grouping

    # -- point-to-point ---------------------------------------------------------------
    def _emit_p2p(self, node: EventNode,
                  ctx: Optional[_LoopCtx]) -> List[Stmt]:
        comm_ranks = self.trace.comm_ranks(node.comm_id)
        peer = absolutize_rank_field(node.peer, list(node.ranks),
                                     comm_ranks, self.world)
        return self._emit_p2p_ranks(node, ctx, node.ranks, peer,
                                    node.size, node.tag)

    def _emit_p2p_ranks(self, node, ctx, ranks: RankSet,
                        peer: Optional[ParamField],
                        size: Optional[ParamField],
                        tag: Optional[ParamField]) -> List[Stmt]:
        # 1. rank_map fields: split ranks into groups sharing a sequence
        fields = {"peer": peer, "size": size, "tag": tag}
        if any(f is not None and f.rank_map is not None
               for f in fields.values()):
            groups: Dict[tuple, List[int]] = {}
            for r in ranks:
                key = tuple(
                    None if f is None else
                    (("m",) + tuple(f.rank_map[r].runs)
                     if f.rank_map is not None else ("s",))
                    for f in fields.values())
                groups.setdefault(key, []).append(r)
            out: List[Stmt] = []
            for key in sorted(groups, key=lambda k: groups[k][0]):
                grp = RankSet(groups[key])
                sub = {}
                for name, f in fields.items():
                    if f is None:
                        sub[name] = None
                    elif f.rank_map is not None:
                        sub[name] = ParamField(
                            seq=f.rank_map[grp.min()])
                    else:
                        sub[name] = f
                out.extend(self._emit_p2p_ranks(
                    node, ctx, grp, sub["peer"], sub["size"], sub["tag"]))
            return out
        # 2. per-iteration variation → loop-variable conditionals
        varying = {name: f for name, f in fields.items()
                   if f is not None and f.seq is not None
                   and not f.seq.is_constant()}
        if varying:
            return self._emit_p2p_segments(node, ctx, ranks, peer, size,
                                           tag, varying)
        # 3. irregular per-rank constants → delta/value grouping
        return self._emit_p2p_groups(node, ranks, peer, size, tag)

    def _emit_p2p_segments(self, node, ctx, ranks, peer, size, tag,
                           varying) -> List[Stmt]:
        """Per-iteration variation → conditionals on loop variables.

        Fields varying with *different* enclosing loops (e.g. MG's peer
        changing every message but its size changing per level) nest:
        the outermost involved loop is segmented here and the remainder
        recurses through :meth:`_emit_p2p_ranks`.
        """
        if ctx is None:
            raise GenerationError(
                f"{node!r}: iteration-varying parameters outside a loop")
        chain = ctx.chain()
        attributed: Dict[str, Tuple[_LoopCtx, List]] = {}
        for name, field in varying.items():
            res = _attribute_variation(list(field.seq), chain)
            if res is None:
                # no single loop explains the variation (e.g. wildcard
                # sources resolved in wavefront-arrival order): fall back
                # to conditions on the flattened iteration index
                return self._emit_p2p_flat(node, ctx, ranks, peer, size,
                                           tag, varying)
            attributed[name] = res
        # segment the outermost involved loop first
        target_ctx = min((actx for actx, _ in attributed.values()),
                         key=lambda c: chain.index(c))
        target_ctx.used = True

        def value_at(name, field, k):
            """Field value (or residual ParamField) in outer iteration k."""
            if field is None:
                return None
            if name in attributed and attributed[name][0] is target_ctx:
                return attributed[name][1][k]
            return field  # constant, rank expression, or inner-varying

        values = [(value_at("peer", peer, k), value_at("size", size, k),
                   value_at("tag", tag, k))
                  for k in range(target_ctx.count)]
        # recurse: remaining (inner-loop) variation nests inside
        return _segmented(
            Var(target_ctx.var), values,
            lambda v: self._emit_p2p_ranks(node, ctx, ranks,
                                           *map(_field, v)))

    def _emit_p2p_flat(self, node, ctx, ranks, peer, size, tag,
                       varying) -> List[Stmt]:
        """Last-resort lossless emission: conditions on the flattened
        instance index across all enclosing loops.  Verbose but exact —
        used when per-instance values follow no loop-aligned pattern."""
        chain = ctx.chain()
        index = _flat_index(chain)
        total = 1
        for c in chain:
            total *= c.count
        for name, field in varying.items():
            if len(field.seq) != total:
                raise GenerationError(
                    f"{node!r}: parameter {name} has {len(field.seq)} "
                    f"instances but the loop nest runs {total} iterations")

        def value_at(field, k):
            if field is None:
                return None
            if field.seq is not None:
                return self._seq_value(field.seq, k)
            return field

        values = [(value_at(peer, k), value_at(size, k), value_at(tag, k))
                  for k in range(total)]
        return _segmented(
            index, values,
            lambda v: self._emit_p2p_groups(node, ranks, *map(_field, v)))

    @staticmethod
    def _seq_value(seq: ValueSeq, k: int):
        return seq.value if seq.is_constant() else seq[k]

    def _emit_p2p_groups(self, node, ranks: RankSet,
                         peer: Optional[ParamField],
                         size: Optional[ParamField],
                         tag: Optional[ParamField]) -> List[Stmt]:
        """Split an irregular per-rank table into statements whose peers
        are closed forms.  Peers group by *delta* (peer - rank), which
        turns e.g. a torus row wrap into two statements (``t + 1`` for the
        interior, ``t - 2`` at the edge) instead of one per rank."""
        def table_of(field):
            return (field is not None and field.expr is not None
                    and field.expr.kind == "table")

        if not any(table_of(f) for f in (peer, size, tag)):
            return [self._p2p_statement(node, ranks, peer, size, tag)]
        groups: Dict[tuple, List[int]] = {}
        for r in ranks:
            key = []
            for name, f in (("peer", peer), ("size", size), ("tag", tag)):
                if f is None:
                    key.append(None)
                elif table_of(f):
                    v = f.expr.evaluate(r)
                    if name == "peer" and isinstance(v, int) \
                            and v != ANY_SOURCE:
                        key.append(("delta", v - r))
                    else:
                        key.append(("value", v))
                else:
                    key.append(("shared",))
            groups.setdefault(tuple(key), []).append(r)
        out = []
        for key in sorted(groups, key=lambda k: groups[k][0]):
            grp = RankSet(groups[key])
            sub = []
            for (name, f), part in zip(
                    (("peer", peer), ("size", size), ("tag", tag)), key):
                if part is None:
                    sub.append(None)
                elif part == ("shared",):
                    sub.append(f)
                elif part[0] == "delta":
                    sub.append(ParamField(expr=ParamExpr.rel(part[1])))
                else:
                    sub.append(ParamField.of(part[1]))
            out.append(self._p2p_statement(node, grp, *sub))
        return out

    def _p2p_statement(self, node: EventNode, ranks: RankSet,
                       peer: Optional[ParamField],
                       size: Optional[ParamField],
                       tag: Optional[ParamField]) -> Stmt:
        tag_value = 0
        if tag is not None:
            tag_value = int(tag.constant_value())
        if size is not None:
            sv = size.constant_value()
            size_expr = Num(int(sv if not isinstance(sv, tuple)
                                else sum(sv)))
        else:
            size_expr = Num(0)

        is_wildcard = False
        peer_ast: Optional[Expr] = None
        need_var = False
        if peer is not None:
            if peer.is_constant() and peer.constant_value() == ANY_SOURCE:
                is_wildcard = True
            elif peer.seq is not None:
                peer_ast = Num(int(peer.seq.value))
            else:
                peer_ast = self._rank_expr_ast(peer.expr)
                if peer_ast is None:
                    raise GenerationError(
                        f"{node!r}: unrenderable peer expression")
                need_var = not peer.expr.is_constant()
        if len(ranks) == 1 and need_var:
            peer_ast = Num(peer.expr.evaluate(ranks.min()))
            need_var = False
        sel = self._selector(ranks, need_var=need_var)
        if node.op in ("Send", "Isend"):
            if peer_ast is None:
                raise GenerationError(f"{node!r}: send without destination")
            return SendStmt(sel, size_expr, peer_ast, Num(1),
                            is_async=(node.op == "Isend"),
                            unsuspecting=True, tag=tag_value)
        source = None if is_wildcard else peer_ast
        return RecvStmt(sel, size_expr, source, Num(1),
                        is_async=(node.op == "Irecv"), tag=tag_value)

    # -- collectives -------------------------------------------------------------------
    @staticmethod
    def _collective_size_value(f, ranks, k=None):
        """Per-instance collective payload; per-rank variation (Gatherv
        contributions) is averaged exactly as Table 1 prescribes."""
        if f is None:
            return 0
        if f.seq is not None:
            return f.seq.value if f.seq.is_constant() else f.seq[k]
        if f.expr is not None:
            if f.expr.is_constant():
                return f.expr.constant_value()
            values = [f.expr.evaluate(r) for r in ranks]
            return sum(values) // len(values)
        totals = []
        for r in ranks:
            s = f.rank_map[r]
            totals.append(s.total() // max(len(s), 1))
        return sum(totals) // len(totals)

    def _emit_collective(self, node: EventNode,
                         ctx: Optional[_LoopCtx]) -> List[Stmt]:
        members = self.trace.comm_ranks(node.comm_id)
        if set(node.ranks) != set(members) and node.op != "Finalize":
            raise GenerationError(
                f"{node!r} covers ranks {node.ranks.serialize()} but its "
                f"communicator has members {members}; run collective "
                f"alignment (Algorithm 1) before emission")
        sel = self._selector(node.ranks)

        def varying_seq(f):
            return (f is not None and f.seq is not None
                    and not f.seq.is_constant())

        if varying_seq(node.size) or varying_seq(node.root):
            return self._emit_collective_segments(node, ctx, sel, members)
        size = self._collective_size_value(node.size, node.ranks)
        root_world = None
        if node.root is not None:
            root_world = members[int(node.root.constant_value())]
        if node.op in ("Comm_split", "Comm_dup"):
            size = 0
        return map_collective(node.op, size, root_world, sel, members)

    def _emit_collective_segments(self, node, ctx, sel, members):
        """Collective whose size and/or root varies per iteration:
        conditionals on the enclosing loop variable (or, failing
        attribution, the flattened iteration index)."""
        if ctx is None:
            raise GenerationError(
                f"{node!r}: iteration-varying collective parameters "
                f"outside a loop")
        lengths = {len(f.seq) for f in (node.size, node.root)
                   if f is not None and f.seq is not None
                   and not f.seq.is_constant()}
        if len(lengths) != 1:
            raise GenerationError(
                f"{node!r}: inconsistent collective parameter lengths")
        total = lengths.pop()

        def value_at(f, k):
            if f is None:
                return None
            if f is node.size:
                return self._collective_size_value(f, node.ranks, k)
            return f.seq.value if f.seq.is_constant() else f.seq[k]

        combined = [(value_at(node.size, k), value_at(node.root, k))
                    for k in range(total)]
        chain = ctx.chain()
        res = _attribute_variation(combined, chain)
        if res is not None:
            target_ctx, values = res
            target_ctx.used = True
            index: Expr = Var(target_ctx.var)
        else:
            # flattened-index fallback (cf. _emit_p2p_flat)
            index, values = _flat_index(chain), combined
        return _segmented(
            index, values,
            lambda v: map_collective(
                node.op, v[0], None if v[1] is None else members[int(v[1])],
                sel, members))
