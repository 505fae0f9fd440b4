"""Compiled coNCePTuaL expressions and task selectors.

:func:`compile_expr` turns an expression into a closure over the run-time
environment (a dict of the bound loop and task variables), folding
literals and, in a program, ``num_tasks``.  It also works out what the
statement compiler needs to specialise a program per rank: which
variables the expression reads (``free``), and whether evaluating it can
raise (``safe``; int arithmetic, comparisons and a constant non-zero
divisor cannot).  Arithmetic faults that can happen raise
:class:`~repro.errors.ConceptualSemanticError` naming the statement's
call site, when (and if) execution reaches them.  :class:`Selector`
compiles a task selector the same way and evaluates it once when it
reads no variable.  :func:`eval_expr` and :func:`select_ranks` are the
public evaluator, compiled for one call.
"""

from __future__ import annotations

import operator
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.conceptual.ast_nodes import (AllTasks, BinOp, Expr, IsIn, Num,
                                        SingleTask, SuchThat, TaskSelector,
                                        Var)
from repro.conceptual.printer import render_expr
from repro.errors import ConceptualSemanticError
from repro.util.callsite import Callsite


class Scope:
    """What an expression may read from the run-time environment.

    ``names`` are the bound variables.  In a program (``typed``) every one
    is an int — a loop counter or a task id — and ``num_tasks`` folds to
    ``nranks`` unless a binding shadows it; equal expressions over the
    same names then share one compiled closure (``memo``).  The public
    evaluator's environments are untyped and fold nothing.
    """

    __slots__ = ("names", "nranks", "typed", "memo")

    def __init__(self, names: FrozenSet[str], nranks: Optional[int],
                 typed: bool, memo: Optional[dict] = None):
        self.names = names
        self.nranks = nranks
        self.typed = typed
        self.memo = memo

    def bind(self, name: Optional[str]) -> "Scope":
        if name is None:
            return self
        return Scope(self.names | {name}, self.nranks, self.typed,
                     self.memo)


class Compiled:
    """A compiled expression: ``fn(env)`` evaluates it.  A folded constant
    has ``const`` set and carries its ``value``; ``free`` names the
    variables it reads; ``safe`` means no evaluation can raise; ``is_int``
    that every value is an int or a bool."""

    __slots__ = ("fn", "free", "safe", "is_int", "const", "value")

    def __init__(self, fn, free=frozenset(), safe=False, is_int=False,
                 const=False, value=None):
        self.fn = fn
        self.free = free
        self.safe = safe
        self.is_int = is_int
        self.const = const
        self.value = value


def _constant(value) -> Compiled:
    return Compiled(lambda env: value, safe=True,
                    is_int=isinstance(value, int), const=True, value=value)


def _divide(left, right):
    return left // right if isinstance(left, int) and \
        isinstance(right, int) else left / right


def _divides(left, right):
    return left != 0 and right % left == 0


_COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _divide, "MOD": operator.mod, "DIVIDES": _divides}


def _compile(expr: Expr, scope: Scope) -> Compiled:
    if scope.memo is None:
        return _node(expr, scope)
    key = (expr, scope.names)
    compiled = scope.memo.get(key)
    if compiled is None:
        compiled = scope.memo[key] = _node(expr, scope)
    return compiled


def _node(expr: Expr, scope: Scope) -> Compiled:
    if isinstance(expr, Num):
        return _constant(expr.value)
    if isinstance(expr, Var):
        name = expr.name
        if name in scope.names:
            return Compiled(itemgetter(name), frozenset((name,)),
                            safe=scope.typed, is_int=scope.typed)
        if name == "num_tasks" and scope.typed:
            return _constant(scope.nranks)

        def unbound(env):
            raise ConceptualSemanticError(
                f"unbound variable {name!r} at run time")
        return Compiled(unbound)
    if isinstance(expr, IsIn):
        return _compile_isin(expr, scope)
    if isinstance(expr, BinOp):
        return _compile_binop(expr, scope)

    def unknown(env):
        raise ConceptualSemanticError(f"cannot evaluate {expr!r}")
    return Compiled(unknown)


def _compile_isin(expr: IsIn, scope: Scope) -> Compiled:
    item = _compile(expr.item, scope)
    members = [_compile(m, scope) for m in expr.members]
    free = item.free.union(*(m.free for m in members))
    safe = item.safe and all(m.safe for m in members)
    if item.const and all(m.const for m in members):
        return _constant(any(m.value == item.value for m in members))
    get, fns = item.fn, [m.fn for m in members]

    def isin(env):
        x = get(env)
        for f in fns:
            if f(env) == x:
                return True
        return False
    return Compiled(isin, free, safe, True)


def _compile_binop(expr: BinOp, scope: Scope) -> Compiled:
    op = expr.op
    left = _compile(expr.left, scope)
    right = _compile(expr.right, scope)
    if op in ("/\\", "\\/"):
        return _compile_logic(op == "\\/", left, right)
    f = _COMPARE.get(op) or _ARITH.get(op)
    if f is None:
        def unknown(env):
            raise ConceptualSemanticError(f"cannot evaluate {expr!r}")
        return Compiled(unknown)
    if left.const and right.const:
        try:
            return _constant(f(left.value, right.value))
        except (ArithmeticError, ValueError):
            pass  # raised if and when execution reaches it
    if op in _COMPARE:
        op_safe = is_int = True
    else:
        # int arithmetic cannot raise and float + - * cannot either;
        # mixing them can overflow, and only a constant non-zero divisor
        # rules out a zero division
        op_safe = left.is_int == right.is_int and (
            op not in ("/", "MOD") or (right.const and right.value != 0))
        is_int = op == "DIVIDES" or (left.is_int and right.is_int)
    lf, rf = left.fn, right.fn
    if left.const:
        lv = left.value
        fn = lambda env: f(lv, rf(env))  # noqa: E731
    elif right.const:
        rv = right.value
        fn = lambda env: f(lf(env), rv)  # noqa: E731
    else:
        fn = lambda env: f(lf(env), rf(env))  # noqa: E731
    return Compiled(fn, left.free | right.free,
                    left.safe and right.safe and op_safe, is_int)


def _compile_logic(is_or: bool, left: Compiled, right: Compiled) -> Compiled:
    rf = right.fn
    if left.const:
        if bool(left.value) == is_or:
            return _constant(is_or)
        if right.const:
            return _constant(bool(right.value))
        return Compiled(lambda env: bool(rf(env)), right.free, right.safe,
                        True)
    lf = left.fn
    if is_or:
        fn = lambda env: bool(lf(env)) or bool(rf(env))  # noqa: E731
    else:
        fn = lambda env: bool(lf(env)) and bool(rf(env))  # noqa: E731
    return Compiled(fn, left.free | right.free, left.safe and right.safe,
                    True)


def compile_expr(expr: Expr, scope: Scope, conv=None,
                 site: Optional[Callsite] = None) -> Compiled:
    """``expr`` compiled for one use in a statement: converted by ``conv``
    (``int`` or ``float``), arithmetic faults raised as
    :class:`ConceptualSemanticError` naming ``site``."""
    key = (expr, scope.names, conv)
    if scope.memo is not None and key in scope.memo:
        return scope.memo[key]
    c = _compile(expr, scope)
    if conv is not None:
        c = _convert(c, conv)
    if c.safe:
        if scope.memo is not None:
            scope.memo[key] = c
        return c
    fn = c.fn

    def guarded(env):
        try:
            return fn(env)
        except (ArithmeticError, ValueError) as exc:
            where = f" at {site.serialize()}" if site is not None else ""
            raise ConceptualSemanticError(
                f"cannot evaluate {render_expr(expr)}{where}: "
                f"{type(exc).__name__}: {exc}") from exc
    return Compiled(guarded, c.free, False, c.is_int)


def _convert(c: Compiled, conv) -> Compiled:
    if c.const:
        try:
            return _constant(conv(c.value))
        except (ArithmeticError, ValueError):
            pass  # raised if and when execution reaches it
    raw = c.fn
    # int() of an int and float() of a float cannot raise
    return Compiled(lambda env: conv(raw(env)), c.free,
                    c.safe and c.is_int == (conv is int), conv is int)


def bind(env, var: Optional[str], rank: int):
    """``env`` with a selector's task variable bound to ``rank`` (``env``
    itself when the selector binds none)."""
    return {**env, var: rank} if var else env


class Selector:
    """A compiled task selector: ``ranks(env)`` lists the matched ranks in
    order, ``var`` is the task variable it binds and ``free`` the
    variables it reads.  A selector that reads no variable is evaluated
    here, once, unless that raises."""

    __slots__ = ("var", "free", "ranks")

    def __init__(self, sel: TaskSelector, scope: Scope,
                 site: Optional[Callsite], n: int):
        self.var = None
        self.free = frozenset()
        if isinstance(sel, AllTasks):
            self.var = sel.var
            every = tuple(range(n))
            self.ranks = lambda env: every
            return
        if isinstance(sel, SingleTask):
            expr = compile_expr(sel.expr, scope, int, site)
            get = expr.fn

            def single(env):
                r = get(env)
                if not 0 <= r < n:
                    raise ConceptualSemanticError(
                        f"TASK {r} out of range (num_tasks={n})")
                return (r,)
            self.free = expr.free
            self.ranks = single
        elif isinstance(sel, SuchThat):
            var = self.var = sel.var
            pred = compile_expr(sel.predicate, scope.bind(var), None, site)
            test = pred.fn
            self.free = pred.free - {var}
            self.ranks = lambda env: tuple(
                [r for r in range(n) if test({**env, var: r})])
        else:
            raise ConceptualSemanticError(f"unknown selector {sel!r}")
        if not self.free:
            try:
                ranks = self.ranks({})
            except ConceptualSemanticError:
                return  # raised on every rank that reaches it
            self.ranks = lambda env: ranks


def eval_expr(expr: Expr, env: Dict[str, float]):
    """Evaluate ``expr`` in ``env`` with the compiled evaluator."""
    return compile_expr(expr, Scope(frozenset(env), None, False)).fn(env)


def select_ranks(sel: TaskSelector, env: Dict[str, float],
                 num_tasks: int) -> List[Tuple[int, Dict[str, float]]]:
    """Ranks matched by a selector, each with the environment extended by
    the selector's task-variable binding."""
    compiled = Selector(sel, Scope(frozenset(env), num_tasks, False),
                        None, num_tasks)
    return [(r, bind(env, compiled.var, r)) for r in compiled.ranks(env)]
