"""Reference interpreter: the tree-walker that
:class:`repro.conceptual.compiler.ConceptualProgram` replaced with its
per-rank specialised form.

Every rank walks the whole statement tree, re-evaluating every expression
and every task selector each time it reaches a statement, exactly as the
compiler did before it compiled statements once per ``(program, nranks)``.
:func:`reference_interp` swaps it in for ``ConceptualProgram.instantiate``,
so any entry point (``ConceptualProgram.run``, the pipeline's run stage, a
sweep) can run against the oracle; there is no production hook.  The
evaluator below is the pre-change one, raw Python arithmetic errors
included, so the differential tests can check that the typed errors wrap
the same exception at the same point of execution.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, Expr, ForEach, ForRep,
                                        IfStmt, IsIn, LogStmt, MulticastStmt,
                                        Num, RecvStmt, ReduceStmt,
                                        ResetStmt, SendStmt, SingleTask,
                                        Stmt, SuchThat, SyncStmt,
                                        TaskSelector, Var)
from repro.conceptual.compiler import ConceptualProgram
from repro.conceptual.runtime import LogDatabase, TaskCounters
from repro.errors import ConceptualSemanticError
from repro.mpi.api import ANY_SOURCE, MPIProcess
from repro.util.callsite import Callsite


# --------------------------------------------------------------- evaluation
def eval_expr(expr: Expr, env: Dict[str, float]):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ConceptualSemanticError(
                f"unbound variable {expr.name!r} at run time") from None
    if isinstance(expr, IsIn):
        item = eval_expr(expr.item, env)
        return any(eval_expr(m, env) == item for m in expr.members)
    if isinstance(expr, BinOp):
        op = expr.op
        if op == "/\\":
            return bool(eval_expr(expr.left, env)) and \
                bool(eval_expr(expr.right, env))
        if op == "\\/":
            return bool(eval_expr(expr.left, env)) or \
                bool(eval_expr(expr.right, env))
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if isinstance(left, int) and \
                isinstance(right, int) else left / right
        if op == "MOD":
            return left % right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "DIVIDES":
            return left != 0 and right % left == 0
    raise ConceptualSemanticError(f"cannot evaluate {expr!r}")


def select_ranks(sel: TaskSelector, env: Dict[str, float],
                 num_tasks: int) -> List[Tuple[int, Dict[str, float]]]:
    """Ranks matched by a selector, each with the environment extended by
    the selector's task-variable binding."""
    if isinstance(sel, AllTasks):
        if sel.var:
            return [(r, {**env, sel.var: r}) for r in range(num_tasks)]
        return [(r, env) for r in range(num_tasks)]
    if isinstance(sel, SingleTask):
        r = int(eval_expr(sel.expr, env))
        if not 0 <= r < num_tasks:
            raise ConceptualSemanticError(
                f"TASK {r} out of range (num_tasks={num_tasks})")
        return [(r, env)]
    if isinstance(sel, SuchThat):
        out = []
        for r in range(num_tasks):
            inner = {**env, sel.var: r}
            if eval_expr(sel.predicate, inner):
                out.append((r, inner))
        return out
    raise ConceptualSemanticError(f"unknown selector {sel!r}")


# ------------------------------------------------------------- tree walker
class _RankState:
    def __init__(self, mpi: MPIProcess, logs: LogDatabase):
        self.mpi = mpi
        self.counters = TaskCounters()
        self.pending = []
        self.logs = logs


class _Interpreter:
    def __init__(self, program: ConceptualProgram):
        self.ast = program.ast
        self.name = program.name
        self._sites: Dict[int, Callsite] = {}
        self._number_statements()

    def _number_statements(self) -> None:
        counter = [0]

        def walk(stmts):
            for stmt in stmts:
                self._sites[id(stmt)] = Callsite.synthetic(
                    self.name, counter[0])
                counter[0] += 1
                if isinstance(stmt, (ForRep, ForEach)):
                    walk(stmt.body)
                elif isinstance(stmt, IfStmt):
                    walk(stmt.then)
                    walk(stmt.otherwise)

        walk(self.ast.stmts)

    def instantiate(self, logs: LogDatabase):
        def program(mpi: MPIProcess):
            state = _RankState(mpi, logs)
            env = {"num_tasks": mpi.size}
            yield from self._exec_seq(self.ast.stmts, state, env)
            yield from mpi.finalize()
        return program

    # -- statement execution ------------------------------------------------
    def _exec_seq(self, stmts: Sequence[Stmt], state: _RankState, env):
        for stmt in stmts:
            yield from self._exec(stmt, state, env)

    def _exec(self, stmt: Stmt, state: _RankState, env):
        mpi = state.mpi
        mpi.callsite_override = self._sites[id(stmt)]
        try:
            if isinstance(stmt, ForRep):
                count = int(eval_expr(stmt.count, env))
                for _ in range(count):
                    yield from self._exec_seq(stmt.body, state, env)
            elif isinstance(stmt, ForEach):
                lo = int(eval_expr(stmt.lo, env))
                hi = int(eval_expr(stmt.hi, env))
                for i in range(lo, hi + 1):
                    inner = {**env, stmt.var: i}
                    yield from self._exec_seq(stmt.body, state, inner)
            elif isinstance(stmt, IfStmt):
                if eval_expr(stmt.cond, env):
                    yield from self._exec_seq(stmt.then, state, env)
                else:
                    yield from self._exec_seq(stmt.otherwise, state, env)
            elif isinstance(stmt, SendStmt):
                yield from self._exec_send(stmt, state, env)
            elif isinstance(stmt, RecvStmt):
                yield from self._exec_recv(stmt, state, env)
            elif isinstance(stmt, MulticastStmt):
                yield from self._exec_multicast(stmt, state, env)
            elif isinstance(stmt, ReduceStmt):
                yield from self._exec_reduce(stmt, state, env)
            elif isinstance(stmt, SyncStmt):
                yield from self._exec_sync(stmt, state, env)
            elif isinstance(stmt, ComputeStmt):
                for r, inner in select_ranks(stmt.sel, env, mpi.size):
                    if r == mpi.rank:
                        usecs = float(eval_expr(stmt.usecs, inner))
                        yield from mpi.compute(usecs * 1e-6)
            elif isinstance(stmt, ResetStmt):
                if self._selected(stmt.sel, env, mpi):
                    state.counters.reset(mpi.now())
            elif isinstance(stmt, AwaitStmt):
                if self._selected(stmt.sel, env, mpi) and state.pending:
                    yield from mpi.waitall(state.pending)
                    state.pending = []
            elif isinstance(stmt, LogStmt):
                if self._selected(stmt.sel, env, mpi):
                    value = state.counters.value(stmt.counter, mpi.now())
                    state.logs.record(stmt.label, stmt.aggregate,
                                      mpi.rank, value)
            else:
                raise ConceptualSemanticError(f"cannot execute {stmt!r}")
        finally:
            mpi.callsite_override = None

    @staticmethod
    def _selected(sel: TaskSelector, env, mpi: MPIProcess) -> bool:
        return any(r == mpi.rank
                   for r, _ in select_ranks(sel, env, mpi.size))

    # -- point-to-point ----------------------------------------------------------
    def _exec_send(self, stmt: SendStmt, state: _RankState, env):
        mpi = state.mpi
        pairs = []  # (src, dst, size, count)
        for src, inner in select_ranks(stmt.sel, env, mpi.size):
            dst = int(eval_expr(stmt.dest, inner))
            size = int(eval_expr(stmt.size, inner))
            count = int(eval_expr(stmt.count, inner))
            pairs.append((src, dst, size, count))
        me = mpi.rank
        # receive side first (posting receives early is both deterministic
        # and what a careful MPI programmer does)
        if not stmt.unsuspecting:
            for src, dst, size, count in pairs:
                if dst != me:
                    continue
                for _ in range(count):
                    if stmt.is_async:
                        req = yield from mpi.irecv(source=src, tag=stmt.tag)
                        state.pending.append(req)
                    else:
                        st = yield from mpi.recv(source=src, tag=stmt.tag)
                        state.counters.msgs_received += 1
                        state.counters.bytes_received += st.nbytes
        for src, dst, size, count in pairs:
            if src != me:
                continue
            for _ in range(count):
                if stmt.is_async:
                    req = yield from mpi.isend(dest=dst, nbytes=size,
                                               tag=stmt.tag)
                    state.pending.append(req)
                else:
                    yield from mpi.send(dest=dst, nbytes=size, tag=stmt.tag)
                state.counters.msgs_sent += 1
                state.counters.bytes_sent += size
        # synchronous implicitly-paired sends: the receive side above ran
        # before the send side for pairs where this rank is both; that is
        # only safe asynchronously, so blocking self-deadlock is the
        # author's responsibility exactly as in MPI

    def _exec_recv(self, stmt: RecvStmt, state: _RankState, env):
        mpi = state.mpi
        for dst, inner in select_ranks(stmt.sel, env, mpi.size):
            if dst != mpi.rank:
                continue
            count = int(eval_expr(stmt.count, inner))
            if stmt.source is None:
                src = ANY_SOURCE
            else:
                src = int(eval_expr(stmt.source, inner))
            for _ in range(count):
                if stmt.is_async:
                    req = yield from mpi.irecv(source=src, tag=stmt.tag)
                    state.pending.append(req)
                else:
                    st = yield from mpi.recv(source=src, tag=stmt.tag)
                    state.counters.msgs_received += 1
                    state.counters.bytes_received += st.nbytes

    # -- collectives ----------------------------------------------------------------
    def _groups(self, stmt, env, num_tasks):
        sources = [r for r, _ in select_ranks(stmt.sel, env, num_tasks)]
        targets = [r for r, _ in select_ranks(stmt.targets, env, num_tasks)]
        if not sources or not targets:
            raise ConceptualSemanticError(
                f"collective with empty source or target set: {stmt!r}")
        return sources, targets

    def _exec_multicast(self, stmt: MulticastStmt, state: _RankState, env):
        mpi = state.mpi
        sources, targets = self._groups(stmt, env, mpi.size)
        size = int(eval_expr(stmt.size, env)) if not _uses_task_var(
            stmt.sel, stmt.size) else None
        if size is None:
            # size depends on the task variable; evaluate with own binding
            for r, inner in select_ranks(stmt.sel, env, mpi.size):
                if r == mpi.rank:
                    size = int(eval_expr(stmt.size, inner))
                    break
            else:
                size = int(eval_expr(stmt.size, {**env, _task_var(stmt.sel):
                                                 mpi.rank}))
        if set(sources) == set(targets) and len(sources) > 1:
            group = sorted(set(sources))
            if mpi.rank in group:
                comm = mpi.group_comm(group)
                yield from mpi.alltoall(size, comm=comm)
                state.counters.msgs_sent += len(group) - 1
                state.counters.bytes_sent += size * (len(group) - 1)
            return
        for src in sorted(set(sources)):
            group = sorted(set(targets) | {src})
            if mpi.rank not in group:
                continue
            comm = mpi.group_comm(group)
            yield from mpi.bcast(size, root=comm.rank_of_world(src),
                                 comm=comm)
            if mpi.rank == src:
                state.counters.msgs_sent += len(group) - 1
                state.counters.bytes_sent += size * (len(group) - 1)
            else:
                state.counters.msgs_received += 1
                state.counters.bytes_received += size

    def _exec_reduce(self, stmt: ReduceStmt, state: _RankState, env):
        mpi = state.mpi
        sources, targets = self._groups(stmt, env, mpi.size)
        size = int(eval_expr(stmt.size, env))
        src_set, tgt_set = set(sources), set(targets)
        group = sorted(src_set | tgt_set)
        if mpi.rank not in group:
            return
        comm = mpi.group_comm(group)
        if src_set == tgt_set:
            yield from mpi.allreduce(size, comm=comm)
            state.counters.msgs_sent += 1
            state.counters.bytes_sent += size
            return
        root = min(tgt_set)
        yield from mpi.reduce(size, root=comm.rank_of_world(root), comm=comm)
        if mpi.rank in src_set:
            state.counters.msgs_sent += 1
            state.counters.bytes_sent += size
        rest = sorted(tgt_set - {root})
        if rest:
            bgroup = sorted({root} | set(rest))
            if mpi.rank in bgroup:
                bcomm = mpi.group_comm(bgroup)
                yield from mpi.bcast(size, root=bcomm.rank_of_world(root),
                                     comm=bcomm)

    def _exec_sync(self, stmt: SyncStmt, state: _RankState, env):
        mpi = state.mpi
        group = sorted(r for r, _ in select_ranks(stmt.sel, env, mpi.size))
        if mpi.rank not in group:
            return
        comm = mpi.group_comm(group)
        yield from mpi.barrier(comm=comm)


def _task_var(sel: TaskSelector) -> Optional[str]:
    if isinstance(sel, AllTasks):
        return sel.var
    if isinstance(sel, SuchThat):
        return sel.var
    return None


def _uses_task_var(sel: TaskSelector, expr: Expr) -> bool:
    var = _task_var(sel)
    if var is None:
        return False

    def walk(e):
        if isinstance(e, Var):
            return e.name == var
        if isinstance(e, BinOp):
            return walk(e.left) or walk(e.right)
        if isinstance(e, IsIn):
            return walk(e.item) or any(walk(m) for m in e.members)
        return False

    return walk(expr)


# ----------------------------------------------------------------- swap-in
def reference_instantiate(program: ConceptualProgram, logs: LogDatabase):
    """The SPMD program function the tree-walker runs for ``program``."""
    return _Interpreter(program).instantiate(logs)


@contextmanager
def reference_interp():
    """Run every ``ConceptualProgram`` in the block on the tree-walker."""
    saved = ConceptualProgram.instantiate
    ConceptualProgram.instantiate = reference_instantiate
    try:
        yield
    finally:
        ConceptualProgram.instantiate = saved
