"""The coNCePTuaL compiler backend targeting the simulated MPI layer.

Real coNCePTuaL compiles its source to C+MPI; our backend "compiles" the
AST into an SPMD generator program over :class:`repro.mpi.MPIProcess` —
the same pluggable-backend design the original tool advertises.  Every
statement carries a synthetic call-site signature derived from its AST
path, so ScalaTrace applied to a *generated* benchmark sees stable,
per-statement call sites (just as the C backend's source lines would).

Execution semantics of the communication statements:

* ``SEND`` (implicit pairing) — sources send, destinations post matching
  receives, synchronously or asynchronously per ``ASYNCHRONOUSLY``.
* ``SEND ... TO UNSUSPECTING`` — send side only; some explicit ``RECEIVE``
  statement consumes the data.
* ``MULTICAST`` — one source: a broadcast over sources ∪ targets; sources
  equal to targets: an all-to-all exchange; otherwise one broadcast per
  source.
* ``REDUCE``  — targets equal to sources: allreduce; single target: rooted
  reduce; otherwise reduce to the first target then multicast to the rest.
* ``SYNCHRONIZE`` — barrier over the selected tasks.
* ``AWAIT COMPLETION`` — waitall on the rank's outstanding asynchronous
  operations.

Collective groups are static, so sub-communicators are interned up front
(no setup traffic), mirroring coNCePTuaL's implicit communicator handling.

Execution is compiled, not interpreted.  The first run on ``nranks``
ranks compiles the statement tree once for that size: expressions become
closures with literals and ``num_tasks`` folded, and selectors whose
ranks read no loop variable become static rank tuples (both in
:mod:`repro.conceptual.evaluate`); a leaf statement whose
selectors and expressions read no loop variable is evaluated up front
into what each rank does.  That shared tree is then specialised for each
rank, dropping every statement that provably does nothing there: it
issues no MPI operation on the rank, touches no counter or log, and
cannot raise.  Everything else keeps lazy evaluation, so a run raises at
the same point it would if every rank walked the whole tree.  Arithmetic
faults (division by zero, overflow) raise
:class:`~repro.errors.ConceptualSemanticError` naming the statement's
call site.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.conceptual.ast_nodes import (AwaitStmt, ComputeStmt, ForEach,
                                        ForRep, IfStmt, LogStmt,
                                        MulticastStmt, Program, RecvStmt,
                                        ReduceStmt, ResetStmt, SendStmt,
                                        Stmt, SyncStmt)
from repro.conceptual.evaluate import Scope, Selector, bind, compile_expr
from repro.conceptual.parser import parse
from repro.conceptual.printer import print_program
from repro.conceptual.runtime import LogDatabase, TaskCounters
from repro.conceptual.semantics import check_program
from repro.errors import ConceptualSemanticError
from repro import obs
from repro.mpi.api import ANY_SOURCE, MPIProcess
from repro.mpi.world import SpmdResult, run_spmd
from repro.util.callsite import Callsite


# ---------------------------------------------------------------- run time
class _RankState:
    __slots__ = ("mpi", "rank", "counters", "pending", "logs")

    def __init__(self, mpi: MPIProcess, logs: LogDatabase):
        self.mpi = mpi
        self.rank = mpi.rank
        self.counters = TaskCounters()
        self.pending = []
        self.logs = logs


# A specialised statement is an entry ``(run, data)``: ``run(st, env,
# data)`` is a generator issuing the rank's operations.  Compound
# statements carry their specialised bodies in ``data``.

def _run_rep(st, env, data):
    count, body = data
    for _ in range(count(env)):
        for run, d in body:
            yield from run(st, env, d)


def _run_each(st, env, data):
    var, lo, hi, body = data
    inner = dict(env)
    for i in range(lo(env), hi(env) + 1):
        inner[var] = i
        for run, d in body:
            yield from run(st, inner, d)


def _run_if(st, env, data):
    cond, then, otherwise = data
    for run, d in (then if cond(env) else otherwise):
        yield from run(st, env, d)


def _receive(st, source, tag, count, is_async):
    mpi = st.mpi
    for _ in range(count):
        if is_async:
            req = yield from mpi.irecv(source=source, tag=tag)
            st.pending.append(req)
        else:
            status = yield from mpi.recv(source=source, tag=tag)
            st.counters.msgs_received += 1
            st.counters.bytes_received += status.nbytes


# ------------------------------------------------------------- statements
#: ``involved`` result of a leaf that may act (or raise) on any rank
_ANY_RANK = None


class _Leaf:
    """A leaf statement compiled for one program size.

    ``prepare(env)`` does what every rank does: evaluate the selectors and
    the expressions of every selected task, in the tree-walker's order.
    ``plan(me, prep, env)`` evaluates what only rank ``me`` evaluates and
    returns its operations, or None when it has none; ``run`` issues
    them, with ``head`` (the call site first) holding what every rank's
    operations share.  A leaf that reads no loop variable is prepared
    and planned here, once; ``involved(prep)`` bounds the ranks whose plan
    can be non-None.  Any other leaf, or one whose evaluation raised,
    runs ``run_dynamic``, which evaluates when (and if) it is reached.
    """

    __slots__ = ("head", "free")

    def entries(self, n: int) -> Dict[int, list]:
        """Each rank's entries for this statement (ranks without any
        left out)."""
        dynamic = [(self.run_dynamic, None)]
        if self.free:
            return {me: dynamic for me in range(n)}
        try:
            prep = self.prepare({})
        except ConceptualSemanticError:
            return {me: dynamic for me in range(n)}
        acts = self.involved(prep)
        out = {}
        for me in (range(n) if acts is _ANY_RANK else
                   sorted(r for r in acts if 0 <= r < n)):
            try:
                data = self.plan(me, prep, {})
            except ConceptualSemanticError:
                out[me] = dynamic
                continue
            if data is not None:
                out[me] = [(self.run, (self.head, data))]
        return out

    def involved(self, prep):
        return prep

    def run_dynamic(self, st, env, _):
        data = self.plan(st.rank, self.prepare(env), env)
        if data is not None:
            yield from self.run(st, env, (self.head, data))


class _Send(_Leaf):
    __slots__ = ("sel", "dest", "size", "count", "unsuspecting")

    def __init__(self, stmt: SendStmt, scope, site, n):
        self.sel = Selector(stmt.sel, scope, site, n)
        inner = scope.bind(self.sel.var)
        self.dest, self.size, self.count = (
            compile_expr(e, inner, int, site)
            for e in (stmt.dest, stmt.size, stmt.count))
        self.unsuspecting = stmt.unsuspecting
        self.head = (site, stmt.tag, stmt.is_async)
        exprs = self.dest.free | self.size.free | self.count.free
        self.free = self.sel.free | (exprs - {self.sel.var})

    def prepare(self, env):
        var, dest, size, count = (self.sel.var, self.dest.fn, self.size.fn,
                                  self.count.fn)
        pairs = []
        for src in self.sel.ranks(env):
            inner = bind(env, var, src)
            pairs.append((src, dest(inner), size(inner), count(inner)))
        return pairs

    def involved(self, pairs):
        ranks = {src for src, _, _, _ in pairs}
        if not self.unsuspecting:
            ranks.update(dst for _, dst, _, _ in pairs)
        return ranks

    def plan(self, me, pairs, env):
        # receive side first (posting receives early is both deterministic
        # and what a careful MPI programmer does)
        recvs = () if self.unsuspecting else tuple(
            (src, count) for src, dst, _, count in pairs
            if dst == me and count > 0)
        sends = tuple((dst, size, count) for src, dst, size, count in pairs
                      if src == me and count > 0)
        return (recvs, sends) if recvs or sends else None

    @staticmethod
    def run(st, env, data):
        (site, tag, is_async), (recvs, sends) = data
        mpi = st.mpi
        mpi.callsite_override = site
        try:
            for src, count in recvs:
                yield from _receive(st, src, tag, count, is_async)
            for dst, size, count in sends:
                for _ in range(count):
                    if is_async:
                        req = yield from mpi.isend(dest=dst, nbytes=size,
                                                   tag=tag)
                        st.pending.append(req)
                    else:
                        yield from mpi.send(dest=dst, nbytes=size, tag=tag)
                    st.counters.msgs_sent += 1
                    st.counters.bytes_sent += size
        finally:
            mpi.callsite_override = None
        # synchronous implicitly-paired sends: the receive side above ran
        # before the send side for pairs where this rank is both; that is
        # only safe asynchronously, so blocking self-deadlock is the
        # author's responsibility exactly as in MPI


class _Recv(_Leaf):
    __slots__ = ("sel", "count", "source")

    def __init__(self, stmt: RecvStmt, scope, site, n):
        self.sel = Selector(stmt.sel, scope, site, n)
        inner = scope.bind(self.sel.var)
        self.count = compile_expr(stmt.count, inner, int, site)
        self.source = (None if stmt.source is None
                       else compile_expr(stmt.source, inner, int, site))
        self.head = (site, stmt.tag, stmt.is_async)
        exprs = self.count.free | (self.source.free if self.source else
                                   frozenset())
        self.free = self.sel.free | (exprs - {self.sel.var})

    def prepare(self, env):
        return self.sel.ranks(env)

    def plan(self, me, ranks, env):
        if me not in ranks:
            return None
        inner = bind(env, self.sel.var, me)
        count = self.count.fn(inner)
        source = ANY_SOURCE if self.source is None else self.source.fn(inner)
        return (source, count) if count > 0 else None

    @staticmethod
    def run(st, env, data):
        (site, tag, is_async), (source, count) = data
        mpi = st.mpi
        mpi.callsite_override = site
        try:
            yield from _receive(st, source, tag, count, is_async)
        finally:
            mpi.callsite_override = None


class _Collective(_Leaf):
    """MULTICAST and REDUCE: a source and a target selector, neither of
    which may select nobody."""

    __slots__ = ("stmt", "sel", "targets", "size")

    def _endpoints(self, env):
        sources = self.sel.ranks(env)
        targets = self.targets.ranks(env)
        if not sources or not targets:
            raise ConceptualSemanticError(
                "collective with empty source or target set: "
                f"{self.stmt!r}")
        return set(sources), set(targets)


class _Multicast(_Collective):
    __slots__ = ("per_rank_size",)

    def __init__(self, stmt: MulticastStmt, scope, site, n):
        self.stmt = stmt
        self.sel = Selector(stmt.sel, scope, site, n)
        self.targets = Selector(stmt.targets, scope, site, n)
        var = self.sel.var
        self.size = compile_expr(stmt.size, scope.bind(var), int, site)
        # a size that reads the task variable is each rank's own value
        self.per_rank_size = var is not None and var in self.size.free
        self.head = (site,)
        self.free = (self.sel.free | self.targets.free
                     | (self.size.free - {var}))

    def prepare(self, env):
        sources, targets = self._endpoints(env)
        size = None if self.per_rank_size else self.size.fn(env)
        return sources, targets, size

    def involved(self, prep):
        sources, targets, size = prep
        if size is None and not self.size.safe:
            return _ANY_RANK
        return sources | targets

    def plan(self, me, prep, env):
        sources, targets, size = prep
        if size is None:
            size = self.size.fn(bind(env, self.sel.var, me))
        if sources == targets and len(sources) > 1:
            group = sorted(sources)
            return (size, group, ()) if me in group else None
        bcasts = []
        for src in sorted(sources):
            group = sorted(targets | {src})
            if me in group:
                bcasts.append((src, group))
        return (size, None, tuple(bcasts)) if bcasts else None

    @staticmethod
    def run(st, env, data):
        (site,), (size, group, bcasts) = data
        mpi, counters = st.mpi, st.counters
        mpi.callsite_override = site
        try:
            if group is not None:
                comm = mpi.group_comm(group)
                yield from mpi.alltoall(size, comm=comm)
                counters.msgs_sent += len(group) - 1
                counters.bytes_sent += size * (len(group) - 1)
            for src, group in bcasts:
                comm = mpi.group_comm(group)
                yield from mpi.bcast(size, root=comm.rank_of_world(src),
                                     comm=comm)
                if mpi.rank == src:
                    counters.msgs_sent += len(group) - 1
                    counters.bytes_sent += size * (len(group) - 1)
                else:
                    counters.msgs_received += 1
                    counters.bytes_received += size
        finally:
            mpi.callsite_override = None


class _Reduce(_Collective):
    __slots__ = ()

    def __init__(self, stmt: ReduceStmt, scope, site, n):
        self.stmt = stmt
        self.sel = Selector(stmt.sel, scope, site, n)
        self.targets = Selector(stmt.targets, scope, site, n)
        # the size is evaluated outside the task variable's scope
        self.size = compile_expr(stmt.size, scope, int, site)
        self.head = (site,)
        self.free = self.sel.free | self.targets.free | self.size.free

    def prepare(self, env):
        sources, targets = self._endpoints(env)
        return sources, targets, self.size.fn(env)

    def involved(self, prep):
        sources, targets, _ = prep
        return sources | targets

    def plan(self, me, prep, env):
        sources, targets, _ = prep
        return prep if me in sources or me in targets else None

    @staticmethod
    def run(st, env, data):
        (site,), (src_set, tgt_set, size) = data
        mpi, counters = st.mpi, st.counters
        mpi.callsite_override = site
        try:
            comm = mpi.group_comm(sorted(src_set | tgt_set))
            if src_set == tgt_set:
                yield from mpi.allreduce(size, comm=comm)
                counters.msgs_sent += 1
                counters.bytes_sent += size
                return
            root = min(tgt_set)
            yield from mpi.reduce(size, root=comm.rank_of_world(root),
                                  comm=comm)
            if mpi.rank in src_set:
                counters.msgs_sent += 1
                counters.bytes_sent += size
            rest = sorted(tgt_set - {root})
            if rest:
                bgroup = sorted({root} | set(rest))
                if mpi.rank in bgroup:
                    bcomm = mpi.group_comm(bgroup)
                    yield from mpi.bcast(size,
                                         root=bcomm.rank_of_world(root),
                                         comm=bcomm)
        finally:
            mpi.callsite_override = None


class _OnSelected(_Leaf):
    """SYNCHRONIZE, COMPUTE, RESET, AWAIT and LOG: an action of each
    selected task."""

    __slots__ = ("sel", "usecs")

    def __init__(self, stmt: Stmt, scope, site, n):
        self.sel = Selector(stmt.sel, scope, site, n)
        self.head = (site, stmt)
        self.free = self.sel.free
        self.usecs = None
        if isinstance(stmt, ComputeStmt):
            self.usecs = compile_expr(stmt.usecs, scope.bind(self.sel.var),
                                      float, site)
            self.free = self.free | (self.usecs.free - {self.sel.var})

    def prepare(self, env):
        return self.sel.ranks(env)

    def plan(self, me, ranks, env):
        if me not in ranks:
            return None
        if isinstance(self.head[1], SyncStmt):
            return sorted(ranks)
        if self.usecs is not None:
            return self.usecs.fn(bind(env, self.sel.var, me)) * 1e-6
        return True

    @staticmethod
    def run(st, env, data):
        (site, stmt), arg = data
        mpi = st.mpi
        mpi.callsite_override = site
        try:
            if isinstance(stmt, ComputeStmt):
                yield from mpi.compute(arg)
            elif isinstance(stmt, SyncStmt):
                yield from mpi.barrier(comm=mpi.group_comm(arg))
            elif isinstance(stmt, ResetStmt):
                st.counters.reset(mpi.now())
            elif isinstance(stmt, AwaitStmt):
                if st.pending:
                    yield from mpi.waitall(st.pending)
                    st.pending = []
            else:
                value = st.counters.value(stmt.counter, mpi.now())
                st.logs.record(stmt.label, stmt.aggregate, mpi.rank, value)
        finally:
            mpi.callsite_override = None


_LEAVES = {SendStmt: _Send, RecvStmt: _Recv, MulticastStmt: _Multicast,
           ReduceStmt: _Reduce, SyncStmt: _OnSelected,
           ComputeStmt: _OnSelected, ResetStmt: _OnSelected,
           AwaitStmt: _OnSelected, LogStmt: _OnSelected}


class _Specialiser:
    """One compile pass over a program for ``n`` ranks.  Every statement
    is compiled once; what it leaves each rank is built right away, so
    only the per-rank skeletons outlive the pass.  ``kept`` counts their
    statements, summed over ranks."""

    def __init__(self, sites, n: int):
        self.sites = iter(sites)
        self.n = n
        self.kept = 0

    def block(self, stmts, scope: Scope) -> Dict[int, list]:
        """Each rank's entries for ``stmts`` (ranks without any left
        out)."""
        out: Dict[int, list] = {}
        for stmt in stmts:
            leaf = _LEAVES.get(type(stmt))
            if leaf is not None:
                kept = leaf(stmt, scope, next(self.sites), self.n).entries(
                    self.n)
                self.kept += len(kept)
            elif isinstance(stmt, (ForRep, ForEach, IfStmt)):
                kept = self.compound(stmt, scope)
            else:
                raise ConceptualSemanticError(f"cannot execute {stmt!r}")
            for me, entries in kept.items():
                out.setdefault(me, []).extend(entries)
        return out

    def compound(self, stmt, scope: Scope) -> Dict[int, list]:
        """A loop or IF: kept on the ranks its bodies do something on, or
        on every rank if its own expressions could raise.  An IF with a
        constant condition is replaced by the branch it takes."""
        site = next(self.sites)
        if isinstance(stmt, ForRep):
            count = compile_expr(stmt.count, scope, int, site)
            body = self.block(stmt.body, scope)
            exprs, bodies = (count,), (body,)

            def entry(me):
                return (_run_rep, (count.fn, tuple(body.get(me, ()))))
        elif isinstance(stmt, ForEach):
            lo = compile_expr(stmt.lo, scope, int, site)
            hi = compile_expr(stmt.hi, scope, int, site)
            body = self.block(stmt.body, scope.bind(stmt.var))
            exprs, bodies = (lo, hi), (body,)

            def entry(me):
                return (_run_each, (stmt.var, lo.fn, hi.fn,
                                    tuple(body.get(me, ()))))
        else:
            cond = compile_expr(stmt.cond, scope, None, site)
            then = self.block(stmt.then, scope)
            otherwise = self.block(stmt.otherwise, scope)
            if cond.const:
                return then if cond.value else otherwise
            exprs, bodies = (cond,), (then, otherwise)

            def entry(me):
                return (_run_if, (cond.fn, tuple(then.get(me, ())),
                                  tuple(otherwise.get(me, ()))))
        if all(e.safe for e in exprs):
            ranks = sorted(set().union(*bodies))
        else:
            ranks = range(self.n)
        self.kept += len(ranks)
        return {me: [entry(me)] for me in ranks}


# ------------------------------------------------------------- program
class ConceptualProgram:
    """A checked, executable coNCePTuaL program."""

    def __init__(self, ast: Program, name: str = "benchmark"):
        with obs.span("conceptual.compile", program=name):
            check_program(ast)
            self.ast = ast
            self.name = name
            self.sites = self._number_statements()
            self._bodies: Dict[int, Tuple] = {}
            obs.count("conceptual.statements_compiled", len(self.sites))

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_source(cls, text: str, name: str = "benchmark"):
        return cls(parse(text), name)

    @property
    def source(self) -> str:
        """Canonical source text of this program."""
        return print_program(self.ast)

    def _number_statements(self) -> List[Callsite]:
        """One synthetic call site per statement, in pre-order."""
        sites = []

        def walk(stmts):
            for stmt in stmts:
                sites.append(Callsite.synthetic(self.name, len(sites)))
                if isinstance(stmt, (ForRep, ForEach)):
                    walk(stmt.body)
                elif isinstance(stmt, IfStmt):
                    walk(stmt.then)
                    walk(stmt.otherwise)

        walk(self.ast.stmts)
        return sites

    # -- execution -----------------------------------------------------------
    def specialise(self, nranks: int) -> Tuple:
        """Each rank's specialised statement list for a run on ``nranks``
        ranks, compiled on first use."""
        bodies = self._bodies.get(nranks)
        if bodies is None:
            with obs.span("conceptual.specialise", program=self.name,
                          nranks=nranks):
                spec = _Specialiser(self.sites, nranks)
                kept = spec.block(self.ast.stmts,
                                  Scope(frozenset(), nranks, True, {}))
                bodies = tuple(tuple(kept.get(me, ()))
                               for me in range(nranks))
                obs.count("conceptual.rank_statements", spec.kept)
            self._bodies[nranks] = bodies
        return bodies

    def instantiate(self, logs: LogDatabase):
        """SPMD program function suitable for :func:`repro.mpi.run_spmd`."""
        def program(mpi: MPIProcess):
            st, env = _RankState(mpi, logs), {}
            for run, data in self.specialise(mpi.size)[mpi.rank]:
                yield from run(st, env, data)
            yield from mpi.finalize()
        return program

    def run(self, nranks: int, model=None, hooks=None,
            **engine_options) -> Tuple[SpmdResult, LogDatabase]:
        """Compile-and-run convenience: returns the simulation result and
        the program's log database; ``engine_options`` go to
        :func:`repro.mpi.run_spmd` unchanged."""
        logs = LogDatabase()
        self.specialise(nranks)  # before the engine starts, not in rank 0
        result = run_spmd(self.instantiate(logs), nranks, model=model,
                          hooks=hooks, **engine_options)
        return result, logs
