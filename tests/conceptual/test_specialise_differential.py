"""Differential tests: the per-rank specialised program against the
reference tree-walker (:mod:`tests.conceptual.reference_interp`).

Both sides must agree bit for bit on the makespan and the per-rank
clocks, the per-rank MPI event stream (call sites included), the LOG
samples, and the outcome: the result, or the raised error's type and
message.  The specialised form raises a typed
:class:`~repro.errors.ConceptualSemanticError` where the tree-walker
raised a raw Python arithmetic error; the typed error must wrap the same
exception (same type, same message), raised at the same point.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPS, make_app
from repro.apps.base import AppError
from repro.conceptual import ConceptualProgram
from repro.conceptual.ast_nodes import (AllTasks, BinOp, ComputeStmt,
                                        ForEach, ForRep, IfStmt, IsIn,
                                        MulticastStmt, Num, Program,
                                        RecvStmt, ReduceStmt, SendStmt,
                                        SingleTask, SuchThat, SyncStmt, Var)
from repro.errors import ConceptualSemanticError
from repro.generator import generate_from_application
from repro.mpi import MPIHook
from repro.sim.network import make_model
from tests.conceptual.reference_interp import reference_interp
from tests.properties.test_prop_conceptual import programs, selectors

_ARITH_FAULTS = (ArithmeticError, ValueError)


class _StreamHook(MPIHook):
    """Every rank's MPI events, with the fields a change to the executor
    could disturb.  Call sites the compiler sets are kept verbatim; any
    other (captured from the Python stack, e.g. ``finalize``) is only
    marked as such, because the two executors live in different files."""

    def __init__(self, nranks):
        self.streams = [[] for _ in range(nranks)]

    def on_event(self, e):
        cs = e.callsite
        if cs is not None and cs.frames and cs.frames[0][2] == "<synthetic>":
            site = cs.serialize()
        else:
            site = "<captured>"
        nbytes = e.nbytes
        self.streams[e.rank].append(
            (e.op, e.comm.id, e.comm.world_ranks, e.peer, e.tag, nbytes,
             e.root, e.wait_offsets, e.t_start.hex(), e.t_end.hex(), site,
             e.matched_source))


def _outcome(program, nranks, model, max_steps=None):
    hook = _StreamHook(nranks)
    try:
        result, logs = program.run(nranks, model=model, hooks=[hook],
                                   max_steps=max_steps)
    except ConceptualSemanticError as exc:
        cause = exc.__cause__
        if isinstance(cause, _ARITH_FAULTS):
            # the typed wrapper names the statement's call site
            assert f" at {program.name}:" in str(exc), str(exc)
            raised = ("arith", type(cause).__name__, str(cause))
        else:
            raised = (type(exc).__name__, str(exc))
        return {"raised": raised, "streams": hook.streams}
    except _ARITH_FAULTS as exc:
        return {"raised": ("arith", type(exc).__name__, str(exc)),
                "streams": hook.streams}
    except Exception as exc:  # deadlocks, livelock guard, MPI misuse
        return {"raised": (type(exc).__name__, str(exc)),
                "streams": hook.streams}
    return {
        "makespan": result.total_time.hex(),
        "clocks": [t.hex() for t in result.per_rank_times],
        "streams": hook.streams,
        "logs": [(label, agg, [v.hex() if isinstance(v, float) else v
                               for v in logs.samples(label, agg)])
                 for label, agg in logs.labels()],
    }


def assert_same_as_reference(program, nranks, model, max_steps=None):
    with reference_interp():
        expected = _outcome(program, nranks, model, max_steps)
    got = _outcome(program, nranks, model, max_steps)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key
    return got


# ------------------------------------------------------------ app presets
@lru_cache(maxsize=None)
def _generated(app, nranks):
    try:
        program = make_app(app, nranks, "S")
    except AppError as exc:
        pytest.skip(str(exc))
    bench = generate_from_application(program, nranks,
                                      model=make_model("bluegene"))
    return bench.source


@pytest.mark.parametrize("nranks", [4, 16])
@pytest.mark.parametrize("app", sorted(APPS))
def test_app_preset_matches_reference(app, nranks):
    program = ConceptualProgram.from_source(_generated(app, nranks),
                                            name=f"{app}{nranks}")
    got = assert_same_as_reference(program, nranks, make_model("bluegene"))
    assert "raised" not in got


# --------------------------------------------------------------- property
def _small(e):
    """``e`` with its integer literals taken modulo 4, so conditions and
    selectors change their outcome as the loop variables change."""
    if isinstance(e, Num) and isinstance(e.value, int):
        return Num(e.value % 4)
    if isinstance(e, BinOp):
        return BinOp(e.op, _small(e.left), _small(e.right))
    if isinstance(e, IsIn):
        return IsIn(_small(e.item), tuple(_small(m) for m in e.members))
    return e


def _selector(sel):
    if isinstance(sel, SuchThat):
        return SuchThat(sel.var, _small(sel.predicate))
    if isinstance(sel, SingleTask):
        return SingleTask(_small(sel.expr))
    return sel


def _executable(program: Program) -> Program:
    """Bind every variable the strategies use (``t``, ``rep0``, ``rep1``)
    in small outer loops, keep loops short, shrink the literals of
    conditions, selectors and peers, and aim point-to-point peers at real
    ranks, so most programs run to a result or a deadlock."""
    def peer(e):
        return BinOp("MOD", _small(e), Var("num_tasks"))

    def fix(stmt):
        if isinstance(stmt, ForRep):
            return ForRep(Num(min(stmt.count.value, 3)),
                          [fix(s) for s in stmt.body])
        if isinstance(stmt, ForEach):
            return ForEach(stmt.var, stmt.lo, Num(min(stmt.hi.value, 2)),
                           [fix(s) for s in stmt.body])
        if isinstance(stmt, IfStmt):
            return IfStmt(_small(stmt.cond), [fix(s) for s in stmt.then],
                          [fix(s) for s in stmt.otherwise])
        changes = {"sel": _selector(stmt.sel)}
        if isinstance(stmt, (MulticastStmt, ReduceStmt)):
            changes["targets"] = _selector(stmt.targets)
        if isinstance(stmt, SendStmt):
            changes["dest"] = peer(stmt.dest)
        if isinstance(stmt, RecvStmt) and stmt.source is not None:
            changes["source"] = peer(stmt.source)
        return replace(stmt, **changes)

    body = [fix(s) for s in program.stmts]
    for var, hi in (("t", 1), ("rep1", 1), ("rep0", 2)):
        body = [ForEach(var, Num(0), Num(hi), body)]
    return Program(body)


@given(programs, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_specialised_program_matches_reference(program, nranks):
    compiled = ConceptualProgram(_executable(program), name="prop")
    assert_same_as_reference(compiled, nranks, make_model("simple"),
                             max_steps=5000)


@given(selectors, st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_selectors_match_reference_as_loop_variables_change(sel, nranks):
    """Every selector the strategies build, re-evaluated in each iteration
    of the outer loops: the selected tasks compute, then all meet."""
    body = [ComputeStmt(_selector(sel), Num(1)), SyncStmt(AllTasks())]
    compiled = ConceptualProgram(_executable(Program(body)), name="sel")
    assert_same_as_reference(compiled, nranks, make_model("simple"))
