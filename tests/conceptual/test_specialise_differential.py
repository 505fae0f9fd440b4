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

from repro import obs
from repro.apps import APPS, PAPER_SUITE, make_app
from repro.apps.base import AppError
from repro.conceptual import ConceptualProgram
from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, ForEach, ForRep, IfStmt,
                                        IsIn, MulticastStmt, Num, Program,
                                        RecvStmt, ReduceStmt, SendStmt,
                                        SingleTask, SuchThat, SyncStmt, Var)
from repro.conceptual.compiler import (_run_each, _run_if, _run_rep,
                                       _run_unrolled)
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


@pytest.mark.slow
@pytest.mark.parametrize("app", PAPER_SUITE)
def test_paper_app_matches_reference_at_np64(app):
    test_app_preset_matches_reference(app, 64)


@pytest.mark.parametrize("app", ["bt", "cg", "lu", "mg", "sp"])
def test_paper_apps_run_per_iteration_bodies(app):
    """The emitter's ``IF repN = k`` tables reach the per-iteration form
    (cg's with its trailing AWAIT, mg's nested in an outer table and with
    range conditions), so the preset cells above hold it to the
    tree-walker."""
    with obs.instrumented() as inst:
        ConceptualProgram.from_source(_generated(app, 16)).specialise(16)
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    assert counters["conceptual.unrolled_loops"] > 0


# ------------------------------------------ per-iteration FOR EACH bodies
def _loop_forms(program, nranks):
    """``{loop variable: forms}`` over every rank's specialised body:
    ``"each"`` for a loop run by ``_run_each``, ``"unrolled"`` for one
    given per-iteration bodies."""
    forms = {}

    def walk(entries):
        for run, data in entries:
            if run is _run_rep:
                walk(data[1])
            elif run is _run_each:
                forms.setdefault(data[0], set()).add("each")
                walk(data[3])
            elif run is _run_unrolled:
                forms.setdefault(data[0], set()).add("unrolled")
                for body in data[2]:
                    walk(body)
            elif run is _run_if:
                walk(data[1])
                walk(data[2])
    for body in program.specialise(nranks):
        walk(body)
    return forms


_EDGE_CASES = {
    # each branch lands in one iteration: folded
    "otherwise": ("""
FOR EACH v IN {0, ..., 1} {
  IF v = 0 THEN {
    TASK 0 COMPUTES FOR 5 MICROSECONDS
  } OTHERWISE {
    TASK 0 COMPUTES FOR 7 MICROSECONDS
  }
}""", {"v": {"unrolled"}}),
    # the OTHERWISE branch runs twice, within the size bound: folded
    "otherwise-twice": ("""
FOR EACH v IN {0, ..., 2} {
  IF v = 0 THEN {
    TASK 0 COMPUTES FOR 5 MICROSECONDS
  } OTHERWISE {
    TASK 0 COMPUTES FOR 7 MICROSECONDS
  }
}""", {"v": {"unrolled"}}),
    # a condition that reads the enclosing loop's ``t``: resolvable, but
    # both loops' bodies per iteration would be 13 entries against 4
    "reads-t": ("""
FOR EACH t IN {0, ..., 1} {
  FOR EACH v IN {0, ..., 2} {
    IF v = t THEN {
      TASK 1 COMPUTES FOR 3 MICROSECONDS
    }
  }
}""", {"t": {"each"}, "v": {"each"}}),
    # 4 / (v - 1) divides by zero in iteration 1: that IF stays lazy,
    # inside per-iteration bodies on the tasks where they fit (not task
    # 0, whose copies of its branch would make 11 entries against 5),
    # and raises there
    "raises": ("""
FOR EACH v IN {0, ..., 2} {
  IF 4 / (v - 1) = 2 THEN {
    TASK 0 COMPUTES FOR 3 MICROSECONDS
  } THEN
  IF v = 0 THEN {
    ALL TASKS SYNCHRONIZE
  }
}""", {"v": {"each", "unrolled"}}),
    # mg's shape: the inner table tests the outer loop's variable, with
    # range conditions; both loops fold on rank 0
    "outer-variable": ("""
FOR EACH p IN {0, ..., 1} {
  FOR EACH q IN {0, ..., 2} {
    IF p = 0 THEN {
      IF q = 0 THEN {
        TASK 0 COMPUTES FOR 1 MICROSECONDS
      } THEN
      IF q >= 1 /\\ q <= 2 THEN {
        TASK 0 COMPUTES FOR q MICROSECONDS
      }
    } THEN
    IF p = 1 THEN {
      IF q = 0 THEN {
        TASK 0 COMPUTES FOR 3 MICROSECONDS
      } THEN
      IF q >= 1 THEN {
        TASK 0 COMPUTES FOR p + q MICROSECONDS
      }
    }
  }
}""", {"p": {"unrolled"}, "q": {"unrolled"}}),
    # a range condition landing in two iterations: folded
    "range": ("""
FOR EACH v IN {0, ..., 3} {
  IF v = 0 THEN {
    TASK 0 COMPUTES FOR 5 MICROSECONDS
  } THEN
  IF v >= 1 /\\ v <= 2 THEN {
    TASK 0 COMPUTES FOR 7 MICROSECONDS
  } THEN
  IF v = 3 THEN {
    TASK 0 COMPUTES FOR 9 MICROSECONDS
  }
}""", {"v": {"unrolled"}}),
    # a range landing in 5 of 6 iterations: 12 entries against 3, kept
    "size-bound": ("""
FOR EACH v IN {0, ..., 5} {
  IF v >= 1 THEN {
    TASK 0 COMPUTES FOR v MICROSECONDS
  }
}""", {"v": {"each"}}),
    # cg's shape: a table and a trailing AWAIT in every iteration: folded
    # on the sender and on each receiver
    "trailing-await": ("""
FOR EACH v IN {0, ..., 2} {
  IF v = 0 THEN {
    TASK 0 ASYNCHRONOUSLY SENDS A 8 BYTE MESSAGE TO TASK 1
  } THEN
  IF v = 1 THEN {
    TASK 0 ASYNCHRONOUSLY SENDS A 8 BYTE MESSAGE TO TASK 2
  } THEN
  IF v = 2 THEN {
    TASK 0 ASYNCHRONOUSLY SENDS A 8 BYTE MESSAGE TO TASK 3
  } THEN
  ALL TASKS AWAIT COMPLETION
}""", {"v": {"unrolled"}}),
    # the inner table folds; the outer body is a loop, not an IF table
    "nested": ("""
FOR EACH p IN {0, ..., 1} {
  FOR EACH q IN {0, ..., 2} {
    IF q = 1 THEN {
      TASK p SENDS A 8 BYTE MESSAGE TO TASK p + 1
    }
  }
}""", {"p": {"each"}, "q": {"unrolled"}}),
    # an outer table whose branch holds an inner table: both fold
    "nested-tables": ("""
FOR EACH p IN {0, ..., 1} {
  IF p = 1 THEN {
    FOR EACH q IN {0, ..., 2} {
      IF q = 2 THEN {
        TASK q COMPUTES FOR p MICROSECONDS
      }
    }
  }
}""", {"p": {"unrolled"}, "q": {"unrolled"}}),
    # a range that starts above 0, read by the folded branches
    "offset": ("""
FOR EACH v IN {2, ..., 4} {
  IF v = 3 THEN {
    TASK v - 2 COMPUTES FOR v MICROSECONDS
  } THEN
  IF v = 4 THEN {
    ALL TASKS COMPUTE FOR v * 2 MICROSECONDS
  }
}""", {"v": {"unrolled"}}),
    # no iteration at all: folded to no bodies
    "empty-range": ("""
FOR EACH v IN {3, ..., 1} {
  IF v = 2 THEN {
    ALL TASKS COMPUTE FOR 4 MICROSECONDS
  }
}""", {"v": {"unrolled"}}),
    # one unconditional statement beside the table, four times: 9
    # entries against 4, kept
    "unconditional": ("""
FOR EACH v IN {0, ..., 3} {
  IF v = 0 THEN {
    TASK 0 COMPUTES FOR 5 MICROSECONDS
  } THEN
  TASK 0 COMPUTES FOR 1 MICROSECONDS
}""", {"v": {"each"}}),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_per_iteration_edge_case(case):
    source, forms = _EDGE_CASES[case]
    program = ConceptualProgram.from_source(source, name=case)
    assert _loop_forms(program, 4) == forms
    got = assert_same_as_reference(program, 4, make_model("simple"))
    assert ("raised" in got) == (case == "raises")


@st.composite
def if_tables(draw):
    """``FOR EACH v IN {lo, ..., hi} { IF cond THEN {...} ... }`` inside a
    task loop over ``t``: mostly ``v = k`` tests (the emitter's shape),
    some with an OTHERWISE branch, some that read ``t``, hold in several
    iterations, or divide by zero, and now and then an unconditional
    statement."""
    lo = draw(st.integers(0, 2))
    hi = lo + draw(st.integers(-1, 3))
    ks = st.integers(lo - 1, hi + 1)

    def leaf():
        kind = draw(st.sampled_from(["compute", "compute-v", "send",
                                     "sync"]))
        who = Num(draw(st.integers(0, 3)))
        if kind == "compute":
            return ComputeStmt(SingleTask(who), Num(draw(
                st.integers(1, 9))))
        if kind == "compute-v":
            return ComputeStmt(AllTasks(), BinOp("+", Var("v"), Num(1)))
        if kind == "send":
            return SendStmt(SingleTask(who), Num(8),
                            BinOp("MOD", BinOp("+", who, Var("v")),
                                  Var("num_tasks")), is_async=True)
        return SyncStmt(AllTasks())

    def cond():
        kind = draw(st.sampled_from(["eq", "eq", "eq", "ge", "t",
                                     "raises"]))
        v, k = Var("v"), Num(draw(ks))
        if kind == "eq":
            return BinOp("=", v, k)
        if kind == "ge":
            return BinOp(">=", v, k)
        if kind == "t":
            return BinOp("=", v, Var("t"))
        return BinOp("=", BinOp("/", Num(4), BinOp("-", v, k)), Num(2))

    body = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 9)) == 0:
            body.append(leaf())
            continue
        otherwise = [leaf()] if draw(st.booleans()) else []
        body.append(IfStmt(cond(), [leaf()], otherwise))
    loop = ForEach("v", Num(lo), Num(hi), body)
    return Program([ForEach("t", Num(0), Num(1), [loop]),
                    AwaitStmt(AllTasks())])


@given(if_tables(), st.integers(min_value=1, max_value=4))
@settings(max_examples=120, deadline=None)
def test_if_tables_match_reference(program, nranks):
    compiled = ConceptualProgram(program, name="table")
    assert_same_as_reference(compiled, nranks, make_model("simple"),
                             max_steps=5000)
    tests_v_only = all(isinstance(s, IfStmt) and not s.otherwise
                       and s.cond.op == "=" and s.cond.right != Var("t")
                       and s.cond.left == Var("v")
                       for s in program.stmts[0].body[0].body)
    if tests_v_only:
        # a pure ``v = k`` table always folds
        assert "each" not in _loop_forms(compiled, nranks).get("v", set())


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
