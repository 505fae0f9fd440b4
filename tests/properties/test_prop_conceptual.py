"""Property tests for the coNCePTuaL toolchain: for every AST the
generator could emit, print → parse is the identity; and every word-level
mutant of a generated benchmark parses or ends in a typed error."""

import functools
import re

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, ForEach, ForRep,
                                        IfStmt, IsIn, LogStmt,
                                        MulticastStmt, Num, Program,
                                        RecvStmt, ReduceStmt, ResetStmt,
                                        SendStmt, SingleTask, SuchThat,
                                        SyncStmt, Var)
from repro.conceptual.compiler import ConceptualProgram
from repro.conceptual.parser import parse
from repro.conceptual.printer import print_program
from repro.errors import ReproError

# -- expression strategy ----------------------------------------------------
_numbers = st.integers(min_value=0, max_value=4096).map(Num)
_vars = st.sampled_from(["t", "rep0", "rep1", "num_tasks"]).map(Var)
_atoms = st.one_of(_numbers, _vars)


def _arith(children):
    return st.builds(BinOp, st.sampled_from(["+", "-", "*", "MOD"]),
                     children, children)


arith_exprs = st.recursive(_atoms, _arith, max_leaves=6)

bool_exprs = st.one_of(
    st.builds(BinOp, st.sampled_from(["=", "<>", "<", ">", "<=", ">="]),
              arith_exprs, arith_exprs),
    st.builds(lambda item, members: IsIn(item, tuple(members)), _vars,
              st.lists(_numbers, min_size=1, max_size=4)),
    st.builds(BinOp, st.just("DIVIDES"), _numbers.filter(
        lambda n: n.value > 0), arith_exprs),
)
bool_exprs = st.one_of(
    bool_exprs,
    st.builds(BinOp, st.sampled_from(["/\\", "\\/"]), bool_exprs,
              bool_exprs),
)

# -- selector strategy ---------------------------------------------------------
selectors = st.one_of(
    st.just(AllTasks()),
    st.just(AllTasks("t")),
    st.builds(SingleTask, _numbers),
    st.builds(SuchThat, st.just("t"), bool_exprs),
)

# -- statement strategy -----------------------------------------------------------
_simple_stmts = st.one_of(
    st.builds(SendStmt, selectors, _numbers, arith_exprs,
              st.just(Num(1)), st.booleans(), st.just(True),
              st.integers(0, 9)),
    st.builds(RecvStmt, selectors, _numbers,
              st.one_of(st.none(), arith_exprs), st.just(Num(1)),
              st.booleans(), st.integers(0, 9)),
    st.builds(MulticastStmt, selectors, _numbers, selectors),
    st.builds(ReduceStmt, selectors, _numbers, selectors),
    st.builds(SyncStmt, selectors),
    st.builds(ComputeStmt, selectors,
              st.floats(min_value=0.001, max_value=1e6,
                        allow_nan=False).map(lambda x: Num(round(x, 3)))),
    st.builds(ResetStmt, selectors),
    st.builds(AwaitStmt, selectors),
    st.builds(LogStmt, selectors,
              st.sampled_from(["MEAN", "MEDIAN", "SUM", "FINAL"]),
              st.sampled_from(["elapsed_usecs", "bytes_sent"]),
              st.text(alphabet="abc XYZ09_.-()%", min_size=1,
                      max_size=12)),
)


def _compound(children):
    bodies = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.builds(ForRep, st.integers(1, 1000).map(Num), bodies),
        st.builds(ForEach, st.sampled_from(["rep0", "rep1"]),
                  st.just(Num(0)), st.integers(1, 99).map(Num), bodies),
        st.builds(IfStmt, bool_exprs, bodies, st.one_of(
            st.just([]), bodies)),
    )


statements = st.recursive(_simple_stmts, _compound, max_leaves=8)
programs = st.lists(statements, min_size=1, max_size=5).map(Program)


class TestRoundTripProperty:
    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_print_parse_identity(self, program):
        text = print_program(program)
        assert parse(text) == program

    @given(programs)
    @settings(max_examples=50, deadline=None)
    def test_printing_is_fixpoint(self, program):
        text = print_program(program)
        assert print_program(parse(text)) == text


@functools.lru_cache(maxsize=None)
def _generated(app):
    """The coNCePTuaL benchmark generated from ``app`` at np 4."""
    from repro.pipeline import (Pipeline, PipelineConfig, TraceStage,
                                generation_stages)
    return Pipeline([TraceStage()] + generation_stages()).run(
        PipelineConfig(app=app, nranks=4)).source


#: words an edit writes: keywords, operators, and numbers at the edges of
#: what a literal can hold
_WORDS = ("TASK", "TASKS", "ALL", "SENDS", "RECEIVES", "MESSAGE", "BYTES",
          "WITH", "TAG", "FOR", "EACH", "IN", "REPETITIONS", "IF", "THEN",
          "OTHERWISE", "SUCH", "THAT", "IS", "{", "}", "(", ")", ",",
          "...", "=", "<=", "+", "-", "*", "/", "MOD", "t", "rep1", "0",
          "1", "-1", "4", "1.5", "1e999", "-1e999", "1e-999", "nan",
          "99999999999999999999")
#: where an edit lands: a fraction of the way through the words, or the
#: word right after the first occurrence of a keyword
_SPOT = (st.floats(0.0, 1.0, exclude_max=True)
         | st.sampled_from(("TAG", "BYTES", "TASK", "FOR", "IN",
                            "COMPUTES", "IF")))
_EDIT = st.tuples(_SPOT, st.sampled_from(("replace", "delete", "insert")),
                  st.sampled_from(_WORDS))


def mutate_words(text, edits):
    """``text`` with each ``(spot, kind, word)`` edit applied in turn."""
    parts = re.split(r"(\s+)", text)
    for spot, kind, word in edits:
        words = [i for i, p in enumerate(parts) if p and not p.isspace()]
        if isinstance(spot, str):
            after = [i for i in words if parts[i] == spot][:1]
            at = words.index(after[0]) + 1 if after else 0
        else:
            at = int(spot * len(words))
        i = words[min(at, len(words) - 1)]
        if kind == "replace":
            parts[i] = word
        elif kind == "delete":
            parts[i] = ""
        else:
            parts[i] = f"{word} {parts[i]}"
    return "".join(parts)


#: numbers a number edit writes
_NUMBERS = ("0", "1", "2", "3", "5", "-1", "16", "1.5", "1e999",
            "99999999999999999999")


#: engine steps a mutant may run for: the unmutated np 4 benchmarks
#: take at most a few thousand
_MUTANT_STEPS = 20_000


class TestMutatedSourceTypedEdge:
    """A mutated generated benchmark parses, compiles and runs to a
    result under a step budget, or ends in a
    :class:`~repro.errors.ReproError`; never in a raw exception."""

    @seed(2011)
    @given(st.sampled_from(("lu", "mg", "sweep3d", "cg")),
           st.lists(_EDIT, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    @example("lu", [("TAG", "replace", "1e999")])
    @example("mg", [("IN", "replace", "99999999999999999999")])
    @example("cg", [("FOR", "replace", "99999999999999999999")])
    def test_mutant_runs_or_raises_typed(self, app, edits):
        _run_mutant(mutate_words(_generated(app), edits))

    @seed(2012)
    @given(st.sampled_from(("lu", "mg", "sweep3d", "cg", "bt")),
           st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.sampled_from(_NUMBERS)),
                    min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_number_mutant_runs_or_raises_typed(self, app, edits):
        # most word edits break the syntax; a changed number mostly
        # parses, so the compiler (loop bounds, the per-iteration form,
        # task ids) and the run get the mutant
        _run_mutant(mutate_numbers(_generated(app), edits))


def mutate_numbers(text, edits):
    """``text`` with, for each ``(spot, number)`` edit, the integer
    literal a fraction ``spot`` of the way through them replaced."""
    for spot, number in edits:
        found = list(re.finditer(r"\b\d+\b", text))
        if not found:
            break
        m = found[int(spot * len(found))]
        text = text[:m.start()] + number + text[m.end():]
    return text


def _run_mutant(text):
    try:
        program = ConceptualProgram.from_source(text)
        program.run(4, max_steps=_MUTANT_STEPS)
    except ReproError:
        pass
