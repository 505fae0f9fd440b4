"""``ConceptualProgram.from_source`` parses a text once and reuses the AST.

A what-if sweep compiles the same cached source once per point; only the
first compile may run the parser, and every compile still builds (and
counts) a whole program.
"""

import pytest

from repro import obs
from repro.conceptual import ConceptualProgram, compiler, parse
from repro.errors import ConceptualSyntaxError
from repro.sweep import SweepPlan, run_sweep
from repro.sweep.plan import TEMPLATE

GOOD = """\
ALL TASKS t SEND A 64 BYTE MESSAGE TO TASK (t + 1) MOD num_tasks THEN
TASK 0 COMPUTES FOR 5 MICROSECONDS
"""
BAD = "ALL TASKS SEND A BYTE MESSAGE TO"


@pytest.fixture(autouse=True)
def no_last_parse(monkeypatch):
    """Each test starts with nothing kept from earlier parses."""
    monkeypatch.setattr(compiler, "_last_parse", None)


def test_fig7_sweep_parses_its_source_once(tmp_path):
    plan = SweepPlan.loads(TEMPLATE)
    with obs.instrumented() as inst:
        result = run_sweep(plan, workers=1, cache_dir=str(tmp_path))
    assert [p.status for p in result.points] == ["ok"] * 11
    # point 0 compiles the emitted AST; the other ten read the cached
    # source, and only the first of them runs the parser
    assert inst.counters["conceptual.parses"] == 1
    text, ast = compiler._last_parse
    assert ast == parse(text)


def test_repeat_compile_reuses_ast_but_builds_program():
    with obs.instrumented() as inst:
        first = ConceptualProgram.from_source(GOOD)
        again = ConceptualProgram.from_source(GOOD)
    assert again is not first
    assert again.ast is first.ast
    assert inst.counters["conceptual.parses"] == 1
    assert inst.counters["conceptual.statements_compiled"] == 2 * len(
        first.sites)


def test_names_keep_distinct_call_sites():
    a = ConceptualProgram.from_source(GOOD, name="a")
    b = ConceptualProgram.from_source(GOOD, name="b")
    assert a.ast is b.ast
    assert {s.frames[0][0] for s in a.sites} == {"a"}
    assert {s.frames[0][0] for s in b.sites} == {"b"}
    assert set(a.sites).isdisjoint(b.sites)


def test_failed_parse_is_never_kept():
    with obs.instrumented() as inst:
        with pytest.raises(ConceptualSyntaxError):
            ConceptualProgram.from_source(BAD)
        ConceptualProgram.from_source(GOOD)
        with pytest.raises(ConceptualSyntaxError):
            ConceptualProgram.from_source(BAD)
    assert inst.counters["conceptual.parses"] == 3
    assert compiler._last_parse[0] == GOOD


def test_one_entry_follows_the_latest_text():
    other = GOOD.replace("64", "128")
    texts = (GOOD, other, GOOD)
    with obs.instrumented() as inst:
        programs = [ConceptualProgram.from_source(t) for t in texts]
    # one entry: returning to the first text parses it again
    assert inst.counters["conceptual.parses"] == 3
    assert [p.ast for p in programs] == [parse(t) for t in texts]
