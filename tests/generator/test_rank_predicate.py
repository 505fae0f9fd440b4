"""The emitter's rank predicates, built as ASTs, against the text form
they replace.

:func:`~repro.generator.emit_conceptual.rank_predicate` builds the
``SuchThat`` predicate of a rank set directly.  The emitter used to
render the set as predicate text and parse it back; :func:`_old_text`
keeps that renderer as the oracle.  The built AST must equal the parse
of the old text for every rank set in the paper apps' traces, every set
the emitter asks for while generating them, and seeded random sets, so
generated sources stay byte-identical.
"""

import random
from functools import lru_cache

import pytest

from repro.apps import PAPER_SUITE, make_app
from repro.apps.base import AppError
from repro.conceptual.parser import Parser
from repro.generator import emit_conceptual, generate_from_application
from repro.generator.emit_conceptual import rank_predicate
from repro.scalatrace.rsd import LoopNode
from repro.sim.network import make_model
from repro.util.rankset import RankSet


def _old_text(ranks: RankSet, var: str, world: int) -> str:
    """The retired text renderer (empty for the whole world)."""
    members = list(ranks)
    if len(members) == world:
        return ""
    if len(members) == 1:
        return f"{var} = {members[0]}"
    if len(ranks.runs) == 1:
        start, stop, stride = ranks.runs[0]
        if stride == 1:
            if start == 0 and stop == world - 1:
                return ""
            if start == 0:
                return f"{var} <= {stop}"
            if stop == world - 1:
                return f"{var} >= {start}"
            return f"{var} >= {start} /\\ {var} <= {stop}"
        clauses = [f"{var} MOD {stride} = {start % stride}"]
        if start > 0:
            clauses.append(f"{var} >= {start}")
        if stop < world - 1:
            clauses.append(f"{var} <= {stop}")
        return " /\\ ".join(clauses)
    return f"{var} IS IN {{{', '.join(str(r) for r in members)}}}"


def assert_matches_text(ranks: RankSet, world: int) -> None:
    text = _old_text(ranks, "t", world)
    built = rank_predicate(ranks, "t", world)
    if not text:
        assert built is None, ranks
    else:
        assert built == Parser(text).parse_expr(), (ranks, text)


def _node_ranks(nodes):
    for node in nodes:
        yield node.ranks
        if isinstance(node, LoopNode):
            yield from _node_ranks(node.body)


@lru_cache(maxsize=None)
def _app_rank_sets(app, nranks):
    """Every rank set of ``app``'s trace and every set the emitter asked
    a predicate for while generating it."""
    asked = []
    real = emit_conceptual.rank_predicate

    def spy(ranks, var, world):
        asked.append(ranks)
        return real(ranks, var, world)
    emit_conceptual.rank_predicate = spy
    try:
        bench = generate_from_application(make_app(app, nranks, "S"),
                                          nranks,
                                          model=make_model("bluegene"))
    except AppError as exc:
        pytest.skip(str(exc))
    finally:
        emit_conceptual.rank_predicate = real
    assert bench.trace.world_size == nranks
    return set(_node_ranks(bench.trace.nodes)) | set(asked)


@pytest.mark.parametrize("nranks", [4, 16, pytest.param(
    64, marks=pytest.mark.slow)])
@pytest.mark.parametrize("app", PAPER_SUITE)
def test_paper_app_rank_sets(app, nranks):
    sets = _app_rank_sets(app, nranks)
    assert sets
    for ranks in sets:
        assert_matches_text(ranks, nranks)


@pytest.mark.parametrize("seed", range(4))
def test_random_rank_sets(seed):
    rng = random.Random(seed)
    for _ in range(500):
        world = rng.choice([2, 3, 8, 16, 64, 100])
        shape = rng.choice(["any", "run", "strided"])
        if shape == "any":
            ranks = RankSet(rng.sample(range(world),
                                       rng.randint(1, world)))
        else:
            stride = 1 if shape == "run" else rng.randint(2, 5)
            start = rng.randrange(world)
            stop = rng.randint(start, world - 1)
            ranks = RankSet.interval(start, stop, stride)
        assert_matches_text(ranks, world)
