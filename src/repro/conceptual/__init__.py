"""coNCePTuaL reproduction: the DSL subset the benchmark generator emits —
lexer, parser, AST, semantic checks, pretty-printer, a compiler backend
targeting the simulated MPI layer, and the counters/log runtime."""

from repro.conceptual import ast_nodes as ast
from repro.conceptual.compiler import ConceptualProgram
from repro.conceptual.evaluate import eval_expr, select_ranks
from repro.conceptual.lexer import tokenize
from repro.conceptual.parser import parse
from repro.conceptual.printer import (print_program, render_expr,
                                      render_selector)
from repro.conceptual.runtime import LogDatabase, TaskCounters
from repro.conceptual.semantics import check_program

__all__ = [
    "ConceptualProgram",
    "LogDatabase",
    "TaskCounters",
    "ast",
    "check_program",
    "eval_expr",
    "parse",
    "print_program",
    "render_expr",
    "render_selector",
    "select_ranks",
    "tokenize",
]
