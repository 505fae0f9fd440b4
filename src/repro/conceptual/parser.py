"""Recursive-descent parser for the coNCePTuaL subset.

Grammar sketch (verbs already normalized by the lexer)::

    program   := stmt_seq EOF
    stmt_seq  := stmt (THEN stmt)*
    stmt      := for_stmt | if_stmt | block | simple_stmt
    block     := '{' stmt_seq '}'
    for_stmt  := FOR expr REPETITIONS stmt
               | FOR EACH ident IN '{' expr ',' '...' ',' expr '}' stmt
    if_stmt   := IF expr THEN stmt (OTHERWISE stmt)?
    simple    := selector clause
    selector  := ALL TASKS ident? | TASK expr | TASKS ident SUCH THAT expr
    clause    := [ASYNCHRONOUSLY] SEND count size unit MESSAGE
                     TO [UNSUSPECTING] TASK expr [WITH TAG num]
               | [ASYNCHRONOUSLY] RECEIVE count size unit MESSAGE
                     FROM (ANY TASK | TASK expr) [WITH TAG num]
               | MULTICAST A size unit MESSAGE TO selector
               | REDUCE A size unit VALUE TO selector
               | SYNCHRONIZE
               | COMPUTE FOR expr MICROSECONDS
               | RESET THEIR COUNTERS
               | AWAIT COMPLETION
               | LOG THE agg OF counter AS string

Expressions use the operators ``+ - * / MOD``, comparisons
``= <> < > <= >=``, the connectives ``/\\`` and ``\\/``, ``DIVIDES``, and
``IS IN { ... }`` membership.  ``WITH TAG`` is a small extension to real
coNCePTuaL that preserves MPI tag selectivity in generated benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.conceptual.ast_nodes import (AGGREGATES, AllTasks, AwaitStmt,
                                        BinOp, ComputeStmt, Expr, ForEach,
                                        ForRep, IfStmt, IsIn, LogStmt,
                                        MulticastStmt, Num, Program,
                                        RecvStmt, ReduceStmt, ResetStmt,
                                        SendStmt, SingleTask, Stmt, SuchThat,
                                        SyncStmt, TaskSelector, UNITS, Var)
from repro.conceptual.lexer import Token, tokenize
from repro.errors import ConceptualSyntaxError
from repro import obs


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in names

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def expect_keyword(self, name: str) -> Token:
        tok = self.peek()
        if not self.at_keyword(name):
            raise ConceptualSyntaxError(
                f"expected {name}, found {tok.value or tok.kind!r}",
                tok.line, tok.column)
        return self.advance()

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if not self.at_op(op):
            raise ConceptualSyntaxError(
                f"expected {op!r}, found {tok.value or tok.kind!r}",
                tok.line, tok.column)
        return self.advance()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ConceptualSyntaxError(
                f"expected identifier, found {tok.value or tok.kind!r}",
                tok.line, tok.column)
        return self.advance().value

    # -- entry ------------------------------------------------------------------
    def parse_program(self) -> Program:
        stmts = self.parse_stmt_seq()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ConceptualSyntaxError(
                f"unexpected trailing input {tok.value!r}",
                tok.line, tok.column)
        return Program(stmts)

    def parse_stmt_seq(self) -> List[Stmt]:
        stmts = [self.parse_stmt()]
        while self.at_keyword("THEN"):
            self.advance()
            stmts.append(self.parse_stmt())
        return stmts

    # -- statements ----------------------------------------------------------------
    def parse_stmt(self) -> Stmt:
        if self.at_op("{"):
            # a bare block groups its statements; flatten single-element
            body = self.parse_block()
            if len(body) == 1:
                return body[0]
            # represent a grouping block as FOR 1 REPETITIONS
            return ForRep(Num(1), body)
        if self.at_keyword("FOR"):
            return self.parse_for()
        if self.at_keyword("IF"):
            return self.parse_if()
        return self.parse_simple()

    def parse_block(self) -> List[Stmt]:
        self.expect_op("{")
        stmts = self.parse_stmt_seq()
        self.expect_op("}")
        return stmts

    def _stmt_or_block(self) -> List[Stmt]:
        if self.at_op("{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_for(self) -> Stmt:
        self.expect_keyword("FOR")
        if self.at_keyword("EACH"):
            self.advance()
            var = self.expect_ident()
            self.expect_keyword("IN")
            self.expect_op("{")
            lo = self.parse_expr()
            self.expect_op(",")
            self.expect_op("...")
            self.expect_op(",")
            hi = self.parse_expr()
            self.expect_op("}")
            body = self._stmt_or_block()
            return ForEach(var, lo, hi, body)
        count = self.parse_expr()
        self.expect_keyword("REPETITIONS")
        body = self._stmt_or_block()
        return ForRep(count, body)

    def parse_if(self) -> Stmt:
        self.expect_keyword("IF")
        cond = self.parse_expr()
        self.expect_keyword("THEN")
        then = self._stmt_or_block()
        otherwise: List[Stmt] = []
        if self.at_keyword("OTHERWISE"):
            self.advance()
            otherwise = self._stmt_or_block()
        return IfStmt(cond, then, otherwise)

    # -- selectors -------------------------------------------------------------------
    def parse_selector(self) -> TaskSelector:
        if self.at_keyword("ALL"):
            self.advance()
            self.expect_keyword("TASKS")
            if self.peek().kind == "IDENT":
                return AllTasks(self.advance().value)
            return AllTasks()
        if self.at_keyword("TASK"):
            self.advance()
            return SingleTask(self.parse_expr())
        if self.at_keyword("TASKS"):
            self.advance()
            var = self.expect_ident()
            self.expect_keyword("SUCH")
            self.expect_keyword("THAT")
            return SuchThat(var, self.parse_expr())
        tok = self.peek()
        raise ConceptualSyntaxError(
            f"expected a task selector, found {tok.value or tok.kind!r}",
            tok.line, tok.column)

    # -- simple statements --------------------------------------------------------------
    def parse_simple(self) -> Stmt:
        sel = self.parse_selector()
        is_async = False
        if self.at_keyword("ASYNCHRONOUSLY"):
            self.advance()
            is_async = True
        tok = self.peek()
        if self.at_keyword("SEND"):
            return self._parse_send(sel, is_async)
        if self.at_keyword("RECEIVE"):
            return self._parse_recv(sel, is_async)
        if is_async:
            raise ConceptualSyntaxError(
                "ASYNCHRONOUSLY applies only to SEND/RECEIVE",
                tok.line, tok.column)
        if self.at_keyword("MULTICAST"):
            self.advance()
            size = self._parse_sized("MESSAGE")
            self.expect_keyword("TO")
            targets = self.parse_selector()
            return MulticastStmt(sel, size, targets)
        if self.at_keyword("REDUCE"):
            self.advance()
            size = self._parse_sized("VALUE")
            self.expect_keyword("TO")
            targets = self.parse_selector()
            return ReduceStmt(sel, size, targets)
        if self.at_keyword("SYNCHRONIZE"):
            self.advance()
            return SyncStmt(sel)
        if self.at_keyword("COMPUTE"):
            self.advance()
            self.expect_keyword("FOR")
            usecs = self.parse_expr()
            self.expect_keyword("MICROSECONDS")
            return ComputeStmt(sel, usecs)
        if self.at_keyword("RESET"):
            self.advance()
            self.expect_keyword("THEIR")
            self.expect_keyword("COUNTERS")
            return ResetStmt(sel)
        if self.at_keyword("AWAIT"):
            self.advance()
            self.expect_keyword("COMPLETION")
            return AwaitStmt(sel)
        if self.at_keyword("LOG"):
            self.advance()
            self.expect_keyword("THE")
            agg_tok = self.advance()
            if agg_tok.value not in AGGREGATES:
                raise ConceptualSyntaxError(
                    f"unknown aggregate {agg_tok.value!r}",
                    agg_tok.line, agg_tok.column)
            self.expect_keyword("OF")
            counter = self.expect_ident()
            self.expect_keyword("AS")
            label_tok = self.peek()
            if label_tok.kind != "STRING":
                raise ConceptualSyntaxError("expected a string label",
                                            label_tok.line, label_tok.column)
            self.advance()
            return LogStmt(sel, agg_tok.value, counter, label_tok.value)
        raise ConceptualSyntaxError(
            f"expected a statement verb, found {tok.value or tok.kind!r}",
            tok.line, tok.column)

    def _parse_count_and_size(self, noun: str):
        """``A 4 KILOBYTE MESSAGE`` or ``3 512 BYTE MESSAGES`` or
        ``A 0 BYTE MESSAGE``; returns (count_expr, size_expr_in_bytes)."""
        if self.at_keyword("A"):
            self.advance()
            count: Expr = Num(1)
            size = self._parse_size()
        else:
            first = self.parse_expr()
            if self._at_unit():
                count = Num(1)
                size = self._apply_unit(first)
            else:
                count = first
                size = self._parse_size()
        self.expect_keyword(noun)
        return count, size

    def _parse_sized(self, noun: str) -> Expr:
        """``A <size> <unit> MESSAGE|VALUE`` (no message count)."""
        if self.at_keyword("A"):
            self.advance()
        size = self._parse_size()
        self.expect_keyword(noun)
        return size

    def _at_unit(self) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in UNITS

    def _parse_size(self) -> Expr:
        if self._at_unit():
            # bare unit, e.g. "A DOUBLEWORD VALUE" = one doubleword
            return self._apply_unit(Num(1))
        expr = self.parse_expr()
        return self._apply_unit(expr)

    def _apply_unit(self, expr: Expr) -> Expr:
        tok = self.peek()
        if not self._at_unit():
            raise ConceptualSyntaxError(
                f"expected a size unit, found {tok.value or tok.kind!r}",
                tok.line, tok.column)
        mult = UNITS[self.advance().value]
        if mult == 1:
            return expr
        if isinstance(expr, Num):
            return Num(expr.value * mult)
        return BinOp("*", expr, Num(mult))

    def _parse_tag(self) -> int:
        if self.at_keyword("WITH"):
            self.advance()
            if self.at_keyword("ANY"):
                self.advance()
                self.expect_keyword("TAG")
                return -1  # ANY_TAG
            self.expect_keyword("TAG")
            tok = self.peek()
            if tok.kind != "NUMBER":
                raise ConceptualSyntaxError("expected a numeric tag",
                                            tok.line, tok.column)
            self.advance()
            tag = float(tok.value)
            if not tag.is_integer():  # also rejects inf and nan
                raise ConceptualSyntaxError(
                    f"tag must be a finite integer, got {tok.value}",
                    tok.line, tok.column)
            return int(tag)
        return 0

    def _parse_send(self, sel: TaskSelector, is_async: bool) -> SendStmt:
        self.expect_keyword("SEND")
        count, size = self._parse_count_and_size("MESSAGE")
        self.expect_keyword("TO")
        unsuspecting = False
        if self.at_keyword("UNSUSPECTING"):
            self.advance()
            unsuspecting = True
        self.expect_keyword("TASK")
        dest = self.parse_expr()
        tag = self._parse_tag()
        return SendStmt(sel, size, dest, count, is_async, unsuspecting, tag)

    def _parse_recv(self, sel: TaskSelector, is_async: bool) -> RecvStmt:
        self.expect_keyword("RECEIVE")
        count, size = self._parse_count_and_size("MESSAGE")
        self.expect_keyword("FROM")
        if self.at_keyword("ANY"):
            self.advance()
            self.expect_keyword("TASK")
            source: Optional[Expr] = None
        else:
            self.expect_keyword("TASK")
            source = self.parse_expr()
        tag = self._parse_tag()
        return RecvStmt(sel, size, source, count, is_async, tag)

    # -- expressions ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.at_op("\\/"):
            self.advance()
            left = BinOp("\\/", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_cmp()
        while self.at_op("/\\"):
            self.advance()
            left = BinOp("/\\", left, self._parse_cmp())
        return left

    def _parse_cmp(self) -> Expr:
        left = self._parse_add()
        if self.at_op("=", "<>", "<", ">", "<=", ">="):
            op = self.advance().value
            return BinOp(op, left, self._parse_add())
        if self.at_keyword("DIVIDES"):
            self.advance()
            return BinOp("DIVIDES", left, self._parse_add())
        if self.at_keyword("IS"):
            self.advance()
            self.expect_keyword("IN")
            self.expect_op("{")
            members = [self.parse_expr()]
            while self.at_op(","):
                self.advance()
                members.append(self.parse_expr())
            self.expect_op("}")
            return IsIn(left, tuple(members))
        return left

    def _parse_add(self) -> Expr:
        left = self._parse_mul()
        while self.at_op("+", "-"):
            op = self.advance().value
            left = BinOp(op, left, self._parse_mul())
        return left

    def _parse_mul(self) -> Expr:
        left = self._parse_unary()
        while self.at_op("*", "/") or self.at_keyword("MOD"):
            if self.at_keyword("MOD"):
                self.advance()
                op = "MOD"
            else:
                op = self.advance().value
            left = BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            inner = self._parse_unary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return BinOp("-", Num(0), inner)
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            val = float(tok.value)
            return Num(int(val) if val.is_integer() else val)
        if tok.kind == "IDENT":
            self.advance()
            return Var(tok.value)
        if self.at_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise ConceptualSyntaxError(
            f"expected an expression, found {tok.value or tok.kind!r}",
            tok.line, tok.column)


def parse(text: str) -> Program:
    """Parse coNCePTuaL source text into a :class:`Program` AST."""
    obs.count("conceptual.parses")
    return Parser(text).parse_program()
