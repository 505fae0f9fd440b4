"""Tokenizer for the coNCePTuaL subset.

coNCePTuaL's grammar is deliberately English-like; the lexer therefore
distinguishes *keywords* (case-insensitive, e.g. ``SEND`` / ``sends``),
*identifiers* (case-sensitive: task and loop variables, counter names),
numbers (integers and decimals), strings, and a small operator set
including the logical connectives ``/\\`` and ``\\/``.

Keyword normalization strips the plural/third-person ``S`` from verbs
(``SENDS`` → ``SEND``) so the parser deals with one spelling.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.errors import ConceptualSyntaxError

KEYWORDS = {
    "FOR", "REPETITIONS", "REPETITION", "EACH", "IN", "IF", "THEN",
    "OTHERWISE", "ALL", "TASKS", "TASK", "SUCH", "THAT", "ASYNCHRONOUSLY",
    "SEND", "SENDS", "RECEIVE", "RECEIVES", "MESSAGE", "MESSAGES", "TO",
    "FROM", "UNSUSPECTING", "ANY", "MULTICAST", "MULTICASTS", "REDUCE",
    "REDUCES", "VALUE", "VALUES", "SYNCHRONIZE", "SYNCHRONIZES", "COMPUTE",
    "COMPUTES", "MICROSECONDS", "MICROSECOND", "RESET", "RESETS", "THEIR",
    "COUNTERS", "AWAIT", "AWAITS", "COMPLETION", "LOG", "LOGS", "THE", "OF",
    "AS", "A", "AN", "MOD", "DIVIDES", "IS", "WITH", "TAG", "OTHER",
    "MEAN", "MEDIAN", "MINIMUM", "MAXIMUM", "SUM", "FINAL",
    "BYTE", "BYTES", "HALFWORD", "HALFWORDS", "WORD", "WORDS",
    "DOUBLEWORD", "DOUBLEWORDS", "KILOBYTE", "KILOBYTES", "MEGABYTE",
    "MEGABYTES",
}

#: verbs whose trailing S is stripped during normalization
_PLURAL_VERBS = {
    "SENDS": "SEND", "RECEIVES": "RECEIVE", "MULTICASTS": "MULTICAST",
    "REDUCES": "REDUCE", "SYNCHRONIZES": "SYNCHRONIZE",
    "COMPUTES": "COMPUTE", "RESETS": "RESET", "AWAITS": "AWAIT",
    "LOGS": "LOG", "REPETITION": "REPETITIONS", "MICROSECOND":
    "MICROSECONDS", "MESSAGES": "MESSAGE", "VALUES": "VALUE", "AN": "A",
}

_OPERATORS = ("<=", ">=", "<>", "/\\", "\\/", "...", "+", "-", "*", "/",
              "=", "<", ">", "{", "}", "(", ")", ",")


class Token(NamedTuple):
    kind: str    # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
    value: str
    line: int
    column: int

    @property
    def number(self) -> float:
        return float(self.value)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ConceptualSyntaxError("unterminated string",
                                                line, col)
                j += 1
            if j >= n:
                raise ConceptualSyntaxError("unterminated string", line, col)
            tokens.append(Token("STRING", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()
                            and not text.startswith("...", i)):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp \
                        and not text.startswith("...", j):
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and (
                        text[j + 1].isdigit()
                        or (text[j + 1] in "+-" and j + 2 < n
                            and text[j + 2].isdigit())):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                norm = _PLURAL_VERBS.get(upper, upper)
                tokens.append(Token("KEYWORD", norm, line, col))
            else:
                tokens.append(Token("IDENT", word, line, col))
            col += j - i
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if not matched:
            raise ConceptualSyntaxError(f"unexpected character {ch!r}",
                                        line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens
