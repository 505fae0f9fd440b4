"""Unit tests for repro.util.valueseq."""

import random

import pytest

from repro.util.valueseq import ValueSeq


def reference_parse(text):
    """The parser ``ValueSeq.parse`` replaced, kept as an oracle: every
    text goes through a per-character split on commas outside
    parentheses."""
    text = text.strip()
    s = ValueSeq()
    if not text or text == "-":
        return s
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    for part in parts:
        part = part.strip()
        if part.startswith("("):
            close = part.rindex(")")
            value = ValueSeq._parse_value(part[:close + 1])
            rest = part[close + 1:]
            count = int(rest[1:]) if rest.startswith("x") else 1
        elif "x" in part:
            v_s, c_s = part.rsplit("x", 1)
            value, count = ValueSeq._parse_value(v_s), int(c_s)
        else:
            value, count = ValueSeq._parse_value(part), 1
        s.append(value, count)
    return s


def outcome(parser, text):
    try:
        return parser(text).runs
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


class TestBuild:
    def test_empty(self):
        s = ValueSeq()
        assert len(s) == 0
        assert list(s) == []

    def test_append_merges_runs(self):
        s = ValueSeq([5, 5, 5, 7])
        assert s.runs == [(5, 3), (7, 1)]
        assert len(s) == 4

    def test_constant_constructor(self):
        s = ValueSeq.constant(9, 4)
        assert s.runs == [(9, 4)]
        assert s.is_constant()
        assert s.value == 9

    def test_constant_zero_count(self):
        assert len(ValueSeq.constant(9, 0)) == 0

    def test_from_runs_merges_adjacent(self):
        s = ValueSeq.from_runs([(1, 2), (1, 3), (2, 1)])
        assert s.runs == [(1, 5), (2, 1)]

    def test_from_runs_rejects_bad_count(self):
        with pytest.raises(ValueError):
            ValueSeq.from_runs([(1, 0)])

    def test_append_count(self):
        s = ValueSeq()
        s.append(4, count=3)
        assert list(s) == [4, 4, 4]
        with pytest.raises(ValueError):
            s.append(4, count=0)


class TestAccess:
    def test_getitem(self):
        s = ValueSeq([1, 1, 2, 3, 3, 3])
        assert [s[i] for i in range(6)] == [1, 1, 2, 3, 3, 3]
        assert s[-1] == 3

    def test_getitem_out_of_range(self):
        with pytest.raises(IndexError):
            ValueSeq([1])[1]

    def test_value_on_nonconstant_raises(self):
        with pytest.raises(ValueError):
            ValueSeq([1, 2]).value

    def test_value_on_empty_raises(self):
        with pytest.raises(ValueError):
            ValueSeq().value

    def test_first(self):
        assert ValueSeq([8, 9]).first() == 8

    def test_total(self):
        assert ValueSeq([10, 10, 5]).total() == 25


class TestEqualitySerialization:
    def test_eq_hash(self):
        assert ValueSeq([1, 1, 2]) == ValueSeq.from_runs([(1, 2), (2, 1)])
        assert hash(ValueSeq([1, 2])) == hash(ValueSeq([1, 2]))

    def test_serialize_forms(self):
        assert ValueSeq().serialize() == "-"
        assert ValueSeq([5]).serialize() == "5"
        assert ValueSeq([5, 5, 5]).serialize() == "5x3"
        assert ValueSeq([5, 5, 7]).serialize() == "5x2,7"

    def test_roundtrip(self):
        for s in (ValueSeq(), ValueSeq([1]), ValueSeq([2, 2, 3, 3, 3, 1])):
            assert ValueSeq.parse(s.serialize()) == s


ALPHABET = "0123456789" * 3 + "xx,,,() -  "


def random_seq(rng):
    """A random run-length sequence; about a third of its values are
    vector-collective size lists."""
    def value():
        if rng.random() < 0.3:
            return tuple(rng.randint(-3, 500)
                         for _ in range(rng.randint(0, 4)))
        return rng.randint(-5, 10 ** rng.randint(0, 6))

    return ValueSeq.from_runs([(value(), rng.randint(1, 40))
                               for _ in range(rng.randint(0, 8))])


def random_text(rng):
    """Either free text over the trace-value alphabet or a serialized
    sequence with one to three characters edited, so near-valid vector
    texts are common."""
    if rng.random() < 0.5:
        return "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randint(0, 24)))
    chars = list(random_seq(rng).serialize())
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        edit = rng.random()
        if edit < 0.4:
            chars.insert(at, rng.choice(ALPHABET))
        elif chars and at < len(chars):
            if edit < 0.7:
                del chars[at]
            else:
                chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


class TestParseAgainstReference:
    """Seeded properties: ``parse`` agrees with the per-character oracle
    on arbitrary text and inverts ``serialize``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_text_same_result_or_same_error(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            text = random_text(rng)
            assert outcome(ValueSeq.parse, text) == outcome(
                reference_parse, text), repr(text)

    @pytest.mark.parametrize("seed", range(8))
    def test_serialize_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            seq = random_seq(rng)
            text = seq.serialize()
            assert ValueSeq.parse(text) == seq, text
            assert reference_parse(text) == seq, text
