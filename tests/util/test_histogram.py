"""Unit tests for repro.util.histogram."""

import itertools

import pytest

from repro.util.histogram import TimeHistogram


class TestBasics:
    def test_empty(self):
        h = TimeHistogram()
        assert h.count == 0
        assert h.total == 0.0
        assert h.mean == 0.0

    def test_add_and_moments(self):
        h = TimeHistogram()
        for t in (1e-6, 2e-6, 3e-6):
            h.add(t)
        assert h.count == 3
        assert h.total == pytest.approx(6e-6)
        assert h.mean == pytest.approx(2e-6)
        assert h.min == pytest.approx(1e-6)
        assert h.max == pytest.approx(3e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeHistogram().add(-1.0)

    def test_zero_duration_ok(self):
        h = TimeHistogram()
        h.add(0.0)
        assert h.count == 1
        assert h.total == 0.0

    def test_total_exact_under_binning(self):
        # bins are lossy in *placement* but (count, sum) keeps totals exact
        h = TimeHistogram()
        vals = [1.1e-6 * i for i in range(1, 200)]
        for v in vals:
            h.add(v)
        assert h.total == pytest.approx(sum(vals), rel=1e-12)


class TestMerge:
    def test_merge_counts_and_totals(self):
        a, b = TimeHistogram(), TimeHistogram()
        for t in (1e-6, 5e-6):
            a.add(t)
        for t in (2e-3, 1e-6):
            b.add(t)
        a.merge(b)
        assert a.count == 4
        assert a.total == pytest.approx(1e-6 + 5e-6 + 2e-3 + 1e-6)
        assert a.max == pytest.approx(2e-3)
        assert a.min == pytest.approx(1e-6)

    def test_merge_empty_is_noop(self):
        a = TimeHistogram()
        a.add(1e-5)
        before = a.serialize()
        a.merge(TimeHistogram())
        assert a.serialize() == before

    def test_copy_is_independent(self):
        a = TimeHistogram()
        a.add(1e-5)
        b = a.copy()
        b.add(1e-5)
        assert a.count == 1 and b.count == 2


class TestReplay:
    def test_replay_preserves_total(self):
        h = TimeHistogram()
        vals = [1e-6, 1e-6, 8e-4, 3e-5, 3e-5, 3e-5]
        for v in vals:
            h.add(v)
        drawn = list(itertools.islice(h.replay_values(), h.count))
        assert sum(drawn) == pytest.approx(h.total, rel=1e-9)

    def test_replay_is_deterministic(self):
        h = TimeHistogram()
        for v in (1e-6, 5e-5, 9e-4):
            h.add(v)
        a = list(itertools.islice(h.replay_values(), 10))
        b = list(itertools.islice(h.replay_values(), 10))
        assert a == b

    def test_replay_interleaves_bins(self):
        h = TimeHistogram()
        for _ in range(3):
            h.add(1e-6)
            h.add(1e-3)
        first_two = list(itertools.islice(h.replay_values(), 2))
        # round-robin across bins: small then large
        assert first_two[0] < first_two[1]

    def test_replay_empty_yields_zero(self):
        h = TimeHistogram()
        assert next(iter(h.replay_values())) == 0.0

    def test_replay_cycles_past_count(self):
        h = TimeHistogram()
        h.add(2e-6)
        vals = list(itertools.islice(h.replay_values(), 5))
        assert all(v == pytest.approx(2e-6) for v in vals)


class TestSerialization:
    def test_roundtrip(self):
        h = TimeHistogram()
        for v in (1e-6, 1e-6, 4e-5, 2e-2):
            h.add(v)
        h2 = TimeHistogram.parse(h.serialize())
        assert h2 == h
        assert h2.count == h.count
        assert h2.total == pytest.approx(h.total)

    def test_empty_roundtrip(self):
        assert TimeHistogram.parse(TimeHistogram().serialize()).count == 0
