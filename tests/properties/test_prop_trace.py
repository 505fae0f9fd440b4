"""Property-based tests for the trace pipeline's headline invariant:
compression and merging are LOSSLESS — any event stream survives
folding, cross-rank merging, and serialization bit-for-bit."""

import functools

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.errors import ReproError, TraceError
from repro.scalatrace.compress import DEFAULT_MAX_WINDOW, CompressionQueue
from repro.scalatrace.merge import merge_traces, set_merge_fastpath
from repro.scalatrace.rsd import Trace
from repro.scalatrace.serialize import dumps_trace, loads_trace
from repro.util.callsite import Callsite

WORLD = 4

# A random event stream: ops drawn from a small alphabet with random
# parameters; loop structure emerges when hypothesis generates repeats.
_event = st.one_of(
    st.tuples(st.just("Isend"), st.integers(0, WORLD - 1),
              st.sampled_from((64, 1024)), st.integers(0, 2),
              st.integers(1, 3)),
    st.tuples(st.just("Irecv"), st.integers(0, WORLD - 1),
              st.just(0), st.integers(0, 2), st.integers(4, 6)),
    st.tuples(st.just("Allreduce"), st.just(-1), st.sampled_from((8, 16)),
              st.just(0), st.integers(7, 8)),
)

event_streams = st.lists(_event, min_size=0, max_size=40)

# A 35-event pattern with no repeated window of width <= 32, even across
# the seam of two copies: tiled, it only repeats at width 35, beyond the
# queue's DEFAULT_MAX_WINDOW, so nothing folds (175 nodes for 5 copies).
_WIDE_PATTERN = [
    {"S": ("Isend", 1, 64, 0), "R": ("Irecv", 1, 0, 0),
     "A": ("Allreduce", -1, 8, 0)}[op] + (int(cs),)
    for op, cs in (word.split(":") for word in (
        "R:4 S:3 R:6 A:8 R:5 R:6 A:7 A:8 S:2 A:7 R:4 S:2 A:7 A:8 S:1 A:7 "
        "A:8 R:5 R:4 A:8 S:3 R:4 S:1 A:8 R:5 S:1 R:5 A:7 S:2 R:4 S:2 A:8 "
        "S:3 A:8 A:7").split())]


def build_trace(rank, stream, world=WORLD):
    q = CompressionQueue(rank)
    for op, peer, size, tag, cs in stream:
        if op == "Allreduce":
            q.append_event(op, Callsite.synthetic("p", cs), 0, size=size)
        else:
            q.append_event(op, Callsite.synthetic("p", cs), 0, peer=peer,
                           size=size, tag=tag)
    return Trace(world, q.nodes, {0: tuple(range(world))})


def stream_of(trace, rank):
    return [(e.op, e.peer, e.size, e.tag) for e in trace.iter_rank(rank)]


def expected(stream):
    return [(op, None if op == "Allreduce" else peer, size,
             None if op == "Allreduce" else tag)
            for op, peer, size, tag, _cs in stream]


class TestCompressionLossless:
    @given(event_streams)
    @settings(max_examples=60, deadline=None)
    def test_single_rank_roundtrip(self, stream):
        trace = build_trace(0, stream)
        assert stream_of(trace, 0) == expected(stream)

    @given(event_streams)
    @example(_WIDE_PATTERN)
    @settings(max_examples=40, deadline=None)
    def test_repeated_stream_compresses_and_roundtrips(self, stream):
        tiled = stream * 5
        trace = build_trace(0, tiled)
        assert stream_of(trace, 0) == expected(tiled)
        if stream and len(stream) <= DEFAULT_MAX_WINDOW:
            # folding must pay off: node count bounded by the pattern
            # size, not the 5x repetition (greedy folding is suboptimal
            # on some overlapping-suffix patterns, so allow slack).  A
            # longer pattern may repeat only at widths beyond the queue's
            # bounded window, which stays lossless but need not fold.
            assert trace.node_count() <= 2 * len(stream) + 4

    @given(event_streams)
    @settings(max_examples=40, deadline=None)
    def test_serialize_roundtrip(self, stream):
        trace = build_trace(0, stream * 3)
        again = loads_trace(dumps_trace(trace))
        assert stream_of(again, 0) == stream_of(trace, 0)


class TestMergeLossless:
    @given(st.lists(event_streams, min_size=WORLD, max_size=WORLD))
    @settings(max_examples=40, deadline=None)
    def test_per_rank_projection_preserved(self, streams):
        traces = [build_trace(r, s) for r, s in enumerate(streams)]
        merged = merge_traces(traces)
        for r, s in enumerate(streams):
            assert stream_of(merged, r) == expected(s)

    @given(event_streams)
    @settings(max_examples=30, deadline=None)
    def test_identical_ranks_fully_merge(self, stream):
        # constant-peer variant so cross-rank closed forms always exist
        const = [(op, 0, size, tag, cs)
                 for op, _, size, tag, cs in stream]
        traces = [build_trace(r, const) for r in range(WORLD)]
        merged = merge_traces(traces)
        solo = build_trace(0, const)
        # merging identical structure must not grow the trace
        assert merged.node_count() == solo.node_count()
        for r in range(WORLD):
            assert stream_of(merged, r) == expected(const)

    @given(st.lists(event_streams, min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_merge_then_serialize(self, streams):
        streams = streams + [streams[0], streams[1]]
        traces = [build_trace(r, s) for r, s in enumerate(streams)]
        merged = merge_traces(traces)
        again = loads_trace(dumps_trace(merged))
        for r in range(WORLD):
            assert stream_of(again, r) == stream_of(merged, r)


class TestMergeFastpathInvisible:
    """The identical-sequence splice must be unobservable: merge output
    bytes are the same with the fast path on and off, for arbitrary
    streams (where it mostly declines) and for identical per-rank
    streams (where it fires on every pair merge)."""

    @staticmethod
    def _merge_both_ways(streams):
        a = merge_traces([build_trace(r, s) for r, s in enumerate(streams)])
        prev = set_merge_fastpath(False)
        try:
            b = merge_traces(
                [build_trace(r, s) for r, s in enumerate(streams)])
        finally:
            set_merge_fastpath(prev)
        return dumps_trace(a), dumps_trace(b)

    @given(st.lists(event_streams, min_size=WORLD, max_size=WORLD))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_streams(self, streams):
        with_fp, without_fp = self._merge_both_ways(streams)
        assert with_fp == without_fp

    @given(event_streams)
    @settings(max_examples=40, deadline=None)
    def test_identical_streams(self, stream):
        with_fp, without_fp = self._merge_both_ways([stream] * WORLD)
        assert with_fp == without_fp


class TestSerializeByteStability:
    """loads(dumps(t)) re-dumps byte-identically — the quoting layer is
    a bijection even for hostile embedded characters."""

    _label = st.text(alphabet="ab %\\\n\r\t:.", min_size=0, max_size=8)

    @given(event_streams)
    @settings(max_examples=40, deadline=None)
    def test_redump_byte_identical(self, stream):
        text = dumps_trace(build_trace(0, stream * 3))
        assert dumps_trace(loads_trace(text)) == text

    @given(st.lists(event_streams, min_size=WORLD, max_size=WORLD))
    @settings(max_examples=30, deadline=None)
    def test_merged_redump_byte_identical(self, streams):
        traces = [build_trace(r, s) for r, s in enumerate(streams)]
        text = dumps_trace(merge_traces(traces))
        assert dumps_trace(loads_trace(text)) == text

    @given(st.lists(_label, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_nasty_callsites_redump(self, labels):
        q = CompressionQueue(0)
        for i, label in enumerate(labels):
            q.append_event("Barrier", Callsite.synthetic(label, i), 0,
                           size=0)
        trace = Trace(1, q.nodes, {0: (0,)})
        text = dumps_trace(trace)
        again = loads_trace(text)
        assert dumps_trace(again) == text
        got = [e.node.callsite.frames[0][0] for e in again.iter_rank(0)]
        assert got == labels


@functools.lru_cache(maxsize=None)
def _lu4_text():
    """The serialized lu np 4 trace (traced once per test process)."""
    from repro.pipeline import Pipeline, PipelineConfig, TraceStage
    trace = Pipeline([TraceStage()]).run(
        PipelineConfig(app="lu", nranks=4)).trace
    return dumps_trace(trace)


#: one byte edit: (position as a fraction of the text, edit kind, char);
#: the characters are the ones the trace grammar is made of
_mutation = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                      st.sampled_from(("replace", "delete", "insert")),
                      st.sampled_from("0123456789-,.:;=xQ{}| \nabZ"))


def mutate(text, edits):
    chars = list(text)
    for where, kind, ch in edits:
        pos = int(where * len(chars))
        if kind == "insert":
            chars.insert(pos, ch)
        elif kind == "delete":
            del chars[pos]
        else:
            chars[pos] = ch
    return "".join(chars)


class TestParseTypedEdge:
    """Malformed trace text ends in a :class:`TraceError`, never in a
    raw parser exception; a mutant that parses generates a benchmark or
    ends in a typed error, never in a raw one."""

    @seed(20111)
    @given(st.lists(_mutation, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_trace_parses_or_raises_trace_error(self, edits):
        from repro.pipeline import (Pipeline, PipelineConfig, RunContext,
                                    generation_stages)
        try:
            trace = loads_trace(mutate(_lu4_text(), edits))
        except TraceError as exc:
            assert str(exc).startswith("bad trace at line ")
            return
        assert isinstance(trace, Trace)
        ctx = RunContext(PipelineConfig(nranks=trace.world_size,
                                        platform=None))
        ctx.artifacts["trace"] = trace
        try:
            Pipeline(generation_stages()).run(context=ctx)
        except ReproError:
            return
        assert ctx.artifacts["source"]

    def test_deep_nesting_is_a_trace_error(self):
        text = "SCALATRACE 1\nworld 1\nnodes {\n" + "loop 1 ranks=0 {\n" * 5000
        with pytest.raises(TraceError, match="bad trace at line "):
            loads_trace(text)
