"""The production compression queue against the literal-rules oracle.

``CompressionQueue`` layers fingerprint gates, a prefix hash table,
in-place merges, the replay cursor and the decision table its ranks
share over ScalaTrace's three rewrite rules.  None of that may show in
the output: every rank's queue must serialize byte-identically to
:class:`ReferenceQueue`'s, on the paper's apps and on random nested loop
streams, whichever rank reaches a shared state first.
"""

import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.apps import PAPER_SUITE, make_app
from repro.mpi.hooks import MPIHook
from repro.mpi.world import run_spmd
from repro.scalatrace.compress import CompressionQueue, DecisionTable
from repro.scalatrace.rsd import EventNode, ParamField, Trace
from repro.scalatrace.serialize import dumps_trace
from repro.scalatrace.tracer import ingest_event
from repro.util.callsite import Callsite
from repro.util.rankset import RankSet

from tests.scalatrace.reference_compress import ReferenceQueue


def dump(nodes, world=1):
    return dumps_trace(Trace(world, nodes, {0: tuple(range(world))}))


class QueuePairsHook(MPIHook):
    """Feeds every rank's events to a production queue and to the oracle,
    with and without folding around collectives."""

    def __init__(self):
        self.queues = {}
        self.events = 0

    def on_event(self, event):
        self.events += 1
        pairs = self.queues.get(event.rank)
        if pairs is None:
            pairs = self.queues[event.rank] = [
                (kind(event.rank, fold_collectives=fold), {})
                for fold in (True, False)
                for kind in (CompressionQueue, ReferenceQueue)]
        for queue, last_end in pairs:
            ingest_event(queue, last_end, event)


class TestPaperApps:
    @pytest.mark.parametrize("np", [4, 16])
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_every_rank_queue_matches_oracle(self, app, np):
        hook = QueuePairsHook()
        run_spmd(make_app(app, np), nranks=np, hooks=[hook])
        assert sorted(hook.queues) == list(range(np))
        for rank, pairs in sorted(hook.queues.items()):
            (fast, _), (ref, _), (fast_nf, _), (ref_nf, _) = pairs
            assert dump(fast.nodes, np) == dump(ref.nodes, np), rank
            assert dump(fast_nf.nodes, np) == dump(ref_nf.nodes, np), rank

    def test_cursor_takes_most_events(self):
        # the oracle comparison above is only worth as much as the cursor
        # coverage it exercises
        hook = QueuePairsHook()
        run_spmd(make_app("cg", 16), nranks=16, hooks=[hook])
        taken = sum(pairs[0][0].cursor_events
                    for pairs in hook.queues.values())
        assert taken >= 0.75 * hook.events


# A nested loop program: a body is a list of events (call site) and loops
# (count, body); expanding it gives the event stream.  Three call sites
# keep structural coincidences (the rules' corner cases) frequent; the
# third is a collective, so ``fold_collectives=False`` has work to do.
def _nest(body):
    return st.lists(
        st.one_of(st.integers(1, 3), st.tuples(st.integers(1, 6), body)),
        min_size=1, max_size=4)


_program = st.recursive(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                        _nest, max_leaves=24)

#: a stream on which the cursor must stop at a loop count where a fold
#: reaching back over the tail loop fires (window 4)
_FOLD_OVER_LOOP = [int(c) for c in "21122112211221211221122112213"]


def expand(body, out):
    for item in body:
        if isinstance(item, tuple):
            for _ in range(item[0]):
                expand(item[1], out)
        else:
            out.append(item)
    return out


def feed(queue, stream, rng):
    for site in stream:
        cs = Callsite.synthetic("p", site)
        delta = rng.choice([0.0, 1e-6, 2.5e-6, 1e-3 * rng.random()])
        if site == 3:
            queue.append_event("Allreduce", cs, 0, size=rng.choice([8, 16]),
                               delta_t=delta)
        else:
            queue.append_event("Isend", cs, 0, peer=rng.choice([1, 1, 2]),
                               size=64, tag=site, delta_t=delta)


class TestNestedLoopStreams:
    @seed(2011)
    @settings(max_examples=300, deadline=None)
    @given(_program, st.integers(0, 2 ** 16),
           st.sampled_from([1, 2, 3, 4, 32]), st.booleans())
    @example(_FOLD_OVER_LOOP, 0, 4, True)
    def test_queue_matches_oracle(self, program, value_seed, window, fold):
        stream = expand(program, [])
        fast = CompressionQueue(0, window, fold_collectives=fold)
        ref = ReferenceQueue(0, window, fold_collectives=fold)
        feed(fast, stream, random.Random(value_seed))
        feed(ref, stream, random.Random(value_seed))
        assert dump(fast.nodes) == dump(ref.nodes)


class SharedTableHook(MPIHook):
    """Feeds every rank's events to a queue sharing one decision table
    with the other ranks' queues, as :class:`ScalaTraceHook` does, and to
    the oracle."""

    def __init__(self):
        self.table = DecisionTable()
        self.queues = {}

    def on_event(self, event):
        pair = self.queues.get(event.rank)
        if pair is None:
            pair = self.queues[event.rank] = (
                (CompressionQueue(event.rank, table=self.table), {}),
                (ReferenceQueue(event.rank), {}))
        for queue, last_end in pair:
            ingest_event(queue, last_end, event)


def _shared_table_matches_oracle(app, np):
    hook = SharedTableHook()
    run_spmd(make_app(app, np), nranks=np, hooks=[hook])
    assert sorted(hook.queues) == list(range(np))
    for rank, ((shared, _), (ref, _)) in sorted(hook.queues.items()):
        assert dump(shared.nodes, np) == dump(ref.nodes, np), rank
    return hook.table


class TestSharedTablePaperApps:
    @pytest.mark.parametrize("np", [4, 16])
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_every_rank_queue_matches_oracle(self, app, np):
        table = _shared_table_matches_oracle(app, np)
        # the outcomes were shared, not only made
        assert table.shared_decisions > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_every_rank_queue_matches_oracle_np64(self, app):
        _shared_table_matches_oracle(app, 64)

    def test_rules_run_once_per_state(self):
        # every decision the rules made was for a state no queue had
        # reached before, and mg's ranks mostly repeat each other
        table = _shared_table_matches_oracle("mg", 16)
        assert table.decisions_made <= len(table.outcomes)
        made, shared = table.decisions_made, table.shared_decisions
        assert shared / (shared + made) >= 0.9
        assert table.shared_plans > table.plans_made


def _rank_streams(prefix, suffixes, picks):
    """Per-rank call-site streams: a common prefix, then the suffix each
    rank picks (ranks picking the same one repeat each other)."""
    head = expand(prefix, [])
    return [head + expand(suffixes[k % len(suffixes)], []) for k in picks]


def _feed_interleaved(queues, streams, order_seed, value_seed):
    """Feed each rank's stream to its queue, ranks taking turns in a
    seeded random order; each rank draws its values from its own
    seeded generator, so the values do not depend on the order."""
    order = random.Random(order_seed)
    rngs = [random.Random(value_seed * 7919 + r) for r in range(len(streams))]
    at = [0] * len(streams)
    live = [r for r, stream in enumerate(streams) if stream]
    while live:
        r = order.choice(live)
        feed(queues[r], [streams[r][at[r]]], rngs[r])
        at[r] += 1
        if at[r] == len(streams[r]):
            live.remove(r)


def _shared_dumps(streams, window, order_seed, value_seed):
    table = DecisionTable()
    queues = [CompressionQueue(r, window, table=table)
              for r in range(len(streams))]
    _feed_interleaved(queues, streams, order_seed, value_seed)
    return [dump(q.nodes, len(streams)) for q in queues], table


class TestSharedTableStreams:
    """Random per-rank streams that share a prefix and then diverge,
    fed to queues sharing one table in random rank interleavings."""

    @seed(2024)
    @settings(max_examples=150, deadline=None)
    @given(_program, st.lists(_program, min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=2, max_size=5),
           st.integers(0, 2 ** 16), st.integers(0, 2 ** 16),
           st.sampled_from([2, 3, 4, 32]))
    def test_every_queue_matches_oracle(self, prefix, suffixes, picks,
                                        order_seed, value_seed, window):
        streams = _rank_streams(prefix, suffixes, picks)
        shared, _ = _shared_dumps(streams, window, order_seed, value_seed)
        refs = [ReferenceQueue(r, window) for r in range(len(streams))]
        _feed_interleaved(refs, streams, order_seed, value_seed)
        assert shared == [dump(q.nodes, len(streams)) for q in refs]

    @seed(2025)
    @settings(max_examples=80, deadline=None)
    @given(_program, st.lists(_program, min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=2, max_size=5),
           st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def test_first_rank_to_a_state_does_not_matter(
            self, prefix, suffixes, picks, order_seed, value_seed):
        streams = _rank_streams(prefix, suffixes, picks)
        a, _ = _shared_dumps(streams, 32, order_seed, value_seed)
        b, _ = _shared_dumps(streams, 32, order_seed + 1, value_seed)
        # ranks one after another, in both directions
        n = len(streams)
        queues_fwd = _sequential(streams, range(n), value_seed)
        queues_rev = _sequential(streams, reversed(range(n)), value_seed)
        assert a == b == queues_fwd == queues_rev


def _sequential(streams, ranks, value_seed):
    table = DecisionTable()
    queues = {}
    for r in ranks:
        queues[r] = CompressionQueue(r, table=table)
        feed(queues[r], streams[r], random.Random(value_seed * 7919 + r))
    return [dump(queues[r].nodes, len(streams)) for r in range(len(streams))]


class TestSharedTableExactness:
    def test_fingerprint_coincidence_keeps_states_apart(self):
        # A Send with and without a tag has one fingerprint (presence is
        # not hashed) but not one shape: the two never merge, so queues
        # holding one or the other may not share a decision.
        cs = Callsite.synthetic("p", 1)
        ranks = RankSet.single(0)
        assert EventNode("Send", cs, 0, ranks, tag=ParamField.of(0)).fp \
            == EventNode("Send", cs, 0, ranks).fp
        table = DecisionTable()
        tagged = CompressionQueue(0, table=table)
        mixed = CompressionQueue(0, table=table)
        refs = [ReferenceQueue(0), ReferenceQueue(0)]
        for k in range(12):
            for q in (tagged, refs[0]):
                q.append_event("Send", cs, 0, peer=1, size=8, tag=k % 2)
            for q in (mixed, refs[1]):
                q.append_event("Send", cs, 0, peer=1, size=8,
                               tag=None if k % 3 else 0)
        assert dump(tagged.nodes) == dump(refs[0].nodes)
        assert dump(mixed.nodes) == dump(refs[1].nodes)
        assert tagged._states[-1] != mixed._states[-1]

    def test_structurally_equal_ranks_share(self):
        # two ranks with equal streams: the second decides nothing
        table = DecisionTable()
        stream = expand([(5, [1, 2]), 3, (4, [1, (2, [2, 3])])], [])
        first = CompressionQueue(0, table=table)
        feed(first, stream, random.Random(1))
        made = table.decisions_made
        second = CompressionQueue(1, table=table)
        feed(second, stream, random.Random(2))
        assert table.decisions_made == made
        assert table.shared_decisions > 0
        assert first._states == second._states
