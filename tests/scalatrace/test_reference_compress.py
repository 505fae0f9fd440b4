"""The production compression queue against the literal-rules oracle.

``CompressionQueue`` layers fingerprint gates, a prefix hash table,
in-place merges and the replay cursor over ScalaTrace's three rewrite
rules.  None of that may show in the output: every rank's queue must
serialize byte-identically to :class:`ReferenceQueue`'s, on the paper's
apps and on random nested loop streams.
"""

import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.apps import PAPER_SUITE, make_app
from repro.mpi.hooks import MPIHook
from repro.mpi.world import run_spmd
from repro.scalatrace.compress import CompressionQueue
from repro.scalatrace.rsd import Trace
from repro.scalatrace.serialize import dumps_trace
from repro.scalatrace.tracer import ingest_event
from repro.util.callsite import Callsite

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
