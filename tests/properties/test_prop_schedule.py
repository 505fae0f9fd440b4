"""Schedule-policy legality properties.

Every non-canonical policy explores a *legal* MPI schedule: it may
reorder wildcard matches and cohort execution, but it must never lose
or duplicate a message, change how many operations each rank executes,
or (for a deadlock-free program) fail to complete.  These properties
drive randomly composed deadlock-free programs through every policy and
require:

* the run completes (no deadlock, no livelock guard);
* the message count equals the canonical run's (nothing lost or
  duplicated);
* per-rank operation counts match the canonical run (policies reorder
  execution, they do not change the program);
* the production loop is bit-identical to the test-only reference loop
  under a shared (policy, seed) — the same contract the golden suites
  pin for canonical, extended across the schedule space.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Engine
from repro.sim.network import make_model
from repro.sim.ops import (ANY_SOURCE, ANY_TAG, Collective, Compute,
                           PostRecv, PostSend, WaitAll)
from tests.sim.reference_loop import reference_loop

_SIZES = [1, 256, 1 << 17]


@st.composite
def plans(draw):
    """A small deadlock-free program: per phase, every rank posts its
    receives, then its sends, then waits on everything.  Wildcard
    traffic rides its own communicator so it cannot steal a directed
    receive's message."""
    nranks = draw(st.integers(2, 4))
    preset = draw(st.sampled_from(["simple", "bluegene", "ethernet"]))
    phases = []
    for _ in range(draw(st.integers(1, 2))):
        msgs = []
        for _ in range(draw(st.integers(0, 5))):
            src = draw(st.integers(0, nranks - 1))
            dst = draw(st.integers(0, nranks - 1).filter(
                lambda d, s=src: d != s))
            msgs.append({"src": src, "dst": dst,
                         "nbytes": draw(st.sampled_from(_SIZES)),
                         "tag": draw(st.integers(0, 2)),
                         "wild": draw(st.booleans())})
        phases.append({
            "msgs": msgs,
            "compute": [draw(st.floats(0.0, 5e-5, allow_nan=False))
                        for _ in range(nranks)],
            "coll": draw(st.sampled_from([None, "barrier",
                                          "allreduce"])),
        })
    return {"nranks": nranks, "preset": preset, "phases": phases}


def _rank_program(plan, rank, counts):
    group = tuple(range(plan["nranks"]))
    for phase in plan["phases"]:
        if phase["compute"][rank]:
            counts[rank] += 1
            yield Compute(phase["compute"][rank])
        reqs = []
        for m in phase["msgs"]:
            if m["dst"] != rank:
                continue
            counts[rank] += 1
            if m["wild"]:
                reqs.append((yield PostRecv(ANY_SOURCE, ANY_TAG,
                                            comm_id=1)))
            else:
                reqs.append((yield PostRecv(m["src"], m["tag"],
                                            comm_id=0)))
        for m in phase["msgs"]:
            if m["src"] != rank:
                continue
            counts[rank] += 1
            reqs.append((yield PostSend(m["dst"], m["nbytes"],
                                        tag=m["tag"],
                                        comm_id=1 if m["wild"]
                                        else 0)))
        if reqs:
            counts[rank] += 1
            yield WaitAll(reqs)
        if phase["coll"] is not None:
            counts[rank] += 1
            yield Collective(group, phase["coll"], nbytes=64)


def _run(plan, policy=None, seed=None):
    eng = Engine(plan["nranks"], make_model(plan["preset"]),
                 max_steps=200_000, schedule_policy=policy,
                 schedule_seed=seed)
    counts = [0] * plan["nranks"]
    total = eng.run([_rank_program(plan, r, counts)
                     for r in range(plan["nranks"])])
    return {"total_hex": total.hex(),
            "per_rank_hex": [eng.now(r).hex()
                             for r in range(plan["nranks"])],
            "messages": eng.messages_sent,
            "op_counts": counts}


_policy_seeds = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 9)),
    st.tuples(st.just("adversarial-delay"), st.integers(0, 9)))


@settings(max_examples=40, deadline=None)
@given(plans(), _policy_seeds)
def test_policies_yield_legal_outcomes(plan, policy_seed):
    policy, seed = policy_seed
    canonical = _run(plan)
    fuzzed = _run(plan, policy=policy, seed=seed)
    # a deadlock or livelock would have raised inside _run
    assert fuzzed["messages"] == canonical["messages"]
    assert fuzzed["op_counts"] == canonical["op_counts"]


@settings(max_examples=40, deadline=None)
@given(plans(), st.integers(0, 9))
def test_scalar_batch_identical_under_shared_random_seed(plan, seed):
    with reference_loop():
        reference = _run(plan, policy="random", seed=seed)
    assert _run(plan, policy="random", seed=seed) == reference


@settings(max_examples=25, deadline=None)
@given(plans(), _policy_seeds)
def test_seeded_schedules_are_deterministic(plan, policy_seed):
    policy, seed = policy_seed
    first = _run(plan, policy=policy, seed=seed)
    again = _run(plan, policy=policy, seed=seed)
    assert again == first
