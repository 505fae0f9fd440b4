"""Property-based equivalence: production loop ≡ reference loop.

The cohort executor (:func:`repro.sim.exec_batch.run_batch`) is
contracted to be bit-identical to the one-op-at-a-time reference loop in
``tests/sim/reference_loop.py``.  The golden suites pin a fixed grid of
real apps; this suite drives randomly generated small programs through
*both* loops and requires identical outcomes, makespans, per-rank
clocks, crashed and starved ranks, per-link contention stats, and engine
counter totals — exercising exactly the machinery the golden grid cannot
enumerate: wildcard candidate heaps vs the full scan, rendezvous
fallbacks, mixed directed/wildcard communicators, throttle charging,
WaitAny horizon deferrals, collective cohort completion, and per-op
crash checks under drops, duplicates and stragglers, and the congestion
model's overload backoff, wire queue and backlog stall (``arc`` and a
``tight`` variant that throttles and stalls on small messages).  A
profiled run must equal an unprofiled one except for its
``engine.profile.*`` timings.  The two loops send through different
code: the executor's inline send with ``Engine._send_fault``, and the
reference loop's own send, which shares only the congestion helpers,
and likewise through different waits: the executor's one wait rule
(``exec_batch.wait_value``) and the reference loop's own per-kind
waits, resumes and relaxed sweep.

Programs are deadlock-free by construction (fault injection aside):
each phase posts all nonblocking receives, then all sends, then waits
on everything, with an optional full-group collective between phases.
Directed traffic rides communicator 0 (per-source multisets match the
sends exactly) and wildcard traffic rides communicator 1 (every receive
is ANY_SOURCE/ANY_TAG), so a wildcard can never steal a message a
directed receive needs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.sim import exec_batch
from repro.sim.engine import Engine
from repro.sim.matching import MatchIndex
from repro.sim.network import make_model
from repro.sim.ops import (ANY_SOURCE, ANY_TAG, Collective, Compute,
                           PostRecv, PostSend, WaitAll, WaitAny)
from repro.sim.sched import BLOCKED
from repro.topology import make_topology_model
from tests.sim.reference_loop import reference_loop

#: payload sizes crossing the presets' eager/rendezvous thresholds
_SIZES = [1, 64, 4096, 1 << 15, 1 << 20]

#: fault regimes crossed with the optional crash (drops with no retry
#: budget lose messages outright)
_FAULT_MIXES = [{}, {"drop_rate": 0.2, "max_retries": 0},
                {"duplicate_rate": 0.3}, {"stragglers": [[0, 3.0]]}]

#: the ethernet preset with buffers and windows small enough that the
#: sampled programs throttle (unexpected buffer), stall (wire backlog)
#: and back off (receiver-stack overload) on a few KiB
_TIGHT = {"unexpected_capacity": 8192, "overload_capacity": 4096,
          "overload_drain_rate": 1e6, "backlog_stall_threshold": 1e-5}


@st.composite
def fault_plans(draw, nranks):
    """A FaultPlan keyword dict (None: no injector at all)."""
    crash = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, nranks - 1),
        st.one_of(st.just(0.0), st.floats(0.0, 3e-4)))))
    mix = draw(st.sampled_from(_FAULT_MIXES))
    if crash is None and not mix:
        return None
    plan = dict(mix, seed=draw(st.integers(0, 3)))
    if crash is not None:
        plan["crashes"] = [list(crash)]
    return plan


@st.composite
def plans(draw):
    nranks = draw(st.integers(2, 4))
    preset = draw(st.sampled_from(["simple", "bluegene", "ethernet", "arc",
                                   "tight"]))
    routed = draw(st.booleans())
    nphases = draw(st.integers(1, 3))
    phases = []
    for _ in range(nphases):
        nmsgs = draw(st.integers(0, 6))
        msgs = []
        for _ in range(nmsgs):
            src = draw(st.integers(0, nranks - 1))
            dst = draw(st.integers(0, nranks - 1).filter(
                lambda d, s=src: d != s))
            msgs.append({
                "src": src,
                "dst": dst,
                "nbytes": draw(st.sampled_from(_SIZES)),
                "tag": draw(st.integers(0, 3)),
                "wild": draw(st.booleans()),
                # directed receives may use the exact tag or ANY_TAG
                "any_tag": draw(st.booleans()),
            })
        phases.append({
            "msgs": msgs,
            # per-rank compute before posting (staggers the clocks so
            # wildcard horizon deferrals actually trigger)
            "compute": [draw(st.floats(0.0, 1e-4, allow_nan=False))
                        for _ in range(nranks)],
            # per-rank: drain the phase's requests via WaitAny loop
            # instead of one WaitAll
            "waitany": [draw(st.booleans()) for _ in range(nranks)],
            "coll": draw(st.sampled_from(
                [None, "barrier", "allreduce", "bcast"])),
        })
    return {"nranks": nranks, "preset": preset, "routed": routed,
            "phases": phases,
            # half the plans are fault-free
            "faults": draw(fault_plans(nranks)) if draw(st.booleans())
            else None,
            "profile": draw(st.booleans())}


def _rank_program(plan, rank):
    nranks = plan["nranks"]
    group = tuple(range(nranks))
    for phase in plan["phases"]:
        if phase["compute"][rank]:
            yield Compute(phase["compute"][rank])
        reqs = []
        for m in phase["msgs"]:
            if m["dst"] != rank:
                continue
            if m["wild"]:
                req = yield PostRecv(ANY_SOURCE, ANY_TAG, comm_id=1)
            else:
                tag = ANY_TAG if m["any_tag"] else m["tag"]
                req = yield PostRecv(m["src"], tag, comm_id=0)
            reqs.append(req)
        for m in phase["msgs"]:
            if m["src"] != rank:
                continue
            req = yield PostSend(m["dst"], m["nbytes"], tag=m["tag"],
                                 comm_id=1 if m["wild"] else 0)
            reqs.append(req)
        if reqs:
            if phase["waitany"][rank]:
                remaining = list(reqs)
                while remaining:
                    i, _ = yield WaitAny(remaining)
                    remaining.pop(i)
            else:
                yield WaitAll(reqs)
        if phase["coll"] is not None:
            yield Collective(group, phase["coll"], nbytes=256)


def _model_for(plan):
    if plan["preset"] == "tight":
        base = make_model("ethernet", **_TIGHT)
    else:
        base = make_model(plan["preset"])
    if plan["routed"]:
        return make_topology_model(
            base, "torus3d", plan["nranks"],
            topology_params={"dims": [plan["nranks"], 1, 1]})
    return base


def _run(plan, profile=False):
    faults = plan["faults"]
    eng = Engine(plan["nranks"], _model_for(plan), max_steps=200_000,
                 profile=profile,
                 faults=FaultInjector(FaultPlan(**faults))
                 if faults is not None else None)
    outcome = "ok"
    with obs.instrumented() as inst:
        try:
            eng.run([_rank_program(plan, r)
                     for r in range(plan["nranks"])])
        except SimulationError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    return {
        "outcome": outcome,
        "total_hex": eng.total_time.hex(),
        "per_rank_hex": [eng.now(r).hex() for r in range(plan["nranks"])],
        "crashed": eng.crashed_ranks,
        "starved": eng.starved_ranks,
        "link_stats": eng.link_stats,
        "counters": counters,
    }


@settings(max_examples=80, deadline=None)
@given(plans())
def test_production_and_reference_loops_are_bit_identical(plan):
    with reference_loop():
        reference = _run(plan)
    production = _run(plan, profile=plan["profile"])
    if plan["profile"]:
        counters = production["counters"]
        phases = {name for name in counters
                  if name.startswith("engine.profile.")}
        assert phases == {f"engine.profile.{p}_s" for p in
                          ("schedule", "match", "execute", "fabric")}
        production["counters"] = {name: value for name, value
                                  in counters.items() if name not in phases}
        assert production == _run(plan)
    assert production == reference


_REORDER = {"reorder_rate": 1.0, "reorder_max_delay": 1e-4}

#: one deterministic case per fault branch of the send: (preset,
#: routed, payload bytes, FaultPlan keywords, the injector counter that
#: shows the branch ran).  4 KiB is eager and 1 MiB rendezvous on every
#: preset used; ethernet's flat fabric queues on the ejection wire,
#: bluegene's flat one does not.
_FAULT_BRANCHES = {
    "lost-eager": ("bluegene", False, 4096,
                   {"drop_rate": 1.0, "max_retries": 0}, "lost"),
    "lost-rdv": ("bluegene", False, 1 << 20,
                 {"drop_rate": 1.0, "max_retries": 0}, "lost"),
    "delay-plain": ("bluegene", False, 4096, _REORDER, "reordered"),
    "delay-rdv": ("bluegene", False, 1 << 20, _REORDER, "reordered"),
    "delay-wire": ("ethernet", False, 4096, _REORDER, "reordered"),
    "delay-routed": ("bluegene", True, 4096, _REORDER, "reordered"),
    "retry-wire": ("ethernet", False, 4096,
                   {"drop_rate": 0.5, "max_retries": 8}, "retries"),
    "dup-plain": ("bluegene", False, 4096, {"duplicate_rate": 1.0},
                  "duplicates"),
    "dup-wire": ("ethernet", False, 4096, {"duplicate_rate": 1.0},
                 "duplicates"),
    "dup-routed": ("bluegene", True, 4096, {"duplicate_rate": 1.0},
                   "duplicates"),
    "window-routed-rdv": ("bluegene", True, 1 << 20, {"windows": [
        {"t_start": 0.0, "t_end": 1.0, "latency_factor": 2.0,
         "bandwidth_factor": 3.0, "links": ["eject:0"]}]}, "window_hits"),
}


@pytest.mark.parametrize("case", sorted(_FAULT_BRANCHES))
def test_fault_branch_matches_reference(case):
    """Each fault branch of the send, on a burst of six messages from
    rank 1 to rank 0, gives the reference loop's results.  Rank 0 runs
    first and posts its receives, so every message matches as it is
    sent and a charge to the receive side delays the next commit."""
    preset, routed, nbytes, faults, counter = _FAULT_BRANCHES[case]
    plan = {"nranks": 2, "preset": preset, "routed": routed,
            "faults": faults, "phases": [{
                "msgs": [{"src": 1, "dst": 0, "nbytes": nbytes, "tag": tag,
                          "wild": False, "any_tag": False}
                         for tag in range(6)],
                "compute": [0.0, 0.0], "waitany": [False, False],
                "coll": None}]}
    with reference_loop():
        reference = _run(plan)
    production = _run(plan)
    assert production["counters"][f"engine.fault.{counter}"] > 0
    assert production == reference


def _burst(nranks):
    """Rank 0 sends six 4 KiB messages to rank 1 back to back; rank 1
    posts its receives only after a long compute, so they all land
    unexpected."""
    def sender():
        reqs = []
        for tag in range(6):
            req = yield PostSend(1, 4096, tag=tag)
            reqs.append(req)
        yield WaitAll(reqs)

    def receiver():
        yield Compute(1e-2)
        reqs = []
        for tag in range(6):
            req = yield PostRecv(0, tag)
            reqs.append(req)
        yield WaitAll(reqs)
    return [sender(), receiver()]


def test_tight_congestion_fires_every_mechanism_in_both_loops(monkeypatch):
    """The burst throttles (unexpected buffer full), stalls (ejection
    backlog over the window) and backs off (stack overloaded) on the
    inline path and on the reference loop alike, with equal results."""
    throttled, stalls = [], []
    add_message = MatchIndex.add_message
    flow_stall = Engine._flow_stall

    def spy_add(self, msg):
        throttled.append(msg.throttled)
        return add_message(self, msg)

    def spy_stall(self, rs, excess, nbytes):
        stalls.append(rs.rank)
        return flow_stall(self, rs, excess, nbytes)
    monkeypatch.setattr(MatchIndex, "add_message", spy_add)
    monkeypatch.setattr(Engine, "_flow_stall", spy_stall)

    def run():
        throttled.clear()
        stalls.clear()
        eng = Engine(2, make_model("ethernet", **_TIGHT))
        with obs.instrumented() as inst:
            eng.run(_burst(2))
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        return ([eng.now(r).hex() for r in range(2)], counters,
                list(throttled), list(stalls))

    with reference_loop():
        ref_clocks, ref_counters, ref_throttled, ref_stalls = run()
    clocks, counters, got_throttled, got_stalls = run()
    assert (clocks, counters, got_throttled, got_stalls) == \
        (ref_clocks, ref_counters, ref_throttled, ref_stalls)
    assert counters["engine.overload_events"] > 0
    assert any(got_throttled) and not all(got_throttled)
    assert got_stalls and set(got_stalls) == {0}


def _waitany_at_op_time(nranks):
    """Rank 1 sends before a barrier that rank 0 posted its receive
    ahead of, so rank 0's WaitAny after the barrier finds every request
    complete and resumes as it is issued."""
    def rank0():
        req = yield PostRecv(1, 0)
        yield Collective((0, 1), "barrier")
        yield WaitAny([req])

    def rank1():
        yield PostSend(0, 64)
        yield Collective((0, 1), "barrier")
    return [rank0(), rank1()]


def _waitany_from_dirty_set(nranks):
    """Rank 0 blocks on one receive; rank 1's send completes it and the
    dirty-set wakeup resumes rank 0."""
    def rank0():
        req = yield PostRecv(1, 0)
        yield WaitAny([req])

    def rank1():
        yield Compute(1e-5)
        yield PostSend(0, 64)
    return [rank0(), rank1()]


def _waitany_until_horizon_moves(nranks):
    """Rank 0 waits on receives from ranks 1 and 2.  Rank 1's message
    lands first, but rank 2 is still at clock 0, so the horizon holds
    the WaitAny back and rank 0 stays dirty.  Rank 2 then computes and
    blocks without sending: the horizon passes the completion and the
    dirty-set wakeup resumes rank 0 before rank 2's message exists."""
    def rank0():
        a = yield PostRecv(1, 0)
        b = yield PostRecv(2, 0)
        i, _ = yield WaitAny([a, b])
        s = yield PostSend(2, 64, tag=9)
        yield WaitAll([s, (a, b)[1 - i]])

    def rank1():
        yield PostSend(0, 64)

    def rank2():
        yield Compute(1e-3)
        r = yield PostRecv(0, 9)
        yield WaitAll([r])
        s = yield PostSend(0, 64)
        yield WaitAll([s])
    return [rank0(), rank1(), rank2()]


def _waitany_in_relaxed_sweep(nranks):
    """Rank 2 blocks at clock 0 on a receive only rank 0 can satisfy,
    after rank 0's WaitAny; the horizon holds the WaitAny back as it is
    issued, every rank ends up blocked, and only the relaxed sweep can
    resume rank 0."""
    def rank0():
        a = yield PostRecv(1, 0)
        b = yield PostRecv(2, 0)
        yield Collective((0, 1), "barrier")
        i, _ = yield WaitAny([a, b])
        s = yield PostSend(2, 64, tag=9)
        yield WaitAll([s, (a, b)[1 - i]])

    def rank1():
        yield PostSend(0, 64)
        yield Collective((0, 1), "barrier")

    def rank2():
        r = yield PostRecv(0, 9)
        yield WaitAll([r])
        s = yield PostSend(0, 64)
        yield WaitAll([s])
    return [rank0(), rank1(), rank2()]


#: one fixed program per waitany branch of the wait rule: (ranks, the
#: program builder, the (call site, outcome) pairs it must reach).  A
#: call site is "op" (the WaitAny as issued), "dirty" (the dirty-set
#: wakeup) or "relaxed" (the all-blocked sweep); "held-then-resume"
#: marks a HELD WaitAny later resumed at that site.  No fixed case
#: resumes a waitall or collective in the relaxed sweep: each of their
#: completions flags the rank dirty, and the loop top wakes it before
#: the sweep can run.
_WAIT_BRANCHES = {
    "op-resume": (2, _waitany_at_op_time, {("op", "resume")}),
    "dirty-resume": (2, _waitany_from_dirty_set,
                     {("op", "block"), ("dirty", "resume")}),
    "held-until-horizon": (3, _waitany_until_horizon_moves,
                           {("dirty", "held"),
                            ("dirty", "held-then-resume")}),
    "relaxed-resume": (3, _waitany_in_relaxed_sweep,
                       {("op", "held"), ("dirty", "held"),
                        ("relaxed", "resume"),
                        ("relaxed", "held-then-resume")}),
}


@pytest.mark.parametrize("case", sorted(_WAIT_BRANCHES))
def test_wait_branch_matches_reference(case, monkeypatch):
    """Each WaitAny branch of the production wait rule, on a fixed
    program, gives the reference loop's clocks and counters (the
    deadlock checks count relaxed sweeps)."""
    nranks, build, expected = _WAIT_BRANCHES[case]
    reached = set()
    held = []
    rule = exec_batch.wait_value

    def spy(rs, kind, data, relaxed, horizon):
        site = ("op" if rs.state != BLOCKED
                else "relaxed" if relaxed else "dirty")
        value = rule(rs, kind, data, relaxed, horizon)
        if value is exec_batch.HELD:
            reached.add((site, "held"))
            held.append(data)
        elif value is exec_batch.BLOCK:
            reached.add((site, "block"))
        else:
            reached.add((site, "resume"))
            if any(d is data for d in held):
                reached.add((site, "held-then-resume"))
        return value

    def run():
        eng = Engine(nranks, make_model("bluegene"))
        with obs.instrumented() as inst:
            eng.run(build(nranks))
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        return [eng.now(r).hex() for r in range(nranks)], counters

    with reference_loop():
        reference = run()
    monkeypatch.setattr(exec_batch, "wait_value", spy)
    production = run()
    assert expected <= reached, sorted(reached)
    assert production == reference

