"""Reference executor: the one-op-at-a-time main loop that
:func:`repro.sim.exec_batch.run_batch` must stay bit-identical to.

Each op goes through the generic ``Engine._apply``, each pop through
``Scheduler.pop_ready`` (``pop_ready_policy`` under a non-canonical
policy), and every drain through :func:`repro.sim.policy.drain_policy`
— under the canonical policy the full candidate scan, with no candidate
heaps or deferral memo.  :func:`reference_loop` swaps it in for the
engine's executor, so any entry point can run against the oracle; it
records no ``--profile`` phases.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MethodType

from repro.errors import SimulationError
from repro.sim import engine as production
from repro.sim.exec_batch import _BLOCK
from repro.sim.policy import drain_policy
from repro.sim.sched import BLOCKED, DONE

#: parametrisation ids for suites that run under both loops: ``scalar``
#: is this reference loop, ``batch`` the production cohort loop
LOOPS = ("scalar", "batch")


def run_reference(eng) -> None:
    """Drive ``eng`` to completion one generator op at a time."""
    eng._drain = MethodType(drain_policy, eng)
    sched = eng._sched
    if eng.policy.canonical:
        pop = sched.pop_ready
    else:
        def pop():
            return sched.pop_ready_policy(eng.policy)
    while True:
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        if eng._deferred_dsts:
            for dst in sorted(eng._deferred_dsts):
                eng._deferred_dsts.discard(dst)
                eng._drain(dst, relaxed=False)
        if eng._dirty:
            _resume_dirty(eng)
        rs = pop()
        if rs is not None:
            _step(eng, rs)
            continue
        if eng._done_count == eng.nranks:
            break
        # everyone blocked: try relaxed matching / resumption
        eng.deadlock_checks += 1
        if eng._relaxed_progress():
            continue
        if eng.crashed_ranks:
            eng._starve_blocked()
            break
        eng._raise_deadlock()


def _step(eng, rs) -> None:
    """Run ``rs`` until it blocks, finishes or crashes."""
    value = rs.pending_value
    rs.pending_value = None
    while True:
        if eng._crash_at is not None and rs.clock >= eng._crash_at[rs.rank]:
            eng._crash_rank(rs)
            return
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        try:
            op = rs.gen.send(value)
        except StopIteration:
            rs.state = DONE
            eng._done_count += 1
            eng._on_rank_done(rs)
            return
        value = eng._apply(rs, op)
        if value is _BLOCK:
            rs.state = BLOCKED
            return


def _resume_dirty(eng) -> None:
    """Wake blocked ranks flagged by completions since the last pass.

    A WaitAny rank holding a complete request stays dirty even when it
    cannot resume yet: it waits on the safety horizon, which moves
    whenever another rank advances, so it must be polled.  Every other
    rank leaves the dirty set until a new completion re-flags it.
    """
    for rank in sorted(eng._dirty):
        rs = eng._ranks[rank]
        if rs.state != BLOCKED:
            eng._dirty.discard(rank)
            continue
        if eng._try_resume(rs, relaxed=False):
            eng._dirty.discard(rank)
        elif not (rs.blocked_kind == "waitany"
                  and any(r.complete for r in rs.blocked_data)):
            eng._dirty.discard(rank)


@contextmanager
def reference_loop():
    """Run every engine in the block on :func:`run_reference`."""
    saved = production.run_batch
    production.run_batch = run_reference
    try:
        yield
    finally:
        production.run_batch = saved


@contextmanager
def executor(name: str):
    """Enter the executor named by a :data:`LOOPS` id."""
    if name == "scalar":
        with reference_loop():
            yield
    else:
        yield
