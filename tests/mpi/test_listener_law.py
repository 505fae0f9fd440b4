"""Law: attaching a hook that does nothing changes nothing about a run.

An uninstrumented world builds no :class:`~repro.mpi.hooks.MPIEvent`,
reads no clock for one and captures no call site; a world with a hook
does all three.  Neither may move the simulation: the makespan, every
rank's clock, the message count and the engine's step count must be
equal bit for bit, on every paper app and on the Fig. 7 base point.
"""

import pytest

from repro.apps import PAPER_SUITE, make_app
from repro.mpi import api
from repro.mpi.hooks import MPIEvent, MPIHook
from repro.mpi.world import run_spmd
from repro.pipeline import RunContext, full_pipeline
from repro.sim.network import make_model
from repro.sweep import SweepPlan
from repro.sweep.plan import TEMPLATE, build_config


def outcome(result):
    """What a listener must not move, with floats as exact hex."""
    return {"makespan": result.total_time.hex(),
            "per_rank": [t.hex() for t in result.per_rank_times],
            "messages_sent": result.messages_sent,
            "steps": result.world.engine.steps}


def run_app(app, nranks, hooks=None):
    return run_spmd(make_app(app, nranks, "S"), nranks,
                    model=make_model("bluegene"), hooks=hooks)


@pytest.mark.parametrize("nranks", [4, 16])
@pytest.mark.parametrize("app", PAPER_SUITE)
def test_noop_hook_changes_nothing(app, nranks):
    assert (outcome(run_app(app, nranks))
            == outcome(run_app(app, nranks, hooks=[MPIHook()])))


def test_fig7_base_point_unchanged_by_a_listener():
    base = SweepPlan.loads(TEMPLATE).points()[0].overrides
    config = build_config(base, use_cache=False)

    def run(hooks):
        ctx = RunContext(config, hooks=hooks)
        return full_pipeline(run=True).run(context=ctx).run_result

    assert outcome(run(None)) == outcome(run([MPIHook()]))


def test_hookless_run_builds_no_event(monkeypatch):
    built = []

    class CountingEvent(MPIEvent):
        __slots__ = ()

        def __init__(self, *args, **kw):
            built.append(kw["op"])
            super().__init__(*args, **kw)

    monkeypatch.setattr(api, "MPIEvent", CountingEvent)
    run_app("lu", 4)
    assert built == []
    run_app("lu", 4, hooks=[MPIHook()])
    assert "Finalize" in built
