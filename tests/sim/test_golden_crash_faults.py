"""Golden byte-identity: crash-fault runs reproduce pinned results.

``golden/crash_faults.json`` (``scripts/make_crash_golden.py``) pins a
ring / sweep3d / race × flat / routed × crash-plan grid, one plan mixing
crashes with drops, duplicates and a straggler.  Every entry records the
makespan and per-rank clocks as ``float.hex()``, the crashed ranks in
crash order, the starved ranks, and every ``engine.*`` counter — routed
entries include the per-link counters, so a crash that lands one op
early or late shows up as drift.
"""

import json
import os

import pytest

from repro import obs
from repro.apps import make_app
from repro.faults import FaultInjector, FaultPlan
from repro.mpi.world import run_spmd
from repro.sim.network import make_model
from repro.topology import make_topology_model

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                       "crash_faults.json")

with open(_GOLDEN) as _fh:
    GOLDEN = json.load(_fh)


def _model(fabric, nranks):
    base = make_model("bluegene")
    if fabric == "routed":
        return make_topology_model(base, "torus3d", nranks)
    return base


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_crash_run_byte_identical(key):
    app, np_s, fabric, _ = key.split("/")
    nranks = int(np_s[2:])
    want = GOLDEN[key]
    with obs.instrumented() as inst:
        result = run_spmd(make_app(app, nranks, "S"), nranks,
                          model=_model(fabric, nranks),
                          faults=FaultInjector(FaultPlan(**want["plan"])))
    assert result.total_time.hex() == want["total_time_hex"], key
    assert [t.hex() for t in result.per_rank_times] == \
        want["per_rank_hex"], key
    assert list(result.crashed_ranks) == want["crashed_ranks"], key
    assert list(result.starved_ranks) == want["starved_ranks"], key
    counters = sorted(
        [rec["name"], rec["value"].hex()
         if isinstance(rec["value"], float) else rec["value"]]
        for rec in inst.counter_records()
        if rec["name"].startswith("engine."))
    assert counters == want["counters"], key


def test_golden_grid_crashes_on_every_cell():
    assert len(GOLDEN) == 18
    assert all(entry["crashed_ranks"] for entry in GOLDEN.values())
    # the mixed plan must actually crash two ranks somewhere
    assert any(len(entry["crashed_ranks"]) == 2
               for entry in GOLDEN.values())
