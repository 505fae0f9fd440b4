"""Regenerate the crash-fault golden suite.

Writes ``tests/sim/golden/crash_faults.json``: float.hex makespans and
per-rank clocks, the crashed and starved ranks, and every ``engine.*``
counter of small crash-fault runs over a ring / sweep3d / race × flat /
routed × crash-plan grid.  Run from the repo root:

    PYTHONPATH=src python scripts/make_crash_golden.py

Crash times are fractions of each cell's fault-free makespan and are
stored in the entry's ``plan``, so the test replays the exact plan
without re-deriving it.  The committed file pins crash handling
bit-for-bit (see ``tests/sim/test_golden_crash_faults.py``).  Only
regenerate after an *intentional* semantic change, never to paper over
drift.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.apps import make_app  # noqa: E402
from repro.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.mpi.world import run_spmd  # noqa: E402
from repro.sim.network import make_model  # noqa: E402
from repro.topology import make_topology_model  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "sim",
                   "golden", "crash_faults.json")

#: (app, nranks)
APPS = [("ring", 8), ("sweep3d", 9), ("race", 5)]

FABRICS = ("flat", "routed")


def model_for(fabric: str, nranks: int):
    base = make_model("bluegene")
    if fabric == "routed":
        return make_topology_model(base, "torus3d", nranks)
    return base


def plans_for(nranks: int, makespan: float):
    """Crash plans for one cell: name -> FaultPlan keyword arguments."""
    return {
        "zero": {"crashes": [[1, 0.0]]},
        "mid": {"crashes": [[nranks - 1, 0.5 * makespan]]},
        "mixed": {"seed": 2011,
                  "crashes": [[0, 0.4 * makespan],
                              [nranks // 2, 0.4 * makespan]],
                  "drop_rate": 0.1, "duplicate_rate": 0.05,
                  "max_retries": 8, "stragglers": [[2, 1.5]]},
    }


def run_cell(app: str, nranks: int, fabric: str, plan: dict) -> dict:
    """One crash-fault run, reduced to the bits the golden pins."""
    with obs.instrumented() as inst:
        result = run_spmd(make_app(app, nranks, "S"), nranks,
                          model=model_for(fabric, nranks),
                          faults=FaultInjector(FaultPlan(**plan)))
    counters = sorted(
        [rec["name"], rec["value"].hex()
         if isinstance(rec["value"], float) else rec["value"]]
        for rec in inst.counter_records()
        if rec["name"].startswith("engine."))
    return {
        "total_time_hex": result.total_time.hex(),
        "per_rank_hex": [t.hex() for t in result.per_rank_times],
        "crashed_ranks": list(result.crashed_ranks),
        "starved_ranks": list(result.starved_ranks),
        "counters": counters,
    }


def main() -> int:
    golden = {}
    for app, nranks in APPS:
        for fabric in FABRICS:
            makespan = run_spmd(make_app(app, nranks, "S"), nranks,
                                model=model_for(fabric, nranks)).total_time
            for name, plan in plans_for(nranks, makespan).items():
                key = f"{app}/np{nranks}/{fabric}/{name}"
                entry = {"plan": plan}
                entry.update(run_cell(app, nranks, fabric, plan))
                golden[key] = entry
                print(f"{key}: crashed={entry['crashed_ranks']} "
                      f"starved={entry['starved_ranks']}")
    # one entry per line: a drifted cell shows up as one changed line
    lines = [f"  {json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
             for key in sorted(golden)]
    with open(OUT, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} entries -> {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
