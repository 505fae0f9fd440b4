"""Regenerate the routed-fabric golden suite.

Writes ``tests/sim/golden/routed_fabric.json``: float.hex makespans,
per-rank clocks, message counters, and full per-link contention stats
for a torus3d + fattree × app × preset grid.  Run from the repo root:

    PYTHONPATH=src python scripts/make_routed_golden.py

The committed file pins the engine's routed-fabric behaviour bit-for-bit
(the production loop and the test-only reference loop must both
reproduce it — see ``tests/sim/test_golden_routed_fabric.py``).  Only
regenerate after an *intentional* semantic change, never to paper over
drift.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps import make_app  # noqa: E402
from repro.mpi.world import run_spmd  # noqa: E402
from repro.sim.network import make_model  # noqa: E402
from repro.topology import make_topology_model  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "sim",
                   "golden", "routed_fabric.json")

#: (app, nranks, preset, topology, topology_params, placement)
GRID = [
    ("halo3d", 8, "bluegene", "torus3d", {}, "block"),
    ("halo3d", 8, "bluegene", "fattree", {}, "block"),
    ("halo3d", 8, "ethernet", "torus3d", {}, "block"),
    ("halo3d", 8, "ethernet", "fattree", {}, "block"),
    ("cg", 8, "bluegene", "torus3d", {}, "block"),
    ("cg", 8, "bluegene", "fattree", {}, "block"),
    ("lu", 8, "bluegene", "torus3d", {}, "block"),
    ("lu", 8, "bluegene", "fattree", {}, "block"),
    ("lu", 8, "ethernet", "fattree", {}, "block"),
    ("sweep3d", 9, "bluegene", "torus3d", {}, "block"),
    ("sweep3d", 9, "bluegene", "fattree", {"arity": 3}, "block"),
    ("ring", 4, "bluegene", "torus3d", {"dims": [2, 2, 1]}, "block"),
    ("halo3d", 8, "bluegene", "torus3d", {}, "roundrobin"),
    ("halo3d", 8, "bluegene", "torus3d", {"nodes": 4}, "block"),
    ("bt", 9, "bluegene", "fattree", {"arity": 3}, "roundrobin"),
    ("jacobi", 8, "ethernet", "torus3d", {}, "block"),
]


def entry_key(app, nranks, preset, topology, params, placement):
    tail = ""
    if params:
        tail = "/" + ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{app}/np{nranks}/{preset}/{topology}/{placement}{tail}"


def main() -> int:
    golden = {}
    for app, nranks, preset, topology, params, placement in GRID:
        model = make_topology_model(make_model(preset), topology, nranks,
                                    topology_params=params,
                                    placement=placement)
        result = run_spmd(make_app(app, nranks, "S"), nranks, model=model)
        key = entry_key(app, nranks, preset, topology, params, placement)
        golden[key] = {
            "total_time": result.total_time,
            "total_time_hex": result.total_time.hex(),
            "per_rank_hex": [t.hex() for t in result.per_rank_times],
            "messages_sent": result.messages_sent,
            "bytes_sent": result.bytes_sent,
            "link_stats": {
                name: {"msgs": st["msgs"],
                       "busy_s_hex": st["busy_s"].hex(),
                       "wait_s_hex": st["wait_s"].hex()}
                for name, st in result.link_stats.items()},
        }
        print(f"{key}: {result.total_time * 1e6:.1f} us, "
              f"{len(result.link_stats)} links")
    with open(OUT, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries -> {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
