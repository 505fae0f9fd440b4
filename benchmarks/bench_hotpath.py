"""Hot-path throughput benchmark: engine scheduling/matching and
ScalaTrace trace-compression append rates.

Unlike the figure benchmarks (accuracy), this harness records raw
simulator throughput on three synthetic workloads that isolate the
engine's hot paths — a directed stencil, a wildcard-heavy master/worker
mix, and a collective sweep — plus the per-event append rate of the
on-the-fly loop compressor on a loop-heavy event stream.  Results land in
``benchmarks/BENCH_hotpath.json`` so the repo carries its own perf
trajectory; CI runs ``--quick --check-against`` as a coarse regression
floor (an order-of-magnitude sanity gate, not a tight assertion, so slow
shared runners don't flap).

Run:

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \\
        --check-against benchmarks/BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.scalatrace.compress import CompressionQueue  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.network import LogGPModel, SimpleModel  # noqa: E402
from repro.sim.synth import (collective_programs, stencil_programs,  # noqa: E402
                             wildcard_programs)
from repro.util.callsite import Callsite  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_hotpath.json")

#: (name, builder kwargs) per mode; quick sizes keep the CI job under a
#: few seconds while preserving the per-workload hot-path shape.
WORKLOADS = {
    "full": {
        "stencil": dict(nranks=32, iters=300, nbytes=4096),
        "wildcard": dict(nranks=32, rounds=150, nbytes=256),
        "collective": dict(nranks=64, iters=200, nbytes=1024),
    },
    "quick": {
        "stencil": dict(nranks=16, iters=60, nbytes=4096),
        "wildcard": dict(nranks=16, rounds=40, nbytes=256),
        "collective": dict(nranks=32, iters=40, nbytes=1024),
    },
}

_BUILDERS = {
    "stencil": stencil_programs,
    "wildcard": wildcard_programs,
    "collective": collective_programs,
}


#: PR 2 committed baseline (the since-retired scalar loop, same
#: workloads, same machine class) — the reference the cohort executor's
#: speedups are quoted against.
PR2_BASELINE_STEPS_PER_SEC = {
    "stencil": 204313.8,
    "wildcard": 79628.1,
    "collective": 647992.1,
}


def bench_engine(name: str, params: dict, repeats: int = 5) -> dict:
    """Best-of-N wall time for one engine workload on the cohort
    executor (the ``batch`` row).  Every repeat must reproduce the same
    makespan — the bit-determinism contract — so the benchmark doubles
    as a coarse determinism check."""
    model = LogGPModel() if name != "wildcard" else SimpleModel()
    best = None
    makespans = set()
    for _ in range(repeats):
        programs = _BUILDERS[name](**params)
        eng = Engine(len(programs), model)
        t0 = time.perf_counter()
        makespan = eng.run(programs)
        dt = time.perf_counter() - t0
        makespans.add(repr(makespan))
        if best is None or dt < best[0]:
            best = (dt, eng, makespan)
    if len(makespans) != 1:
        raise AssertionError(
            f"engine.{name}: makespan differs across repeats "
            f"({sorted(makespans)})")
    dt, eng, makespan = best
    return {
        "params": params,
        "batch": {
            "seconds": round(dt, 6),
            "steps": eng.steps,
            "matches": eng.matches_committed,
            "steps_per_sec": round(eng.steps / dt, 1),
            "matches_per_sec": round(eng.matches_committed / dt, 1),
            "makespan": makespan,
        },
    }


def compression_stream(outer: int, inner: int):
    """Loop-heavy synthetic event stream: an outer iteration of three
    phases, each an inner loop over a few call sites with per-iteration
    varying parameters — the shape §3.1 folds into nested PRSDs."""
    cs = [Callsite.synthetic(f"site{i}") for i in range(8)]
    for o in range(outer):
        for i in range(inner):
            yield ("Isend", cs[0], dict(peer=(o + 1) % 4, size=1024, tag=0))
            yield ("Irecv", cs[1], dict(peer=(o + 3) % 4, size=1024, tag=0))
            yield ("Waitall", cs[2], dict())
        for i in range(inner):
            yield ("Isend", cs[3], dict(peer=2, size=64 * (i % 2 + 1), tag=1))
            yield ("Waitall", cs[4], dict())
        yield ("Allreduce", cs[5], dict(size=8))


def bench_compression(outer: int, inner: int, repeats: int = 3) -> dict:
    events = list(compression_stream(outer, inner))
    best = None
    for _ in range(repeats):
        queue = CompressionQueue(rank=0)
        t0 = time.perf_counter()
        for op, cs, kw in events:
            queue.append_event(op, cs, 0, delta_t=1e-6, **kw)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, queue)
    dt, queue = best
    return {
        "params": {"outer": outer, "inner": inner},
        "seconds": round(dt, 6),
        "events": len(events),
        "events_per_sec": round(len(events) / dt, 1),
        "nodes_out": len(queue.nodes),
    }


def run_suite(mode: str, repeats: int = 5) -> dict:
    sizes = WORKLOADS[mode]
    results = {"mode": mode,
               "python": platform.python_version(),
               "pr2_baseline_steps_per_sec": PR2_BASELINE_STEPS_PER_SEC,
               "engine": {}, "compression": {}}
    for name in ("stencil", "wildcard", "collective"):
        results["engine"][name] = bench_engine(name, sizes[name], repeats)
    comp = dict(outer=400, inner=20) if mode == "full" \
        else dict(outer=80, inner=20)
    results["compression"]["loop_heavy"] = bench_compression(**comp)
    return results


def check_against(results: dict, baseline_path: str, floor: float) -> int:
    """Fail (non-zero) if any throughput fell more than ``floor``× below
    the committed baseline's ``batch`` rows."""
    with open(baseline_path) as fh:
        base = json.load(fh)
    failures = []
    for name, res in results["engine"].items():
        ref = base["engine"][name]["batch"]["steps_per_sec"]
        cur = res["batch"]["steps_per_sec"]
        if cur * floor < ref:
            failures.append(
                f"engine.{name}.batch: {cur:.0f} steps/s vs "
                f"baseline {ref:.0f} (floor {floor}x)")
    ref = base["compression"]["loop_heavy"]["events_per_sec"]
    cur = results["compression"]["loop_heavy"]["events_per_sec"]
    if cur * floor < ref:
        failures.append(f"compression.loop_heavy: {cur:.0f} events/s vs "
                        f"baseline {ref:.0f} (floor {floor}x)")
    if failures:
        print("PERF REGRESSION:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"perf floor ok (within {floor}x of committed baseline)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small CI-sized workloads")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path (default benchmarks/"
                         "BENCH_hotpath.json); '-' to skip writing")
    ap.add_argument("--check-against", metavar="JSON",
                    help="compare against a committed baseline and fail "
                         "on a >floor regression")
    ap.add_argument("--floor", type=float, default=5.0,
                    help="regression floor multiplier (default 5)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="best-of-N repeats per workload (default 5)")
    args = ap.parse_args(argv)

    results = run_suite("quick" if args.quick else "full", args.repeats)
    for name, res in results["engine"].items():
        row = res["batch"]
        pr2 = PR2_BASELINE_STEPS_PER_SEC.get(name)
        vs_pr2 = (f", {row['steps_per_sec'] / pr2:.2f}x vs PR2"
                  if pr2 and results["mode"] == "full" else "")
        print(f"engine.{name:<10} {row['steps_per_sec']:>12.0f} steps/s "
              f"({row['seconds']:.3f}s, {row['steps']} steps{vs_pr2})")
    comp = results["compression"]["loop_heavy"]
    print(f"compression      {comp['events_per_sec']:>12.0f} events/s "
          f"({comp['seconds']:.3f}s, {comp['events']} events -> "
          f"{comp['nodes_out']} nodes)")

    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check_against:
        return check_against(results, args.check_against, args.floor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
