#!/usr/bin/env python3
"""Pipeline benchmark: the paper's trace -> spec -> run flow, timed end to
end and per layer on three workloads (see README.md next to this file).

Run from the repository root:

    python3 benchmarks/pipeline/bench.py run --seed 0 --out results.json \\
        --trace-out spans.jsonl
    python3 benchmarks/pipeline/bench.py run --workload generate --seed 3 \\
        --seconds 20 --trace 0
    python3 benchmarks/pipeline/bench.py compare A.json B.json
    python3 benchmarks/pipeline/bench.py pin

``run`` measures each workload in its own subprocess, one after another,
checks every output against ``expected.json``, prints every metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: scratch space for child results and artifact caches (git-ignored)
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("generate", "pipeline-cold", "whatif-warm")
SCHEMA = 1


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- one workload in its own process -----------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: bool,
              pin: bool = False) -> Optional[dict]:
    """Measure one workload in a subprocess; None when it did not finish."""
    os.makedirs(WORKDIR, exist_ok=True)
    fd, result_path = tempfile.mkstemp(dir=WORKDIR, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, os.path.abspath(__file__), "child", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--result", result_path]
    if pin:
        cmd.append("--pin")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=120 + 2 * seconds)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        return load_json(result_path)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} timed out", file=sys.stderr)
        return None
    finally:
        os.remove(result_path)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass


def cmd_child(args) -> int:
    t0 = time.perf_counter()
    import workloads  # the import of repro is part of set-up time
    import_s = time.perf_counter() - t0
    pins = {} if args.pin else load_json(EXPECTED_PATH).get(args.workload, {})
    checker = workloads.Checker(args.workload, pins, strict=not args.pin)
    workdir = tempfile.mkdtemp(dir=WORKDIR, prefix=args.workload + "-")
    wl = workloads.WORKLOADS[args.workload](workdir)
    try:
        data = workloads.measure(wl, args.seed, args.seconds,
                                 bool(args.trace), checker, import_s)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    data.update(attempted=checker.attempted,
                failed=checker.failed, failures=checker.failures,
                observed=checker.observed)
    write_json(args.result, data)
    return 0


# -- summarising -------------------------------------------------------------
def unit_of(metric: str) -> str:
    """Units follow the metric-name suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"),
                         ("_ratio", "ratio"), ("_mb", "MiB")):
        if metric.endswith(suffix):
            return unit
    return "count"


def stat(samples: List[float], unit: str) -> dict:
    """Median with quartiles and the samples it came from."""
    q1 = q3 = samples[0]
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "q1": q1, "q3": q3, "samples": samples}


def summarize(run: dict) -> dict:
    """One workload's entry in the results file."""
    metrics = {
        "wall_s": stat(run["reps_ref"], "s"),
        "setup_s": stat(run["setup_ref"], "s"),
        "peak_rss_mb": stat([run["peak_rss_mb"]], "MiB"),
        "wall_raw_s": stat(run["reps_raw"], "s"),
        "setup_raw_s": stat(run["setup_raw"], "s"),
        "calibration_s": stat(run["calibration_s"], "s"),
        "fail_frac": {"value": run["failed"] / max(run["attempted"], 1),
                      "unit": "ratio"},
    }
    err = run["observed"].get("suite", {}).get("makespan_err_pct")
    if err is not None:
        metrics["makespan_err_pct"] = {"value": float.fromhex(err),
                                       "unit": "%"}
    out = {"metrics": metrics, "attempted": run["attempted"],
           "failed": run["failed"], "failures": run["failures"],
           "cell_medians_raw_s": run["cell_medians_raw"]}
    if "layers" in run:
        out["per_layer"] = {k: {"value": v, "unit": unit_of(k)}
                            for k, v in run["layers"].items()
                            if v is not None}
        out["span_self_s"] = run["span_self"]
    return out


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def envelope(seed: int, seconds: float, summaries: Dict[str, dict]) -> dict:
    return {"bench": "pipeline", "schema": SCHEMA, "git_rev": git_rev(),
            "host_cpus": os.cpu_count(), "python": platform.python_version(),
            "seed": seed, "seconds": seconds, "workloads": summaries}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(name: str, summary: dict) -> None:
    metrics = summary["metrics"]
    print(f"== {name}: {metrics['wall_s']['n']} repetition(s), "
          f"{summary['failed']} of {summary['attempted']} checked "
          f"outputs failed")
    for key, m in metrics.items():
        extra = ""
        if "q1" in m and m["n"] > 1:
            extra = f"  n={m['n']} q1={_fmt(m['q1'])} q3={_fmt(m['q3'])}"
        print(f"  {key:<30s} {_fmt(m['value']):>12s} {m['unit']}{extra}")
    layers = summary.get("per_layer")
    if not layers:
        return
    root = layers["trace.root_s"]["value"]
    print(f"  traced pass: {_fmt(root)} s in cells, coverage "
          f"{layers['trace.coverage_ratio']['value']:.1%}, tracing "
          f"overhead {layers['trace.overhead_pct']['value']:+.1f}% "
          f"against wall_s")
    print(f"  {'span (self time)':<30s} {'s':>12s}  share")
    for span, secs in sorted(summary["span_self_s"].items(),
                             key=lambda kv: -kv[1]):
        print(f"    {span:<28s} {secs:>12.4f}  {secs / root:6.1%}")
    for key, m in layers.items():
        print(f"  {key:<30s} {_fmt(m['value']):>12s} {m['unit']}")


def result_line(spec: dict, summaries: Dict[str, dict], trace: bool) -> dict:
    """The closing JSON line: BENCHMARK.json's end-to-end metrics, or its
    per-layer metrics with ``trace``, for each workload run."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, summary in summaries.items():
        pool = summary.get("per_layer" if trace else "metrics", {})
        for entry in spec[group]:
            if entry["name"] not in pool:  # its cells failed
                continue
            label = (entry["name"] if len(summaries) == 1
                     else f"{name}.{entry['name']}")
            metrics[label] = {"value": pool[entry["name"]]["value"],
                              "unit": entry["unit"]}
    return {"correct": all(s["failed"] == 0 for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": metrics}


def cmd_run(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace or args.trace_out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    summaries, spans = {}, []
    for name in names:
        run = run_child(name, args.seed, seconds, trace)
        if run is None:
            return 1
        summaries[name] = summarize(run)
        spans.extend(run.get("spans", ()))
        print_report(name, summaries[name])
    if args.out:
        write_json(args.out, envelope(args.seed, seconds, summaries))
    if args.trace_out:
        from spans import write_jsonl
        write_jsonl(spans, args.trace_out)
    print(json.dumps(result_line(spec, summaries, bool(args.trace))))
    return 0


def cmd_pin(args) -> int:
    """Rewrite expected.json from one traced repetition per workload."""
    expected = {}
    for name in WORKLOADS:
        run = run_child(name, seed=0, seconds=0, trace=True, pin=True)
        if run is None or run["failed"]:
            print(f"error: {name} failed or is not reproducible; "
                  f"expected.json left unchanged", file=sys.stderr)
            return 1
        expected[name] = run["observed"]
    write_json(EXPECTED_PATH, expected)
    print(f"pinned {', '.join(sorted(expected))} -> {EXPECTED_PATH}")
    return 0


# -- comparing two results files ---------------------------------------------
def verdict(a: dict, b: dict, bound: float, better: str = "lower") -> str:
    """``better``/``same``/``worse``/``unresolved`` for metric samples ``b``
    against ``a``.  Unresolved when either side's quartile spread is wider
    than ``bound``, unless every sample of b beats every sample of a."""
    sign = 1 if better == "lower" else -1
    spread = max((m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0
                 for m in (a, b))
    if spread > bound:
        beats = all(sign * (y - x) < 0
                    for x in a["samples"] for y in b["samples"])
        return "better" if beats else "unresolved"
    change = sign * (b["value"] - a["value"]) / a["value"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def load_pair(paths: List[str]):
    """Two result sets: two results files, or one file holding ``sets``."""
    if len(paths) == 1:
        sets = load_json(paths[0]).get("sets", [])
        if len(sets) != 2:
            raise SystemExit(f"{paths[0]}: expected two entries in 'sets'")
        return sets
    if len(paths) == 2:
        return [load_json(p) for p in paths]
    raise SystemExit("compare takes A.json B.json, or one baseline file")


def compare_rows(a: dict, b: dict, spec: dict) -> List[tuple]:
    rows = []
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for entry in spec["end_to_end"]:
            ma = a["workloads"][name]["metrics"][entry["name"]]
            mb = b["workloads"][name]["metrics"][entry["name"]]
            rows.append((name, entry["name"], ma, mb, entry["bound"],
                         verdict(ma, mb, entry["bound"], entry["better"])))
    return rows


def cmd_compare(args) -> int:
    a, b = load_pair(args.files)
    spec = load_json(SPEC_PATH)
    print(f"A: {a['git_rev'][:12]} seed {a['seed']}   "
          f"B: {b['git_rev'][:12]} seed {b['seed']}")
    print(f"{'workload':<14s} {'metric':<12s} {'A':>10s} {'B':>10s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name, metric, ma, mb, bound, v in compare_rows(a, b, spec):
        change = (mb["value"] - ma["value"]) / ma["value"]
        print(f"{name:<14s} {metric:<12s} {_fmt(ma['value']):>10s} "
              f"{_fmt(mb['value']):>10s} {change:>+8.1%} {bound:>6.0%}  {v}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure workloads, check outputs")
    run.add_argument("--workload", choices=WORKLOADS,
                     help="one workload (default: all three)")
    run.add_argument("--seed", type=int, default=0,
                     help="shuffles cell order within each repetition")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring window per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=1,
                     help="1: add the traced pass and close with the "
                          "per-layer metrics; 0: the end-to-end ones")
    run.add_argument("--out", help="results file (JSON envelope)")
    run.add_argument("--trace-out", help="spans of the traced pass (JSONL)")
    sub.add_parser("pin", help="rewrite expected.json")
    cmp_ = sub.add_parser("compare", help="verdict per metric x workload")
    cmp_.add_argument("files", nargs="+")
    child = sub.add_parser("child")  # one workload, inside run_child
    child.add_argument("workload", choices=WORKLOADS)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--result", required=True)
    child.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "pin": cmd_pin, "compare": cmd_compare,
            "child": cmd_child}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
