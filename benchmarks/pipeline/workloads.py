"""The pipeline benchmark's three workloads and the loop that measures one.

Every workload drives public entry points only (``run_spmd`` with a
``ScalaTraceHook``, ``dumps_trace``/``loads_trace``, ``Pipeline``,
``full_pipeline``, ``generation_stages``, ``run_sweep``), so per-layer
time is measured from outside each layer:

* ``generate`` — stored traces of sweep3d and lu at np 16 and 64 through
  ``loads_trace`` and ``Pipeline(generation_stages())``.  Algorithms 1
  and 2 do almost all of the work and neither the simulator nor the
  interpreter runs.
* ``pipeline-cold`` — ``full_pipeline(run=True)`` on the paper's nine
  apps at np 16 with a fresh artifact cache per cell: the only workload
  that runs the tracer, the Finalize merge and the cache writes.
* ``whatif-warm`` — the Fig. 7 plan (BT class B, np 16, arc, eleven
  ``compute_scale`` points) as one ``run_sweep`` on a warm cache: the run
  stage dominates, the cache is read and sources are parsed back.

The traced pass re-runs each cell stage by stage
(``Pipeline([stage]).run(context=ctx)`` on one shared ``RunContext``)
under span and obs-counter collection.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import obs  # noqa: E402
from repro.apps import PAPER_SUITE, make_app  # noqa: E402
from repro.mpi.world import run_spmd  # noqa: E402
from repro.pipeline import (Pipeline, PipelineConfig, RunContext,  # noqa: E402
                            full_pipeline, generation_stages)
from repro.scalatrace.serialize import dumps_trace, loads_trace  # noqa: E402
from repro.scalatrace.tracer import ScalaTraceHook  # noqa: E402
from repro.sim.network import make_model  # noqa: E402
from repro.sweep import SweepPlan, build_config, run_sweep  # noqa: E402

import calibrate  # noqa: E402
from spans import SpanRecorder, root_of, self_times  # noqa: E402

#: set-ups per run; set-up time is reported as their median
SETUPS = 5

#: problem class and network preset of the class-S workloads
CLS, PLATFORM = "S", "bluegene"

#: span name of each pipeline stage in the traced pass (layer.stage)
SPAN_OF_STAGE = {"trace": "scalatrace.trace", "align": "generator.align",
                 "resolve": "generator.resolve", "emit": "generator.emit",
                 "compile": "conceptual.compile", "run": "conceptual.run"}

#: counts no optimisation may change; pinned in expected.json
IDENTITY_GUARDS = ("generator.rsds_aligned", "generator.wildcards_resolved",
                   "generator.statements_emitted",
                   "conceptual.statements_compiled", "sim.steps")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pipeline_outcome(artifacts) -> Dict[str, str]:
    """What a pipeline run must reproduce bit for bit: the generated
    source, and the generated and traced makespans where they exist."""
    out = {"source_sha256": sha256(artifacts["source"])}
    if artifacts.get("run_result") is not None:
        out["makespan"] = artifacts["run_result"].total_time.hex()
    if artifacts.get("trace_run_result") is not None:
        out["orig_makespan"] = artifacts["trace_run_result"].total_time.hex()
    return out


def run_stages(rec: SpanRecorder, inst: obs.Instrumentation,
               ctx: RunContext, stages) -> None:
    """Run ``stages`` one at a time on ``ctx``, each in a child span that
    records the obs counters it moved and the stage's cache status."""
    for stage in stages:
        from_source = stage.name == "compile" and "ast" not in ctx.artifacts
        with rec.span(SPAN_OF_STAGE[stage.name],
                      counters=inst.counters) as span:
            Pipeline([stage]).run(context=ctx)
        span["cache"] = ctx.records[-1].cache
        if from_source:
            span["from_source"] = True


class Workload:
    """One named set of cells.  ``setup`` returns outputs to check;
    ``run_cell`` times its work on the clock it is given and returns the
    outcome; ``trace_cell`` runs one traced cell and returns
    ``{cell: outcome}``."""

    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.workdir)

    def setup(self) -> Dict[str, dict]:
        return {}

    def cells(self) -> List[str]:
        raise NotImplementedError

    def run_cell(self, cell: str, clock: calibrate.Clock) -> dict:
        raise NotImplementedError

    def rep_outcomes(self, outcomes: Dict[str, dict]) -> Dict[str, dict]:
        """Checks over a whole repetition's outcomes."""
        return {}

    def traced_cells(self) -> List[str]:
        return self.cells()

    def trace_cell(self, cell: str, rec: SpanRecorder,
                   inst: obs.Instrumentation) -> Dict[str, dict]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Generate(Workload):
    """Stored traces through Algorithms 1 and 2, emit and compile."""

    name = "generate"

    def __init__(self, workdir, cells=(("sweep3d", 16), ("sweep3d", 64),
                                       ("lu", 16), ("lu", 64))):
        super().__init__(workdir)
        self.specs = {f"{app}-np{n}": (app, n) for app, n in cells}
        self.texts: Dict[str, str] = {}

    def setup(self):
        observed = {}
        for cell, (app, n) in self.specs.items():
            tracer = ScalaTraceHook()
            result = run_spmd(make_app(app, n, CLS), n,
                              model=make_model(PLATFORM),
                              hooks=[tracer])
            self.texts[cell] = dumps_trace(tracer.trace)
            observed[f"setup:{cell}"] = {
                "trace_sha256": sha256(self.texts[cell]),
                "orig_makespan": result.total_time.hex()}
        return observed

    def cells(self):
        return list(self.specs)

    @staticmethod
    def _context(trace) -> RunContext:
        # the `repro generate` configuration
        ctx = RunContext(PipelineConfig(nranks=trace.world_size,
                                        platform=None))
        ctx.artifacts["trace"] = trace
        return ctx

    def run_cell(self, cell, clock):
        with clock:
            ctx = self._context(loads_trace(self.texts[cell]))
            Pipeline(generation_stages()).run(context=ctx)
        return {"source_sha256": sha256(ctx.artifacts["source"])}

    def trace_cell(self, cell, rec, inst):
        with rec.span("cell", trace_id=f"{self.name}/{cell}"):
            with rec.span("scalatrace.load", counters=inst.counters):
                trace = loads_trace(self.texts[cell])
            ctx = self._context(trace)
            run_stages(rec, inst, ctx, generation_stages())
        return {cell: {"source_sha256": sha256(ctx.artifacts["source"])}}


class PipelineCold(Workload):
    """The full Fig. 1 flow per app, each cell into a fresh cache."""

    name = "pipeline-cold"

    def __init__(self, workdir, apps=PAPER_SUITE, nranks=16):
        super().__init__(workdir)
        self.apps = tuple(apps)
        self.nranks = nranks

    def _config(self, app, cache_dir):
        return PipelineConfig(app=app, nranks=self.nranks, cls=CLS,
                              platform=PLATFORM, use_cache=True,
                              cache_dir=cache_dir)

    def setup(self):
        # a throw-away pipeline pays the stages' lazy imports
        cache_dir = self._fresh_dir()
        try:
            full_pipeline(run=True).run(self._config("ep", cache_dir))
        finally:
            shutil.rmtree(cache_dir)
        return {}

    def cells(self):
        return list(self.apps)

    def run_cell(self, cell, clock):
        cache_dir = self._fresh_dir()
        try:
            with clock:
                result = full_pipeline(run=True).run(
                    self._config(cell, cache_dir))
        finally:
            shutil.rmtree(cache_dir)
        return pipeline_outcome(result.artifacts)

    def rep_outcomes(self, outcomes):
        # §5.3: mean absolute percentage error of the generated
        # benchmarks' makespans against the traced applications', summed
        # in app order so the seed's shuffle cannot move the last bit
        errs = [abs(float.fromhex(o["makespan"])
                    - float.fromhex(o["orig_makespan"]))
                / float.fromhex(o["orig_makespan"]) * 100
                for _, o in sorted(outcomes.items())]
        if not errs:
            return {}
        return {"suite": {"makespan_err_pct": (sum(errs) / len(errs)).hex()}}

    def trace_cell(self, cell, rec, inst):
        trace_id = f"{self.name}/{cell}"
        cache_dir = self._fresh_dir()
        try:
            with rec.span("cell", trace_id=trace_id):
                ctx = RunContext(self._config(cell, cache_dir))
                run_stages(rec, inst, ctx, full_pipeline(run=True).stages)
            # the app alone, without the tracer: its own root, so the
            # cell's wall stays comparable with the timed repetitions
            with rec.span("sim.app", trace_id=trace_id,
                          counters=inst.counters):
                run_spmd(make_app(cell, self.nranks, CLS), self.nranks,
                         model=make_model(PLATFORM))
        finally:
            shutil.rmtree(cache_dir)
        return {cell: pipeline_outcome(ctx.artifacts)}


#: Fig. 7: BT class B on 16 ranks of the ARC cluster, compute 100% → 0%
FIG7_BASE = {"app": "bt", "nranks": 16, "cls": "B", "platform": "arc"}
FIG7_SCALES = tuple(round(1 - i / 10, 1) for i in range(11))


class WhatifWarm(Workload):
    """One generated spec re-run across the Fig. 7 plan, cache warm."""

    name = "whatif-warm"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.plan = SweepPlan(name="fig7-whatif", base=dict(FIG7_BASE),
                              axes=[{"field": "compute_scale",
                                     "values": list(FIG7_SCALES)}])
        self.cache_dir: Optional[str] = None

    def setup(self):
        # the base point cold into a fresh cache, which the sweeps read
        cache_dir = self._fresh_dir()
        result = full_pipeline(run=True).run(
            build_config(self.plan.base, use_cache=True,
                         cache_dir=cache_dir))
        self.close()
        self.cache_dir = cache_dir
        return {"setup:base": pipeline_outcome(result.artifacts)}

    def cells(self):
        return ["sweep"]

    def _sweep(self, progress=None) -> Dict[str, str]:
        result = run_sweep(self.plan, workers=1, cache_dir=self.cache_dir,
                           progress=progress)
        return {"canonical_sha256": sha256(result.canonical_json())}

    def run_cell(self, cell, clock):
        # one segment per sweep point: the 6 s sweep is too long to be
        # calibrated only at its ends
        with clock:
            return self._sweep(progress=clock.tick)

    def traced_cells(self):
        return [f"point-{p.index}" for p in self.plan.points()] + ["sweep"]

    def trace_cell(self, cell, rec, inst):
        trace_id = f"{self.name}/{cell}"
        if cell == "sweep":
            with rec.span("sweep.run_sweep", trace_id=trace_id,
                          counters=inst.counters):
                outcome = self._sweep()
            return {cell: outcome}
        point = self.plan.points()[int(cell.split("-")[1])]
        with rec.span("cell", trace_id=trace_id):
            ctx = RunContext(build_config(point.overrides, use_cache=True,
                                          cache_dir=self.cache_dir))
            run_stages(rec, inst, ctx, full_pipeline(run=True).stages)
        return {cell: {
            "makespan": ctx.artifacts["run_result"].total_time.hex()}}

    def close(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


WORKLOADS = {w.name: w for w in (Generate, PipelineCold, WhatifWarm)}


class Checker:
    """Compares each cell's outcome with its pin and counts failures.

    With ``strict=False`` (pinning) a cell without a pin is pinned by its
    first outcome, so later outcomes of the same cell must still agree.
    """

    def __init__(self, workload: str, pins: Dict[str, dict],
                 strict: bool = True):
        self.workload = workload
        self.pins = {cell: dict(pin) for cell, pin in pins.items()}
        self.strict = strict
        self.attempted = 0
        self.failures: List[str] = []
        self.observed: Dict[str, dict] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, cell: str, outcome: dict) -> None:
        self.attempted += 1
        self.observed[cell] = outcome
        pin = self.pins.get(cell)
        if pin is None:
            if self.strict:
                self._fail(cell, "no pinned outcome in expected.json")
            else:
                self.pins[cell] = dict(outcome)
            return
        diffs = [f"{key} {outcome.get(key)!r} != pinned {pin.get(key)!r}"
                 for key in sorted(set(pin) | set(outcome))
                 if outcome.get(key) != pin.get(key)]
        if diffs:
            self._fail(cell, "; ".join(diffs))

    def error(self, cell: str, exc: BaseException) -> None:
        """A cell that raised: counted, reported, and the run goes on."""
        self.attempted += 1
        traceback.print_exc()
        self._fail(cell, f"{type(exc).__name__}: {exc}")

    def _fail(self, cell: str, reason: str) -> None:
        line = f"FAIL {self.workload} {cell}: {reason}"
        self.failures.append(line)
        print(line, flush=True)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            checker: Checker, import_s: float = 0.0) -> dict:
    """Set up ``SETUPS`` times, repeat every cell (in a seed-shuffled
    order) until ``seconds`` have passed, then optionally run the traced
    pass.  Peak RSS is read before the traced pass.  A full collection
    precedes every set-up and cell, outside the timed region, so no cell
    pays for its predecessor's garbage, whatever order the seed picks.

    Times come raw and in reference seconds, from a
    :class:`calibrate.Clock` that samples host speed around every set-up,
    cell and sweep point: each set-up, each repetition and the traced
    pass is converted with the samples taken over it.
    """
    clock = calibrate.Clock()
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        mark = clock.mark()
        try:
            with clock:
                observed = wl.setup()
        except Exception as exc:  # a failing set-up is a failed cell
            checker.error("setup", exc)
            observed = {}
        setups.append(clock.since(mark))
        for cell, outcome in observed.items():
            checker.check(cell, outcome)
    # the import ran just before the first sample, so it has none before
    import_ref = import_s * calibrate.REF_S / statistics.mean(
        clock.samples[:2])
    setup_raw = [import_s + raw for raw, _ in setups]
    setup_ref = [import_ref + ref for _, ref in setups]

    reps_raw: List[float] = []
    reps_ref: List[float] = []
    per_cell: Dict[str, List[float]] = {}
    t_begin = time.perf_counter()
    while not reps_raw or time.perf_counter() - t_begin < seconds:
        order = wl.cells()
        random.Random(f"{seed}:{len(reps_raw)}").shuffle(order)
        mark = clock.mark()
        outcomes = {}
        for cell in order:
            gc.collect()
            cell_raw = clock.raw
            try:
                outcome = wl.run_cell(cell, clock)
            except Exception as exc:  # a failing cell never aborts the run
                checker.error(cell, exc)
                continue
            per_cell.setdefault(cell, []).append(clock.raw - cell_raw)
            outcomes[cell] = outcome
            checker.check(cell, outcome)
        raw, ref = clock.since(mark)
        reps_raw.append(raw)
        reps_ref.append(ref)
        for cell, outcome in wl.rep_outcomes(outcomes).items():
            checker.check(cell, outcome)

    out = {"setup_raw": setup_raw, "setup_ref": setup_ref,
           "reps_raw": reps_raw, "reps_ref": reps_ref,
           "cell_medians_raw": {c: statistics.median(t)
                                for c, t in sorted(per_cell.items())},
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        rec = SpanRecorder(prefix=f"{wl.name}:")
        inst = obs.Instrumentation()
        order = wl.traced_cells()
        random.Random(f"{seed}:traced").shuffle(order)
        mark = clock.mark()
        with obs.instrumented(inst), clock:
            for cell in order:
                gc.collect()
                try:
                    observed = wl.trace_cell(cell, rec, inst)
                except Exception as exc:
                    checker.error(cell, exc)
                    continue
                for name, outcome in observed.items():
                    checker.check(name, outcome)
                clock.tick()
        raw, ref = clock.since(mark)
        layers, span_self = layer_metrics(rec.spans, ref / raw)
        wall_ref = statistics.median(reps_ref)
        layers["trace.overhead_pct"] = (
            (layers["trace.root_s"] - wall_ref) / wall_ref * 100
            if wall_ref else None)
        checker.check("identity", {k: layers[k] for k in IDENTITY_GUARDS})
        out.update(layers=layers, span_self=span_self, spans=rec.spans)
    out["calibration_s"] = clock.samples
    return out


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(spans: List[dict], scale: float = 1.0):
    """Per-layer metrics of a traced pass, and self seconds per span name,
    with every time multiplied by ``scale`` (raw to reference seconds).

    Layer metrics come from the ``cell`` trees (one per traced cell);
    the ``sim.app`` and ``sweep.run_sweep`` roots only feed
    ``sim.app_s`` and ``sweep.overhead_s``.  A metric is None on a
    workload where its layer does not run.
    """
    selfs = {k: v * scale for k, v in self_times(spans).items()}
    roots = root_of(spans)
    in_cells = [s for s in spans if roots[s["span_id"]]["name"] == "cell"]
    leaves = [s for s in in_cells if s["parent_id"] is not None]
    cell_roots = [s for s in in_cells if s["parent_id"] is None]

    def dur(s):
        return (s["end"] - s["start"]) * scale

    def secs(name, pred=lambda s: True) -> Optional[float]:
        found = [selfs[s["span_id"]] for s in leaves
                 if s["name"] == name and pred(s)]
        return sum(found) if found else None

    def layer_s(layer) -> float:
        return sum(selfs[s["span_id"]] for s in leaves
                   if s["name"].startswith(layer + "."))

    def count(counter, names=None) -> float:
        return sum(s.get("counters", {}).get(counter, 0) for s in leaves
                   if names is None or s["name"] in names)

    def hit(s):
        return s.get("cache") == "hit"

    def plus(*vals):
        vals = [v for v in vals if v is not None]
        return sum(vals) if vals else None

    trace_s = secs("scalatrace.trace", lambda s: not hit(s))
    apps = [dur(s) for s in spans if s["name"] == "sim.app"]
    app_s = sum(apps) if apps else None
    algorithms = ("generator.align", "generator.resolve")
    fastpath = count("scalatrace.merge_fastpath_hits", algorithms)
    lcs_alignments = count("scalatrace.lcs_alignments", algorithms)
    run_s = secs("conceptual.run")
    run_steps = count("engine.steps", ("conceptual.run",))
    hits = count("pipeline.cache_hits")
    misses = count("pipeline.cache_misses")
    root_s = sum(dur(s) for s in cell_roots)
    sweeps = [dur(s) for s in spans if s["name"] == "sweep.run_sweep"]
    m = {
        "scalatrace.self_s": layer_s("scalatrace"),
        "scalatrace.trace_s": trace_s,
        "scalatrace.load_s": plus(secs("scalatrace.load"),
                                  secs("scalatrace.trace", hit)),
        "sim.app_s": app_s,
        "scalatrace.tracing_s": (trace_s - app_s
                                 if trace_s is not None and app_s is not None
                                 else None),
        "scalatrace.events_in": count("scalatrace.events_in"),
        "scalatrace.nodes_live_peak": count("scalatrace.nodes_live_peak"),
        "generator.align_s": secs("generator.align"),
        "generator.resolve_s": secs("generator.resolve"),
        "generator.emit_s": secs("generator.emit"),
        "generator.self_s": layer_s("generator"),
        "generator.lcs_cells": count("scalatrace.lcs_cells", algorithms),
        "generator.fastpath_ratio": _ratio(fastpath,
                                           fastpath + lcs_alignments),
        "conceptual.compile_s": secs("conceptual.compile",
                                     lambda s: not s.get("from_source")),
        "conceptual.parse_s": secs("conceptual.compile",
                                   lambda s: s.get("from_source", False)),
        "conceptual.run_s": run_s,
        "conceptual.run_steps": run_steps,
        "conceptual.steps_per_s": _ratio(run_steps, run_s),
        "conceptual.self_s": layer_s("conceptual"),
        "pipeline.cache_hits": hits,
        "pipeline.cache_hit_ratio": _ratio(hits, hits + misses),
        "sweep.overhead_s": sum(sweeps) - root_s if sweeps else None,
        "generator.rsds_aligned": count("generator.rsds_aligned"),
        "generator.wildcards_resolved": count("generator.wildcards_resolved"),
        "generator.statements_emitted": count("generator.statements_emitted"),
        "conceptual.statements_compiled":
            count("conceptual.statements_compiled"),
        "sim.steps": count("engine.steps"),
        "trace.root_s": root_s,
        "trace.coverage_ratio": _ratio(sum(selfs[s["span_id"]]
                                           for s in leaves), root_s),
    }
    span_self: Dict[str, float] = {}
    for s in in_cells:
        span_self[s["name"]] = span_self.get(s["name"], 0.0) \
            + selfs[s["span_id"]]
    return m, span_self
