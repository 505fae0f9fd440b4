"""Command-line interface for the benchmark-generation pipeline.

Mirrors Fig. 1 of the paper as shell steps::

    repro apps                                    # list workloads
    repro trace --app lu --np 16 -o lu.scalatrace # run + trace
    repro generate lu.scalatrace -o lu.ncptl      # trace -> coNCePTuaL
    repro run lu.ncptl --np 16                    # execute the benchmark
    repro replay lu.scalatrace                    # ScalaReplay
    repro compare a.scalatrace b.scalatrace       # semantic equivalence
    repro pipeline --app lu --np 8                # the whole flow, cached

Every pipeline-shaped command is a thin shell over
:mod:`repro.pipeline` — the one orchestrated code path — and accepts
``--metrics FILE`` to dump the instrumentation event log (JSON lines)
of everything the run did.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

from repro import __version__, obs
from repro.apps import APPS
from repro.errors import ReproError
from repro.generator import extrapolate_trace
from repro.pipeline import (CompileStage, Pipeline, PipelineConfig,
                            ReplayStage, RunContext, RunStage, TraceStage,
                            full_pipeline, generation_stages)
from repro.scalatrace.serialize import dump_trace, load_trace
from repro.sim.network import PLATFORMS
from repro.tools.compare import compression_ratio, traces_equivalent
from repro.tools.mpip import MpiPHook
from repro.tools.matrix import (communication_matrix, hotspots,
                                render_matrix)


def _add_workload(parser):
    parser.add_argument("--app", required=True, choices=sorted(APPS))
    parser.add_argument("--np", type=int, required=True)
    parser.add_argument("--class", dest="cls", default="S",
                        help="problem class (S/W/A/B/C)")


def _add_platform(parser):
    parser.add_argument("--platform", default="bluegene",
                        choices=sorted(PLATFORMS),
                        help="network model preset")


def _workers(text: str) -> int:
    """A ``--workers`` count; 0 (one per CPU) is resolved here."""
    from repro.sweep import default_workers
    workers = int(text)
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive count or 0 (one per CPU), got {workers}")
    return workers or default_workers()


def _add_workers(parser, what="worker processes"):
    parser.add_argument("--workers", type=_workers, default=1,
                        help=f"{what} (0 = one per CPU; default 1)")


def _add_plan_run(parser, output_help):
    """The options of a command that runs one sweep plan (_run_plan)."""
    _add_workers(parser)
    parser.add_argument("-o", "--output", help=output_help)
    parser.add_argument("--jsonl", metavar="FILE",
                        help="write canonical per-point JSON lines here "
                             "(byte-identical for any --workers value)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="shared artifact cache directory "
                             "(default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the artifact cache entirely")
    parser.add_argument("--report", action="store_true",
                        help="also print the per-layer instrumentation "
                             "report")
    _add_metrics(parser)


def _add_metrics(parser):
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the instrumentation event log "
                             "(JSON lines) to FILE")


def _add_topology(parser):
    from repro.topology import TOPOLOGIES
    parser.add_argument("--topology", choices=sorted(TOPOLOGIES),
                        help="route messages over a fabric topology with "
                             "per-link contention (default: flat wire)")
    parser.add_argument("--placement", default="block",
                        help="rank-to-node placement: block, roundrobin, "
                             "random[:seed], map:<file> (default: block)")
    parser.add_argument("--topology-param", action="append", default=[],
                        metavar="KEY=VALUE", dest="topology_params",
                        help="topology/fabric parameter (repeatable), "
                             "e.g. nodes=4, arity=8, hop_latency=1e-6, "
                             "'dims=[2,2,2]'")


def _parse_params(items, flag: str) -> dict:
    """``KEY=VALUE`` items of a repeatable ``flag`` as a mapping; each
    value is read as JSON when it parses, else kept as a string."""
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: {flag} needs KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _topology_kwargs(args) -> dict:
    """PipelineConfig keyword args for the ``--topology`` flag family."""
    params = _parse_params(getattr(args, "topology_params", None),
                           "--topology-param")
    out = {"topology": args.topology, "placement": args.placement}
    if params:
        out["topology_params"] = params
    return out


def _add_schedule(parser):
    from repro.sim.policy import POLICIES
    parser.add_argument("--schedule-policy", choices=POLICIES,
                        default="canonical", dest="schedule_policy",
                        help="scheduler tie-break policy for simulated "
                             "runs (default: canonical; see "
                             "docs/FUZZING.md)")
    parser.add_argument("--schedule-seed", type=int, default=None,
                        dest="schedule_seed", metavar="N",
                        help="seed for a non-canonical schedule policy "
                             "(default: 0)")


def _schedule_kwargs(args) -> dict:
    """PipelineConfig keyword args for the ``--schedule-*`` flag family.

    Canonical runs return an empty mapping so every pre-policy call
    site stays byte-identical; a seed without a seeded policy is an
    argv error, caught here rather than deep inside a run.
    """
    policy = getattr(args, "schedule_policy", "canonical")
    seed = getattr(args, "schedule_seed", None)
    if policy == "canonical":
        if seed is not None:
            raise SystemExit(
                "error: --schedule-seed requires a non-canonical "
                "--schedule-policy (see docs/FUZZING.md)")
        return {}
    return {"schedule_policy": policy, "schedule_seed": seed}


def _add_queueing(parser):
    from repro.sim.queueing import QUEUE_DISCIPLINES
    parser.add_argument("--queue-discipline", choices=QUEUE_DISCIPLINES,
                        default="fifo", dest="queue_discipline",
                        help="per-link queue discipline for routed runs "
                             "(default: fifo; non-fifo disciplines need "
                             "--topology; see docs/SCENARIOS.md)")
    parser.add_argument("--queue-param", action="append", default=[],
                        metavar="KEY=VALUE", dest="queue_params",
                        help="queue-discipline knob (repeatable), e.g. "
                             "target=1e-6, interval=1e-5, penalty=5e-5")


def _queueing_kwargs(args) -> dict:
    """PipelineConfig keyword args for the ``--queue-*`` flag family.

    FIFO (the default) returns an empty mapping so pre-queueing call
    sites stay byte-identical; knobs without a non-fifo discipline are
    an argv error, caught here rather than deep inside a run.
    """
    discipline = getattr(args, "queue_discipline", "fifo")
    params = _parse_params(getattr(args, "queue_params", None),
                           "--queue-param")
    if discipline in (None, "fifo"):
        if params:
            raise SystemExit(
                "error: --queue-param requires a non-fifo "
                "--queue-discipline")
        return {}
    out = {"queue_discipline": discipline}
    if params:
        out["queue_params"] = params
    return out


def _scenario_ref(value: str):
    """Resolve a ``--scenario``/positional scenario argument: a file
    path loads as an inline spec; anything else passes through as a
    curated registry name (resolved by the config/job layer)."""
    if os.path.exists(value):
        from repro.scenarios import Scenario
        return Scenario.load(value)
    return value


@contextlib.contextmanager
def _metrics(args):
    """Collect instrumentation for the command; dump it if requested."""
    inst = obs.Instrumentation()
    with obs.instrumented(inst):
        yield inst
    path = getattr(args, "metrics", None)
    if path:
        lines = inst.write_jsonl(path)
        print(f"wrote {lines} metric records -> {path}")


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename, so a failed
    generation can never leave a truncated output behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cmd_apps(args):
    if args.json:
        listing = {name: {"description": APPS[name].description,
                          "classes": sorted(APPS[name].classes),
                          "pattern": APPS[name].pattern}
                   for name in sorted(APPS)}
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for name in sorted(APPS):
        app = APPS[name]
        print(f"{name:10s} [{app.pattern}] {app.description}")
    return 0


def cmd_trace(args):
    config = PipelineConfig(app=args.app, nranks=args.np, cls=args.cls,
                            platform=args.platform,
                            **_schedule_kwargs(args))
    with _metrics(args):
        result = Pipeline([TraceStage()]).run(config)
    trace = result.trace
    dump_trace(trace, args.output)
    print(f"traced {args.app} (class {args.cls}, {args.np} ranks) on "
          f"{args.platform}: {trace.event_count()} events in "
          f"{trace.node_count()} trace nodes "
          f"({compression_ratio(trace):.1f}x compression) -> {args.output}")
    return 0


def cmd_generate(args):
    trace = load_trace(args.trace)
    config = PipelineConfig(nranks=trace.world_size, platform=None,
                            align=not args.no_align,
                            resolve=not args.no_resolve,
                            include_timing=not args.no_timing)
    ctx = RunContext(config)
    ctx.artifacts["trace"] = trace
    with _metrics(args):
        Pipeline(generation_stages()).run(context=ctx)
    source = ctx.artifacts["source"]
    # generation is complete before the output file is touched
    _write_atomic(args.output, source)
    notes = []
    if ctx.artifacts["was_aligned"]:
        notes.append("collectives aligned (Algorithm 1)")
    if ctx.artifacts["was_resolved"]:
        notes.append("wildcards resolved (Algorithm 2)")
    print(f"generated {args.output} "
          f"({len(source.splitlines())} lines"
          + (", " + ", ".join(notes) if notes else "") + ")")
    if args.python:
        from repro.generator.emit_python import emit_python
        _write_atomic(args.python,
                      emit_python(ctx.artifacts["benchmark"].ast,
                                  trace.world_size))
        print(f"generated {args.python} (Python backend)")
    return 0


def cmd_run(args):
    with open(args.program) as fh:
        source = fh.read()
    config = PipelineConfig(nranks=args.np, platform=args.platform,
                            **_topology_kwargs(args),
                            **_queueing_kwargs(args),
                            **_schedule_kwargs(args))
    hook = MpiPHook()
    ctx = RunContext(config, hooks=[hook])
    ctx.artifacts["source"] = source
    with _metrics(args):
        Pipeline([CompileStage(), RunStage()]).run(context=ctx)
    result = ctx.artifacts["run_result"]
    logs = ctx.artifacts["logs"]
    print(f"ran {args.program} on {args.np} simulated ranks "
          f"({args.platform}): {result.total_time * 1e6:.1f} us total")
    print(logs.report())
    if args.profile:
        print(hook.report())
    return 0


def cmd_replay(args):
    trace = load_trace(args.trace)
    config = PipelineConfig(nranks=trace.world_size,
                            platform=args.platform,
                            **_topology_kwargs(args),
                            **_queueing_kwargs(args),
                            **_schedule_kwargs(args))
    ctx = RunContext(config)
    ctx.artifacts["trace"] = trace
    with _metrics(args):
        Pipeline([ReplayStage()]).run(context=ctx)
    result = ctx.artifacts["run_result"]
    print(f"replayed {args.trace} on {trace.world_size} ranks "
          f"({args.platform}): {result.total_time * 1e6:.1f} us total, "
          f"{result.messages_sent} messages")
    return 0


def cmd_pipeline(args):
    """The full Fig. 1 flow in one command, with per-stage reporting."""
    plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan
        plan = FaultPlan.load(args.fault_plan)
    config = PipelineConfig(app=args.app, nranks=args.np, cls=args.cls,
                            platform=args.platform,
                            use_cache=not args.no_cache,
                            cache_dir=args.cache_dir,
                            fault_plan=plan,
                            profile=args.profile,
                            scenario=(_scenario_ref(args.scenario)
                                      if args.scenario else None),
                            **_topology_kwargs(args),
                            **_queueing_kwargs(args),
                            **_schedule_kwargs(args))
    from repro.errors import SimDeadlockError
    with _metrics(args) as inst:
        try:
            result = full_pipeline(run=not args.no_run).run(config)
        except SimDeadlockError as exc:
            # the normal outcome of replaying a fuzz reproducer seed:
            # report the structured evidence instead of a traceback
            print(f"deadlock: {exc}", file=sys.stderr)
            if exc.diagnostic is not None:
                print(exc.diagnostic.render(indent="  "),
                      file=sys.stderr)
            return 1
    print(result.report())
    hits = [r.stage + (" (generate)" if r.stage == "emit" else "")
            for r in result.records if r.cache == "hit"]
    if hits:
        print(f"cache hit: {', '.join(hits)}")
    if result.fault_report is not None:
        print(result.fault_report.render())
    if args.output:
        if result.source is None:
            print(f"no generated source to write to {args.output} "
                  "(degraded run)", file=sys.stderr)
        else:
            _write_atomic(args.output, result.source)
            print(f"wrote {args.output}")
    if args.profile:
        phases = {name[len("engine.profile."):-len("_s")]: value
                  for name, value in sorted(inst.counters.items())
                  if name.startswith("engine.profile.")
                  and name.endswith("_s")}
        if phases:
            total = sum(phases.values())
            print("engine phase profile (all simulation stages):")
            for phase, secs in phases.items():
                share = 100.0 * secs / total if total else 0.0
                print(f"  {phase:<10} {secs * 1e3:9.2f} ms  {share:5.1f}%")
        else:
            print("engine phase profile: no simulation stage executed")
        calls, secs = inst.span_totals().get("conceptual.specialise",
                                             (0, 0.0))
        if calls:
            kept = int(inst.counters.get("conceptual.rank_statements", 0))
            print(f"coNCePTuaL specialise: {secs * 1e3:.2f} ms "
                  f"({kept} statements kept over all ranks)")
    if args.report:
        print(inst.report())
    return 1 if result.degraded else 0


def _spec_family(args):
    """The spec class and commented template of a spec-file group."""
    import importlib
    module = importlib.import_module(args.spec_module)
    return getattr(module, args.spec_class), module.TEMPLATE


def cmd_spec_template(args):
    _, template = _spec_family(args)
    if args.output:
        _write_atomic(args.output, template)
        print(f"wrote {args.output}")
    else:
        print(template, end="")
    return 0


def cmd_spec_validate(args):
    cls, _ = _spec_family(args)
    try:
        spec = cls.load(args.file)
        spec.check()
    except ReproError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {spec.describe()} (digest {spec.digest()})")
    return 0


def _add_spec_commands(sub, module: str, cls: str, what: str) -> None:
    """The ``template`` and ``validate`` subcommands shared by every
    spec-file group (faults, sweep, fuzz, scenarios)."""
    sp = sub.add_parser("template",
                        help=f"print a commented {what} template")
    sp.add_argument("-o", "--output",
                    help="write the template here instead of stdout")
    sp.set_defaults(func=cmd_spec_template, spec_module=module,
                    spec_class=cls)
    sp = sub.add_parser("validate",
                        help=f"check a {what} file (every point it "
                             f"expands to included) and print its digest")
    sp.add_argument("file", help=f"{what} file (YAML/JSON)")
    sp.set_defaults(func=cmd_spec_validate, spec_module=module,
                    spec_class=cls)


def cmd_faults_run(args):
    from repro.apps import make_app
    from repro.errors import SimulationError
    from repro.faults import FaultInjector, FaultPlan
    from repro.mpi.world import run_spmd
    from repro.sim.network import make_model
    plan = FaultPlan.load(args.plan)
    faults = FaultInjector(plan)
    program = make_app(args.app, args.np, args.cls)
    with _metrics(args):
        try:
            result = run_spmd(program, args.np,
                              model=make_model(args.platform),
                              faults=faults)
        except SimulationError as exc:
            partial = getattr(exc, "partial", None)
            if partial is None:
                raise
            print(f"simulation failed: {exc}")
            print(partial.fault_report.render())
            return 1
    print(f"ran {args.app} (class {args.cls}, {args.np} ranks) on "
          f"{args.platform} under plan {args.plan}: "
          f"{result.total_time * 1e6:.1f} us total")
    print(result.fault_report.render())
    return 1 if result.degraded else 0


def _run_plan(args, plan, full_output=True):
    """Run a sweep plan (``sweep run``, ``scenarios run``): print the
    report and any point's link extras, then write ``-o`` (the full
    result, or only its canonical JSON) and ``--jsonl``."""
    from repro.sweep import run_sweep
    with _metrics(args) as inst:
        result = run_sweep(plan, workers=args.workers,
                           use_cache=not args.no_cache,
                           cache_dir=args.cache_dir)
    print(result.report())
    for point in result.points:
        extras = {k: point.metrics[k] for k in
                  ("links_used", "link_wait_s", "link_drops")
                  if k in point.metrics}
        if extras:
            print(f"  {point.index:<6d} " + "  ".join(
                f"{k}={v}" for k, v in sorted(extras.items())))
    if args.output:
        _write_atomic(args.output, json.dumps(
            result.to_dict(), indent=2, sort_keys=True) + "\n"
            if full_output else result.canonical_json())
        print(f"wrote {args.output}")
    if args.jsonl:
        _write_atomic(args.jsonl, result.canonical_jsonl())
        print(f"wrote {args.jsonl} ({len(result.points)} point lines)")
    if args.report:
        print(inst.report())
    return 1 if result.failed else 0


def cmd_sweep_run(args):
    from repro.sweep import SweepPlan
    return _run_plan(args, SweepPlan.load(args.plan))


def cmd_fuzz_run(args):
    import dataclasses
    from repro.fuzz import (FuzzCampaign, load_corpus, run_campaign,
                            save_corpus)
    campaign = FuzzCampaign.load(args.campaign)
    if args.seeds is not None:
        campaign = dataclasses.replace(campaign, seeds=args.seeds)
    corpus = load_corpus(args.corpus) if args.corpus else None
    with _metrics(args) as inst:
        report = run_campaign(campaign, workers=args.workers,
                              use_cache=args.cache_dir is not None,
                              cache_dir=args.cache_dir or ".repro-cache",
                              corpus=corpus)
    print(report.summary())
    for cell in report.divergent_cells:
        for cls in cell["classes"]:
            if not cls["canonical"] and cls["reproducer"]:
                print(f"  reproduce [{cell['label']} {cls['kind']}]: "
                      f"{cls['reproducer']['command']}")
    if args.output:
        _write_atomic(args.output,
                      json.dumps(report.to_dict(), indent=2,
                                 sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if args.corpus:
        save_corpus(args.corpus, corpus)
        print(f"corpus: {args.corpus} ({report.new_classes} new "
              f"class(es))")
    if args.report:
        print(inst.report())
    # a divergence (even a deadlock) is a *finding*, not a failure:
    # the exit status only reflects whether the campaign was driven
    return 0


def cmd_scenarios_list(args):
    from repro.scenarios import SCENARIOS
    if args.json:
        listing = {name: {"description": s.description,
                          "digest": s.digest(),
                          "topology": s.topology,
                          "queue_discipline": s.queue_discipline}
                   for name, s in SCENARIOS.items()}
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for name, s in SCENARIOS.items():
        print(f"{name:22s} {s.description}")
    return 0


def cmd_scenarios_show(args):
    from repro.errors import ScenarioError
    from repro.scenarios import get_scenario
    try:
        scn = get_scenario(_scenario_ref(args.scenario))
    except ScenarioError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(scn.dumps(), end="")
    print(f"# {scn.describe()}")
    return 0


def cmd_scenarios_run(args):
    """Run one scenario × app cell: its one-point sweep plan, the plan a
    service ``scenario`` submission runs, so ``-o`` writes the canonical
    bytes ``repro jobs result`` returns for the same submission."""
    from repro.scenarios import scenario_plan
    plan = scenario_plan(scenario=_scenario_ref(args.scenario),
                         app=args.app, nranks=args.np, cls=args.cls,
                         platform=args.platform, mode=args.mode)
    print(plan.describe())
    return _run_plan(args, plan, full_output=False)


def cmd_serve(args):
    """Run the sweep service until interrupted (see docs/SERVICE.md)."""
    import asyncio
    from repro.service import SweepService
    service = SweepService(args.state_dir, cache_dir=args.cache_dir,
                           workers=args.workers, host=args.host,
                           port=args.port)

    async def serve() -> None:
        await service.start()
        replay = service.store.replay
        print(f"repro service {__version__} on "
              f"http://{service.host}:{service.port} "
              f"(state {args.state_dir}, cache {args.cache_dir}, "
              f"{args.workers} engine worker(s))", flush=True)
        if replay.get("jobs"):
            print(f"journal replay: {replay['jobs']} job(s), "
                  f"{replay['requeued']} requeued", flush=True)
        await service.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def cmd_jobs_submit(args):
    from repro.service import client
    with open(args.plan) as fh:
        spec_text = fh.read()
    job = client.submit(args.url, spec_text, kind=args.kind)
    shared = " (deduplicated: shares an existing execution)" \
        if job.get("deduplicated") else ""
    print(f"submitted {job['id']} [{job['kind']}] "
          f"digest {job['digest']} state {job['state']}{shared}")
    if args.wait:
        job = client.wait(args.url, job["id"], timeout=args.timeout)
        print(f"{job['id']} -> {job['state']}"
              + (f" ({job['error']})" if job.get("error") else ""))
        return 0 if job["state"] == "done" else 1
    return 0


def cmd_jobs_status(args):
    from repro.service import client
    job = client.status(args.url, args.id)
    print(json.dumps(job, indent=2, sort_keys=True))
    return 1 if job.get("state") == "failed" else 0


def cmd_jobs_result(args):
    from repro.service import client
    fmt = "jsonl" if args.jsonl else "json"
    text = client.result(args.url, args.id, fmt=fmt)
    if args.output:
        _write_atomic(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_jobs_health(args):
    import time as _time
    from repro.errors import ServiceError
    from repro.service import client
    deadline = _time.monotonic() + args.timeout
    while True:
        try:
            health = client.healthz(args.url)
            break
        except ServiceError:
            if _time.monotonic() >= deadline:
                raise
            _time.sleep(0.2)
    print(json.dumps(health, indent=2, sort_keys=True))
    return 0


def cmd_extrapolate(args):
    if len(args.traces) < 2:
        print("error: extrapolation needs traces at two or more distinct "
              "rank counts (three or more disambiguate scaling laws); "
              f"got {len(args.traces)} trace(s)", file=sys.stderr)
        return 2
    traces = [load_trace(path) for path in args.traces]
    big = extrapolate_trace(traces, args.np)
    dump_trace(big, args.output)
    sizes = ", ".join(str(t.world_size) for t in traces)
    print(f"extrapolated {{{sizes}}}-rank traces to {args.np} ranks: "
          f"{big.event_count()} events in {big.node_count()} nodes "
          f"-> {args.output}")
    return 0


def cmd_matrix(args):
    trace = load_trace(args.trace)
    m = communication_matrix(trace, counts=args.counts)
    print(render_matrix(m))
    unit = "messages" if args.counts else "bytes"
    for src_r, dst, v in hotspots(m):
        print(f"  {src_r} -> {dst}: {v} {unit}")
    return 0


def cmd_compare(args):
    a = load_trace(args.trace_a)
    b = load_trace(args.trace_b)
    ok, detail = traces_equivalent(a, b,
                                   check_wildcards=not args.ignore_sources)
    print(("EQUIVALENT: " if ok else "DIFFERENT: ") + detail)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="automatic communication-benchmark generation "
                    "(ScalaTrace -> coNCePTuaL) on a simulated MPI")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apps", help="list available applications")
    p.add_argument("--json", action="store_true",
                   help="machine-readable listing")
    p.set_defaults(func=cmd_apps)

    p = sub.add_parser("trace", help="trace an application")
    _add_workload(p)
    p.add_argument("-o", "--output", required=True)
    _add_platform(p)
    _add_schedule(p)
    _add_metrics(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("generate",
                       help="generate a coNCePTuaL benchmark from a trace")
    p.add_argument("trace")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--python", help="also emit the Python backend here")
    p.add_argument("--no-align", action="store_true",
                   help="skip Algorithm 1 (collective alignment)")
    p.add_argument("--no-resolve", action="store_true",
                   help="skip Algorithm 2 (wildcard resolution)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit COMPUTE statements")
    _add_metrics(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run a coNCePTuaL benchmark")
    p.add_argument("program")
    p.add_argument("--np", type=int, required=True)
    p.add_argument("--profile", action="store_true",
                   help="print the mpiP-style profile")
    _add_platform(p)
    _add_topology(p)
    _add_queueing(p)
    _add_schedule(p)
    _add_metrics(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="replay a trace (ScalaReplay)")
    p.add_argument("trace")
    _add_platform(p)
    _add_topology(p)
    _add_queueing(p)
    _add_schedule(p)
    _add_metrics(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("pipeline",
                       help="run the full Fig. 1 flow (trace -> align -> "
                            "resolve -> emit -> compile -> run) with "
                            "per-stage timing, caching, and metrics")
    _add_workload(p)
    p.add_argument("-o", "--output",
                   help="also write the generated benchmark here")
    p.add_argument("--no-run", action="store_true",
                   help="stop after compiling (skip benchmark execution)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="artifact cache directory "
                        "(default: .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the artifact cache entirely")
    p.add_argument("--report", action="store_true",
                   help="also print the per-layer instrumentation report")
    p.add_argument("--fault-plan", metavar="FILE",
                   help="subject simulation stages to the fault plan "
                        "(YAML/JSON; see 'repro faults template')")
    p.add_argument("--profile", action="store_true",
                   help="attribute engine wall time to phases "
                        "(schedule/match/execute/fabric) and print a "
                        "summary at exit")
    p.add_argument("--scenario", metavar="NAME|FILE",
                   help="execute under a scenario: a curated name from "
                        "'repro scenarios list' or a YAML/JSON spec "
                        "file (the trace stays canonical; see "
                        "docs/SCENARIOS.md)")
    _add_platform(p)
    _add_topology(p)
    _add_queueing(p)
    _add_schedule(p)
    _add_metrics(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("faults",
                       help="work with fault-injection plans "
                            "(template/validate/run)")
    fsub = p.add_subparsers(dest="faults_command", required=True)

    _add_spec_commands(fsub, "repro.faults", "FaultPlan", "fault-plan")
    fp = fsub.add_parser("run",
                         help="run an application under a fault plan and "
                              "print the fault report")
    _add_workload(fp)
    fp.add_argument("--plan", required=True, help="fault-plan file")
    _add_platform(fp)
    _add_metrics(fp)
    fp.set_defaults(func=cmd_faults_run)

    p = sub.add_parser("sweep",
                       help="batched what-if studies: run a plan's whole "
                            "configuration grid, in parallel "
                            "(template/validate/run)")
    ssub = p.add_subparsers(dest="sweep_command", required=True)

    _add_spec_commands(ssub, "repro.sweep", "SweepPlan", "sweep-plan")
    sp = ssub.add_parser("run",
                         help="execute every point of a sweep plan; "
                              "failed points are isolated, results merge "
                              "deterministically")
    sp.add_argument("plan", help="sweep-plan file (YAML/JSON; see "
                                 "'repro sweep template')")
    _add_plan_run(sp, "write the full sweep result (JSON) here")
    sp.set_defaults(func=cmd_sweep_run)

    p = sub.add_parser("fuzz",
                       help="schedule-space fuzzing: explore legal MPI "
                            "schedules under seeded policies and "
                            "classify the outcomes "
                            "(template/validate/run)")
    zsub = p.add_subparsers(dest="fuzz_command", required=True)

    _add_spec_commands(zsub, "repro.fuzz", "FuzzCampaign",
                       "fuzz-campaign")
    zp = zsub.add_parser("run",
                         help="execute a fuzz campaign and classify the "
                              "schedule outcomes (a deadlock find is a "
                              "finding, not a failure)")
    zp.add_argument("campaign", help="fuzz-campaign file (YAML/JSON; "
                                     "see 'repro fuzz template')")
    _add_workers(zp)
    zp.add_argument("--seeds", type=int, default=None, metavar="N",
                    help="override the campaign's seeds-per-policy "
                         "count")
    zp.add_argument("-o", "--output",
                    help="write the full fuzz report (JSON) here")
    zp.add_argument("--corpus", metavar="FILE",
                    help="dedup corpus JSON: mark classes unseen by "
                         "earlier campaigns and update the file")
    zp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="enable the shared artifact cache at DIR "
                         "(off by default: each point runs a distinct "
                         "schedule)")
    zp.add_argument("--report", action="store_true",
                    help="also print the per-layer instrumentation "
                         "report")
    _add_metrics(zp)
    zp.set_defaults(func=cmd_fuzz_run)

    p = sub.add_parser("scenarios",
                       help="adversarial traffic/congestion scenarios: "
                            "curated named specs composing topology, "
                            "faults, queueing, placement, and schedule "
                            "(list/show/run/template/validate)")
    csub = p.add_subparsers(dest="scenarios_command", required=True)

    cp = csub.add_parser("list", help="list the curated scenarios")
    cp.add_argument("--json", action="store_true",
                    help="machine-readable listing")
    cp.set_defaults(func=cmd_scenarios_list)

    cp = csub.add_parser("show",
                         help="print one scenario's full spec (a curated "
                              "name or a YAML/JSON file)")
    cp.add_argument("scenario", help="curated name or spec file")
    cp.set_defaults(func=cmd_scenarios_show)

    cp = csub.add_parser("run",
                         help="run one scenario x app cell through the "
                              "sweep engine (canonical result bytes "
                              "match a service scenario submission)")
    cp.add_argument("scenario", help="curated name or spec file")
    _add_workload(cp)
    cp.add_argument("--mode", default="run", choices=["run", "trace"],
                    help="pipeline suffix per point (default: run)")
    _add_platform(cp)
    _add_plan_run(cp, "write the canonical result (JSON) here")
    cp.set_defaults(func=cmd_scenarios_run)

    _add_spec_commands(csub, "repro.scenarios", "Scenario",
                       "scenario-spec")

    p = sub.add_parser("serve",
                       help="run the sweep service: an HTTP/JSON job "
                            "API over a journaled queue and the shared "
                            "artifact cache (see docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (0 = ephemeral; default 8642)")
    _add_workers(p, "sweep-engine worker processes per execution")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="shared artifact cache directory "
                        "(default: .repro-cache)")
    p.add_argument("--state-dir", default=".repro-service",
                   help="journal + result payload directory "
                        "(default: .repro-service)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("jobs",
                       help="client commands against a running service "
                            "(submit/status/result/health)")
    jsub = p.add_subparsers(dest="jobs_command", required=True)
    url_kw = {"default": "http://127.0.0.1:8642",
              "help": "service base URL "
                      "(default: http://127.0.0.1:8642)"}

    jp = jsub.add_parser("submit",
                         help="submit a sweep plan, fuzz campaign, or "
                              "scenario cell (run as its sweep plan)")
    jp.add_argument("plan", help="plan/campaign/job file (YAML/JSON)")
    jp.add_argument("--kind", choices=["sweep", "fuzz", "scenario"],
                    default="sweep",
                    help="what the file describes (default: sweep; a "
                         "scenario cell runs as its one-point sweep plan)")
    jp.add_argument("--url", **url_kw)
    jp.add_argument("--wait", action="store_true",
                    help="block until the job reaches a terminal state")
    jp.add_argument("--timeout", type=float, default=600.0,
                    help="--wait timeout in seconds (default 600)")
    jp.set_defaults(func=cmd_jobs_submit)

    jp = jsub.add_parser("status", help="print one job's status JSON")
    jp.add_argument("id", help="job id from 'repro jobs submit'")
    jp.add_argument("--url", **url_kw)
    jp.set_defaults(func=cmd_jobs_status)

    jp = jsub.add_parser("result",
                         help="fetch a terminal job's canonical result "
                              "bytes")
    jp.add_argument("id", help="job id from 'repro jobs submit'")
    jp.add_argument("--url", **url_kw)
    jp.add_argument("--jsonl", action="store_true",
                    help="canonical per-point JSON lines (sweep jobs)")
    jp.add_argument("-o", "--output",
                    help="write the result here instead of stdout")
    jp.set_defaults(func=cmd_jobs_result)

    jp = jsub.add_parser("health",
                         help="print /healthz (retries until the "
                              "service answers or --timeout elapses)")
    jp.add_argument("--url", **url_kw)
    jp.add_argument("--timeout", type=float, default=30.0,
                    help="retry window in seconds (default 30)")
    jp.set_defaults(func=cmd_jobs_health)

    p = sub.add_parser("extrapolate",
                       help="extrapolate small-rank traces to a larger "
                            "rank count (§6 / ScalaExtrap)")
    p.add_argument("traces", nargs="+",
                   help="two or more traces of the same app at distinct "
                        "rank counts (three or more disambiguate "
                        "scaling laws)")
    p.add_argument("--np", type=int, required=True,
                   help="target rank count")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("matrix",
                       help="print a trace's communication matrix")
    p.add_argument("trace")
    p.add_argument("--counts", action="store_true",
                   help="message counts instead of bytes")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("compare",
                       help="check two traces for semantic equivalence")
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.add_argument("--ignore-sources", action="store_true",
                   help="treat wildcard and resolved receives as equal")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # every typed failure ends in one line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
