"""The pipeline stages: Fig. 1 of the paper, one class per arrow.

``TraceStage → AlignStage → ResolveStage → EmitStage → CompileStage →
RunStage`` is the full application-to-executed-benchmark flow;
``ReplayStage`` is the ScalaReplay variant that executes a trace
directly.  Stages communicate exclusively through the
:class:`~repro.pipeline.context.RunContext` artifact store, so any
suffix/prefix of the chain is a valid pipeline (the CLI's ``generate``
command, for example, runs ``Align → Resolve → Emit → Compile`` from a
loaded trace).

Caching: every stage contributes ``key_parts`` to the rolling content
address; the two stages whose artifacts are worth persisting (the
serialized trace and the generated source — the expensive, serializable
ones) additionally declare ``cacheable = True`` and implement
``serialize``/``deserialize``.  The alignment/resolution passes are
re-validated on every run (they are also the deadlock detector), reading
their input from the cached trace when one was hit.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.errors import PipelineError, SimulationError
from repro.pipeline.context import RunContext


def _simulate(ctx: RunContext, launch, hooks, execution: bool):
    """Run one simulation under the pipeline's engine settings.

    The one simulate step shared by the trace, run and replay stages, so
    an application, its generated benchmark and its ScalaReplay all run
    under the same settings (the §5.2 comparison).  ``launch(**options)``
    starts the simulation (a :func:`~repro.mpi.world.run_spmd` call) and
    returns its :class:`SpmdResult`; the options are the network model
    (``run_model`` for ``execution`` stages), ``hooks``, ``max_steps``,
    ``profile``, a FaultInjector when a plan applies, and the schedule
    policy and queue discipline when they are not the canonical/FIFO
    defaults (so the untouched path passes exactly what it always did).

    ``execution=True`` marks the run/replay stages: only there does a
    scenario's fault content and schedule pin engage, and only there
    does the queue discipline (it acts on the routed execution fabric).
    The trace stage never sees them, which keeps the canonical trace —
    and its cache address — scenario-independent.

    When a faulted simulation dies, the :class:`SpmdResult` prefix the
    launcher attached to the error is kept instead of propagating.
    Returns ``(result, note)``: ``note`` is None for a clean run, else
    ``(status, why)`` for a salvaged or crashed-rank prefix, in which
    case the context is marked ``degraded``.
    """
    c = ctx.config
    plan, policy, seed = c.fault_plan, c.schedule_policy, c.schedule_seed
    options = {"model": ctx.run_model if execution else ctx.model,
               "hooks": hooks, "max_steps": c.max_steps,
               "profile": c.profile}
    scn = c.scenario if execution else None
    if scn is not None:
        # config-level fault plans and schedule policies are rejected
        # next to a scenario's at config construction, so its settings
        # stand alone
        if scn.has_fault_content():
            from repro.scenarios import scenario_fault_plan
            plan = scenario_fault_plan(scn, c.app, c.nranks)
        if scn.pins_schedule():
            policy, seed = scn.schedule_policy, scn.schedule_seed
    faults = None
    if plan is not None and not plan.is_null():
        from repro.faults import FaultInjector
        faults = options["faults"] = FaultInjector(plan)
    if policy != "canonical":
        # rebuilt fresh per stage: each simulated run sees the seeded RNG
        # sequence a standalone `repro run --schedule-seed` would
        options.update(schedule_policy=policy, schedule_seed=seed)
    if execution and c.queue_discipline not in (None, "fifo"):
        options.update(queue_discipline=c.queue_discipline,
                       queue_params=dict(c.queue_params or ()))
    try:
        result, note = launch(**options), None
    except SimulationError as exc:
        result = getattr(exc, "partial", None)
        if faults is None or result is None:
            raise
        note = ("salvaged", f"prefix; {exc}")
        ctx.artifacts["fault_error"] = str(exc)
    if faults is not None:
        ctx.artifacts["fault_report"] = result.fault_report
        if note is None and result.degraded:
            note = ("degraded", "crashed-rank prefix")
        if note is not None:
            ctx.artifacts["degraded"] = True
    return result, note


def _noted(detail: str, note):
    """A stage's report for ``detail`` under a :func:`_simulate` note."""
    if note is None:
        return detail
    status, why = note
    return status, f"{detail} ({why})"


class Stage:
    """One step of the pipeline.

    Subclasses set ``name`` (stable identifier, also the report row
    label) and ``produces`` (the artifact key written to the context),
    and implement :meth:`run` returning a one-line human detail string.
    """

    name = "stage"
    produces: Optional[str] = None
    cacheable = False
    suffix = ""  # cache file suffix

    def key_parts(self, ctx: RunContext) -> Optional[Tuple]:
        """Stage configuration folded into the rolling cache key; None
        declares the stage (and everything downstream) unkeyable."""
        return ()

    def run(self, ctx: RunContext) -> str:
        """Execute the stage against ``ctx``; returns the report detail."""
        raise NotImplementedError

    def serialize(self, ctx: RunContext) -> str:
        """Render the produced artifact as cacheable text."""
        raise NotImplementedError(f"{self.name} is not cacheable")

    def deserialize(self, ctx: RunContext, text: str) -> str:
        """Install the cached artifact into the context; returns the
        report detail string."""
        raise NotImplementedError(f"{self.name} is not cacheable")

    def fits(self, ctx: RunContext, text: str) -> bool:
        """Whether a cached artifact is what this run would compute; a
        cached artifact that does not fit is computed again, uncached."""
        return True


class TraceStage(Stage):
    """Application → merged global ScalaTrace trace (cacheable)."""

    name = "trace"
    produces = "trace"
    cacheable = True
    suffix = ".trace"

    def key_parts(self, ctx):
        """Everything that determines the trace bytes.  ``max_steps``
        is not among them: a run that hits the budget raises (or, under
        a fault plan, salvages a prefix), and neither is ever cached;
        :meth:`fits` keeps a cached trace from a run the budget would
        have cut."""
        c = ctx.config
        plan = c.fault_plan
        # the plan digest keys the faulted trace separately from the
        # clean one (and from other plans) so the cache cannot serve a
        # degraded artifact to a fault-free run or vice versa
        fault = (None if plan is None or plan.is_null() else plan.digest())
        # the schedule policy changes which wildcard matches the trace
        # records, so (policy, seed) must key the artifact; canonical
        # folds to None so all canonical runs share one address
        sched = (None if c.schedule_policy == "canonical"
                 else (c.schedule_policy, c.schedule_seed))
        return ("trace", c.app, c.nranks, c.cls, c.platform, fault, sched)

    def run(self, ctx):
        """Run the application under ScalaTrace on the simulator."""
        from repro.mpi.world import run_spmd
        from repro.scalatrace.tracer import ScalaTraceHook
        tracer = ScalaTraceHook()
        nranks = ctx.config.nranks
        if nranks is None:
            raise PipelineError("TraceStage requires config.nranks")
        result, note = _simulate(
            ctx, lambda **options: run_spmd(ctx.program, nranks, **options),
            [tracer] + list(ctx.hooks or []), execution=False)
        trace = ctx.artifacts["trace"] = tracer.trace
        # the traced application's own SpmdResult: trace-mode harnesses
        # (the fuzzer) read the makespan from here without a run stage
        ctx.artifacts["trace_run_result"] = result
        return _noted(f"{trace.event_count()} events in "
                      f"{trace.node_count()} nodes", note)

    def serialize(self, ctx):
        """The engine steps the traced run took, on a line of their
        own, then the trace's text serialization."""
        from repro.scalatrace.serialize import dumps_trace
        steps = ctx.artifacts["trace_run_result"].world.engine.steps
        return f"{steps}\n{dumps_trace(ctx.artifacts['trace'])}"

    def fits(self, ctx, text):
        """The traced run fits the config's step budget."""
        budget = ctx.config.max_steps
        steps = text.partition("\n")[0]
        return budget is None or (steps.isdigit() and int(steps) <= budget)

    def deserialize(self, ctx, text):
        """Install a cached trace into the context."""
        from repro.scalatrace.serialize import loads_trace
        trace = loads_trace(text.partition("\n")[2])
        ctx.artifacts["trace"] = trace
        return (f"{trace.event_count()} events in "
                f"{trace.node_count()} nodes (cached)")


class AlignStage(Stage):
    """Algorithm 1: one RSD per logical collective (when needed)."""

    name = "align"
    produces = "trace"

    def key_parts(self, ctx):
        """Alignment toggles the artifact; fold the switch in."""
        return ("align", ctx.config.align)

    def run(self, ctx):
        """Apply Algorithm 1 when enabled and the trace needs it."""
        from repro.generator.align import align_collectives, needs_alignment
        trace = ctx.require("trace")
        ctx.artifacts["was_aligned"] = False
        if not ctx.config.align:
            return ("skipped", "disabled")
        if not needs_alignment(trace):
            return ("skipped", "not needed")
        ctx.artifacts["trace"] = align_collectives(trace)
        ctx.artifacts["was_aligned"] = True
        return "collectives aligned (Algorithm 1)"


class ResolveStage(Stage):
    """Algorithm 2: bind wildcard receives; detect trace deadlocks."""

    name = "resolve"
    produces = "trace"

    def key_parts(self, ctx):
        """Resolution toggles the artifact; fold the switch in."""
        return ("resolve", ctx.config.resolve)

    def run(self, ctx):
        """Apply Algorithm 2 when enabled and the trace has wildcards."""
        from repro.generator.wildcard import has_wildcards, resolve_wildcards
        trace = ctx.require("trace")
        ctx.artifacts["was_resolved"] = False
        if not ctx.config.resolve:
            return ("skipped", "disabled")
        if not has_wildcards(trace):
            return ("skipped", "no wildcards")
        ctx.artifacts["trace"] = resolve_wildcards(trace)
        ctx.artifacts["was_resolved"] = True
        return "wildcards resolved (Algorithm 2)"


class EmitStage(Stage):
    """Processed trace → coNCePTuaL source text (cacheable)."""

    name = "emit"
    produces = "source"
    cacheable = True
    suffix = ".ncptl"

    def key_parts(self, ctx):
        """The emitter settings that shape the generated source."""
        c = ctx.config
        return ("emit", c.include_timing, c.split_first_rest, c.name)

    def run(self, ctx):
        """Emit the processed trace as coNCePTuaL source."""
        from repro.conceptual.printer import print_program
        from repro.generator.emit_conceptual import ConceptualEmitter
        c = ctx.config
        emitter = ConceptualEmitter(ctx.require("trace"),
                                    include_timing=c.include_timing,
                                    split_first_rest=c.split_first_rest)
        ast = emitter.generate()
        ctx.artifacts["ast"] = ast
        ctx.artifacts["source"] = print_program(ast)
        return f"{len(ctx.artifacts['source'].splitlines())} lines"

    def serialize(self, ctx):
        """JSON envelope: the source plus the generator flags."""
        env = {"was_aligned": ctx.artifacts.get("was_aligned", False),
               "was_resolved": ctx.artifacts.get("was_resolved", False),
               "source": ctx.artifacts["source"]}
        return json.dumps(env)

    def deserialize(self, ctx, text):
        """Install a cached source envelope into the context."""
        env = json.loads(text)
        # the generator flags ride with the source so a cache hit
        # reconstructs the exact GeneratedBenchmark metadata
        ctx.artifacts["was_aligned"] = env["was_aligned"]
        ctx.artifacts["was_resolved"] = env["was_resolved"]
        ctx.artifacts["source"] = env["source"]
        ctx.artifacts.pop("ast", None)
        return (f"{len(env['source'].splitlines())} lines (cached)")


class CompileStage(Stage):
    """Source text (or the just-emitted AST) → runnable program."""

    name = "compile"
    produces = "benchmark"

    def run(self, ctx):
        """Compile the source (or the freshly emitted AST)."""
        from repro.conceptual.compiler import ConceptualProgram
        ast = ctx.artifacts.get("ast")
        if ast is not None:
            program = ConceptualProgram(ast, name=ctx.config.name)
        else:
            program = ConceptualProgram.from_source(ctx.require("source"),
                                                    name=ctx.config.name)
        ctx.artifacts["benchmark"] = program
        ctx.artifacts.setdefault("source", program.source)
        return f"{len(program.sites)} statements"


class RunStage(Stage):
    """Execute the compiled benchmark on the simulated platform."""

    name = "run"
    produces = "run_result"

    def key_parts(self, ctx):
        """None: execution is never cached."""
        return None

    def run(self, ctx):
        """Run the benchmark under the execution-stage model, applying
        the §5.4 what-if knobs (compute scaling, platform overrides)."""
        from repro.conceptual.runtime import LogDatabase
        from repro.mpi.world import run_spmd
        program = ctx.require("benchmark")
        nranks = ctx.config.nranks
        if nranks is None:
            raise PipelineError("RunStage requires config.nranks")
        scale = ctx.config.compute_scale
        if scale != 1.0:
            # §5.4 what-if: scale the benchmark's COMPUTE statements at
            # the last moment, so the cached trace/source stay pristine
            from repro.generator.api import scale_compute
            program = scale_compute(program, scale)
        logs = ctx.artifacts["logs"] = LogDatabase()
        program.specialise(nranks)  # before the engine starts
        result, note = _simulate(
            ctx, lambda **options: run_spmd(program.instantiate(logs),
                                            nranks, **options),
            ctx.hooks, execution=True)
        ctx.artifacts["run_result"] = result
        detail = f"{result.total_time * 1e6:.1f} us simulated"
        if scale != 1.0:
            detail += f" (compute x{scale:g})"
        return _noted(detail, note)


class ReplayStage(Stage):
    """ScalaReplay: execute the trace itself, event by event."""

    name = "replay"
    produces = "run_result"

    def key_parts(self, ctx):
        """None: replays are never cached."""
        return None

    def run(self, ctx):
        """Re-execute the trace event by event under the run model."""
        from repro.mpi.world import run_spmd
        from repro.tools.replay import replay_program
        trace = ctx.require("trace")
        program = replay_program(trace,
                                 include_timing=ctx.config.include_timing)
        result, note = _simulate(
            ctx, lambda **options: run_spmd(program, trace.world_size,
                                            **options),
            ctx.hooks, execution=True)
        ctx.artifacts["run_result"] = result
        return _noted(f"{result.total_time * 1e6:.1f} us simulated, "
                      f"{result.messages_sent} messages", note)
