"""The :class:`Pipeline` orchestrator: compose stages, thread the run
context through them, time every stage, and satisfy cacheable stages
from the artifact cache when the rolling content address matches.

There is exactly one code path from application to executed benchmark —
the CLI, the public API wrappers (:func:`repro.generate_benchmark` and
friends), ScalaReplay, and the evaluation harness all build (suffixes
of) this pipeline.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro import obs
from repro.errors import PipelineError
from repro.pipeline.cache import cache_key
from repro.pipeline.config import PipelineConfig
from repro.pipeline.context import PipelineResult, RunContext
from repro.pipeline.stages import (AlignStage, CompileStage, EmitStage,
                                   ResolveStage, RunStage, Stage,
                                   TraceStage)


class Pipeline:
    """An ordered composition of :class:`~repro.pipeline.stages.Stage`."""

    def __init__(self, stages: Sequence[Stage]):
        stages = list(stages)
        if not stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate stage names: {names}")
        self.stages: List[Stage] = stages

    def run(self, config: Optional[PipelineConfig] = None, *,
            context: Optional[RunContext] = None) -> PipelineResult:
        """Execute every stage in order.

        Pass either a config (a fresh context is built from it) or a
        pre-populated context (entry artifacts such as a loaded trace go
        in ``context.artifacts``).
        """
        if (config is None) == (context is None):
            raise PipelineError("pass exactly one of config or context")
        ctx = context if context is not None else RunContext(config)
        t_start = time.perf_counter()
        with obs.span("pipeline.run",
                      app=ctx.config.app or ctx.config.name):
            for stage in self.stages:
                self._run_stage(ctx, stage)
        return PipelineResult(config=ctx.config, records=ctx.records,
                              artifacts=ctx.artifacts, cache=ctx.cache,
                              seconds=time.perf_counter() - t_start)

    def _run_stage(self, ctx: RunContext, stage: Stage) -> None:
        # graceful degradation: once a simulation stage salvaged a partial
        # (crashed/hung) run, downstream stages cannot trust the artifact
        # — a crashed rank's trace prefix is not a runnable program — so
        # the rest of the pipeline is skipped, keeping the prefix and the
        # fault report as the run's outputs
        if ctx.artifacts.get("degraded"):
            ctx.record(stage.name, 0.0, "skipped",
                       "degraded upstream (salvaged prefix only)")
            return
        t0 = time.perf_counter()
        # advance the rolling content address
        parts = stage.key_parts(ctx)
        if parts is None:
            ctx.key = None
        elif ctx.key is not None:
            ctx.key = cache_key(ctx.key, stage.name, parts)

        cache = ctx.cache if ctx.config.use_cache else None
        if cache is not None and stage.cacheable and ctx.key:
            if self._run_cached_stage(ctx, stage, cache, t0):
                return
        out = self._execute(ctx, stage)
        # stages return a detail string, or (status, detail) to override
        # the cache status (e.g. "skipped" for a pass that wasn't needed)
        status, detail = out if isinstance(out, tuple) else (None, out)
        if status is None:
            status = "off"
        ctx.record(stage.name, time.perf_counter() - t0, status, detail)

    def _run_cached_stage(self, ctx: RunContext, stage: Stage, cache,
                          t0: float) -> bool:
        """Satisfy a cacheable stage from/through the artifact cache.

        Misses are computed under the cache's per-key cross-process
        lock, with a second cache read once the lock is held: when
        several workers (a parallel sweep) reach the same missing key,
        exactly one computes the artifact while the rest block, re-read,
        and record a hit.  Returns True when the stage was fully handled
        (the non-cacheable fallthrough in :meth:`_run_stage` handles the
        rest).
        """
        text = cache.get(ctx.key, stage.suffix, record=False)
        if text is None or not stage.fits(ctx, text):
            with cache.lock(ctx.key):
                text = cache.get(ctx.key, stage.suffix, record=False)
                if text is None or not stage.fits(ctx, text):
                    cache.record_miss()
                    out = self._execute(ctx, stage)
                    status, detail = (out if isinstance(out, tuple)
                                      else (None, out))
                    if status is None:
                        # machine-readable record (CI asserts on this
                        # instead of scraping the human report)
                        cache.put(ctx.key, stage.serialize(ctx),
                                  stage.suffix)
                        obs.event("cache_miss", "pipeline.cache",
                                  stage=stage.name, key=ctx.key)
                        status = "miss"
                    ctx.record(stage.name, time.perf_counter() - t0,
                               status, detail)
                    return True
        # served from cache (either immediately or after waiting out
        # another worker's computation of the same artifact)
        cache.record_hit()
        detail = stage.deserialize(ctx, text)
        obs.event("cache_hit", "pipeline.cache", stage=stage.name,
                  key=ctx.key)
        ctx.record(stage.name, time.perf_counter() - t0, "hit", detail)
        return True

    @staticmethod
    def _execute(ctx: RunContext, stage: Stage):
        """Run the stage inside its ``pipeline.<name>`` span."""
        with obs.span(f"pipeline.{stage.name}"):
            return stage.run(ctx)


def generation_stages() -> List[Stage]:
    """The trace-to-runnable-benchmark suffix (Algorithms 1 & 2, Table 1
    emission, compilation) — what ``repro generate`` runs."""
    return [AlignStage(), ResolveStage(), EmitStage(), CompileStage()]


def full_pipeline(run: bool = True) -> Pipeline:
    """The complete Fig. 1 flow: app → trace → align → resolve → emit →
    compile (→ run)."""
    stages: List[Stage] = [TraceStage()]
    stages.extend(generation_stages())
    if run:
        stages.append(RunStage())
    return Pipeline(stages)
