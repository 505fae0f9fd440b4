"""Pipeline-layer faults: config plumbing, cache keying by plan digest,
and partial-artifact salvage."""

import pytest

from repro import obs
from repro.errors import PipelineConfigError
from repro.faults import FaultPlan
from repro.pipeline import (Pipeline, PipelineConfig, ReplayStage,
                            RunContext, RunStage, TraceStage,
                            full_pipeline)
from repro.scenarios import Scenario


class TestConfig:
    def test_fault_plan_field_accepts_plan(self):
        plan = FaultPlan(seed=1, drop_rate=0.1)
        config = PipelineConfig(app="jacobi", nranks=4, fault_plan=plan)
        assert config.fault_plan is plan

    def test_fault_plan_field_rejects_non_plan(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(app="jacobi", nranks=4,
                           fault_plan={"drop_rate": 0.1})

    def test_fingerprint_carries_plan_digest_not_object(self):
        # the trace's cache key is its content fingerprint
        plan = FaultPlan(seed=1, drop_rate=0.1)
        parts = TraceStage().key_parts(RunContext(PipelineConfig(
            app="jacobi", nranks=4, fault_plan=plan)))
        assert plan.digest() in parts and plan not in parts

    def test_fingerprint_ignores_profiling_and_null_plans(self):
        stage = TraceStage()
        base = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4)))
        tuned = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4, profile=True,
                           fault_plan=FaultPlan(seed=9))))
        assert base == tuned


class TestCacheKeying:
    def test_trace_key_differs_per_plan(self):
        stage = TraceStage()
        base = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4)))
        faulted = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4,
                           fault_plan=FaultPlan(seed=1, drop_rate=0.1))))
        other = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4,
                           fault_plan=FaultPlan(seed=2, drop_rate=0.1))))
        assert len({base, faulted, other}) == 3

    def test_null_plan_keys_like_no_plan(self):
        stage = TraceStage()
        base = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4)))
        nulled = stage.key_parts(RunContext(
            PipelineConfig(app="jacobi", nranks=4,
                           fault_plan=FaultPlan(seed=77))))
        assert base == nulled


class TestFaultedPipeline:
    def test_clean_faulted_run_carries_report(self):
        plan = FaultPlan(seed=7, drop_rate=0.05, max_retries=10)
        config = PipelineConfig(app="jacobi", nranks=4, fault_plan=plan)
        result = full_pipeline(run=True).run(config)
        assert not result.degraded
        assert result.fault_report is not None
        assert result.fault_report.plan_digest == plan.digest()
        assert result.run_result is not None

    def test_crash_salvages_prefix_and_skips_downstream(self):
        plan = FaultPlan(crashes=((1, 5e-5),))
        config = PipelineConfig(app="jacobi", nranks=4, fault_plan=plan)
        result = full_pipeline(run=True).run(config)
        assert result.degraded
        assert result.trace is not None  # the salvaged prefix
        assert result.trace.event_count() > 0
        assert result.fault_report.crashed_ranks == (1,)
        by_stage = {r.stage: r for r in result.records}
        assert by_stage["trace"].cache == "degraded"
        for stage in ("align", "resolve", "emit", "compile", "run"):
            assert by_stage[stage].cache == "skipped"
        assert result.source is None and result.run_result is None

    def test_cache_hit_emits_event(self, tmp_path):
        config = PipelineConfig(app="jacobi", nranks=4, use_cache=True,
                                cache_dir=str(tmp_path))
        pipe = full_pipeline(run=False)
        pipe.run(config)
        with obs.instrumented() as inst:
            result = pipe.run(config)
        assert result.cache_hits() > 0
        hits = [e for e in inst.events if e["kind"] == "cache_hit"]
        assert {e["stage"] for e in hits} == {"trace", "emit"}
        assert all(e["name"] == "pipeline.cache" for e in hits)
        assert inst.counters["pipeline.cache_hits"] == len(hits)

    def test_faulted_run_does_not_poison_clean_cache(self, tmp_path):
        clean = PipelineConfig(app="jacobi", nranks=4, use_cache=True,
                               cache_dir=str(tmp_path))
        plan = FaultPlan(seed=7, drop_rate=0.2, max_retries=10)
        faulted = clean.replace(fault_plan=plan)
        pipe = full_pipeline(run=False)
        base = pipe.run(clean).trace.event_count()
        pipe.run(faulted)
        again = pipe.run(clean)
        assert again.cache_hits() > 0
        assert again.trace.event_count() == base


_CRASH = FaultPlan(crashes=((1, 5e-5),))


def _clean_artifacts():
    """The jacobi np 4 trace and benchmark of a fault-free pipeline."""
    clean = full_pipeline(run=False).run(
        PipelineConfig(app="jacobi", nranks=4))
    return {"trace": clean.trace, "benchmark": clean.benchmark}


class TestSalvageContract:
    """Every simulation stage salvages a crashed run the same way: it
    reports the prefix, marks the run degraded with a fault report, and
    everything downstream is skipped."""

    @pytest.mark.parametrize("stage", ["trace", "run", "replay"])
    def test_crashed_stage_degrades_and_skips_downstream(self, stage):
        ctx = RunContext(PipelineConfig(app="jacobi", nranks=4,
                                        fault_plan=_CRASH))
        if stage == "trace":
            stages = full_pipeline(run=True).stages
        else:
            ctx.artifacts.update(_clean_artifacts())
            stages = ([RunStage(), ReplayStage()] if stage == "run"
                      else [ReplayStage(), RunStage()])
        result = Pipeline(stages).run(context=ctx)
        statuses = {r.stage: r.cache for r in result.records}
        assert statuses.pop(stage) in ("salvaged", "degraded")
        assert statuses and set(statuses.values()) == {"skipped"}
        assert result.degraded
        assert result.fault_report is not None
        assert result.fault_report.crashed_ranks == (1,)

    @pytest.mark.parametrize("stage", ["run", "replay"])
    def test_scenario_faults_reach_execution_only(self, stage):
        scn = Scenario(name="crash-one", fault_plan=_CRASH)
        plain = PipelineConfig(app="jacobi", nranks=4)
        config = plain.replace(scenario=scn)
        assert (TraceStage().key_parts(RunContext(config))
                == TraceStage().key_parts(RunContext(plain)))
        last = RunStage() if stage == "run" else ReplayStage()
        stages = (full_pipeline(run=False).stages + [last]
                  if stage == "run" else [TraceStage(), last])
        result = Pipeline(stages).run(config)
        statuses = {r.stage: r.cache for r in result.records}
        assert statuses.pop(stage) in ("salvaged", "degraded")
        assert statuses["trace"] == "off"  # traced fault-free
        assert result.degraded
        assert result.fault_report.crashed_ranks == (1,)
