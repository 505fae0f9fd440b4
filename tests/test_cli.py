"""CLI tests for the pipeline-era surface: the ``pipeline`` subcommand,
``--metrics`` event logs, artifact caching, ``--version``,
``apps --json``, extrapolation argument validation, and atomic output.

The older per-subcommand flow tests live in ``tests/tools/test_cli.py``;
this file covers everything the orchestration layer added.
"""

import json
import os

import pytest

from repro import __version__, cli
from repro.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestVersionAndApps:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_apps_json(self, capsys):
        assert main(["apps", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "lu" in listing and "jacobi" in listing
        assert "S" in listing["lu"]["classes"]
        assert listing["lu"]["description"]

    def test_apps_plain_unchanged(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "lu" in out and "{" not in out


class TestEverySubcommand:
    """Each subcommand end-to-end on a tiny app via main(argv)."""

    def test_flow(self, workdir, capsys):
        assert main(["trace", "--app", "ring", "--np", "4",
                     "-o", "r.scalatrace"]) == 0
        assert main(["generate", "r.scalatrace", "-o", "r.ncptl"]) == 0
        assert main(["run", "r.ncptl", "--np", "4"]) == 0
        assert main(["replay", "r.scalatrace"]) == 0
        assert main(["matrix", "r.scalatrace"]) == 0
        assert main(["compare", "r.scalatrace", "r.scalatrace"]) == 0
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run"]) == 0
        capsys.readouterr()
        assert main(["trace", "--app", "ring", "--np", "8",
                     "-o", "r8.scalatrace"]) == 0
        assert main(["extrapolate", "r.scalatrace", "r8.scalatrace",
                     "--np", "16", "-o", "r16.scalatrace"]) == 0


class TestExtrapolateValidation:
    def test_single_trace_is_rejected(self, workdir, capsys):
        main(["trace", "--app", "ring", "--np", "4",
              "-o", "r.scalatrace"])
        capsys.readouterr()
        rc = main(["extrapolate", "r.scalatrace", "--np", "64",
                   "-o", "big.scalatrace"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "two or more" in err
        assert not os.path.exists("big.scalatrace")


class TestTypedErrorEdge:
    def test_run_arithmetic_fault_is_one_line(self, workdir, capsys):
        with open("div.ncptl", "w") as fh:
            fh.write("ALL TASKS COMPUTE FOR 1/0 MICROSECONDS\n")
        assert main(["run", "div.ncptl", "--np", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot evaluate 1 / 0")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_infinite_tag_is_one_line(self, workdir, capsys):
        with open("tag.ncptl", "w") as fh:
            fh.write("TASK 0 SENDS A 4 BYTE MESSAGE TO TASK 1 "
                     "WITH TAG 1e999\n")
        assert main(["run", "tag.ncptl", "--np", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite integer" in err
        assert "line 1" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_runaway_loop_ends_under_step_budget(self, workdir,
                                                      capsys):
        # 10**11 iterations that issue no MPI operation: only the step
        # budget of repro run (STEPS_PER_RANK times --np) ends it
        with open("runaway.ncptl", "w") as fh:
            fh.write("FOR EACH v IN {0, ..., 99999999999} { IF v = 5 "
                     "THEN { TASK 0 COMPUTES FOR 1 MICROSECONDS } }\n")
        assert main(["run", "runaway.ncptl", "--np", "2"]) == 2
        err = capsys.readouterr().err
        budget = cli.STEPS_PER_RANK * 2
        assert err.startswith("error: rank 0: loop iterations exceeded "
                              f"max_steps={budget}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_pipeline_runs_under_step_budget(self, workdir, capsys,
                                             monkeypatch):
        monkeypatch.setattr(cli, "STEPS_PER_RANK", 2)
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exceeded max_steps=8")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["sweep", "run", "plan.yaml"], ["fuzz", "run", "hunt.yaml"],
        ["scenarios", "run", "calm", "--app", "ring", "--np", "4"],
        ["serve"]])
    def test_negative_workers_is_an_argv_error(self, workdir, capsys,
                                               command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--workers", "-1"])
        assert exc.value.code == 2
        assert "--workers: must be a positive count or 0" in \
            capsys.readouterr().err

    def test_zero_workers_means_one_per_cpu(self, workdir, capsys):
        from repro.sweep import default_workers
        with open("plan.yaml", "w") as fh:
            fh.write(TINY_SWEEP)
        assert main(["sweep", "run", "plan.yaml", "--workers", "0",
                     "--no-cache", "-o", "result.json"]) == 0
        result = json.loads(open("result.json").read())
        assert result["execution"]["workers"] == default_workers()


class TestAtomicGenerate:
    def test_failed_generation_leaves_no_output(self, workdir, capsys):
        with open("bogus.scalatrace", "w") as fh:
            fh.write("not a trace\n")
        assert main(["generate", "bogus.scalatrace",
                     "-o", "out.ncptl"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists("out.ncptl")
        # no temp-file droppings either
        assert not [f for f in os.listdir(".") if f.startswith(".tmp-")]

    def test_corrupt_trace_field_is_one_line(self, workdir, capsys):
        main(["trace", "--app", "lu", "--np", "4", "-o", "lu.scalatrace"])
        capsys.readouterr()
        with open("lu.scalatrace") as fh:
            text = fh.read()
        assert "peer=Q3x8" in text
        with open("lu.scalatrace", "w") as fh:
            fh.write(text.replace("peer=Q3x8", "peer=Qx8", 1))
        assert main(["generate", "lu.scalatrace", "-o", "lu.ncptl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace at line ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists("lu.ncptl")

    @pytest.mark.parametrize("old, new, message", [
        (" peer=Q3x8 ", " ", "Send event has no peer"),
        ("peer=Q3x8 ", "peer=Q3x7 ",
         "peer has 7 values but the event runs 8 times per rank"),
    ])
    def test_parsed_but_unexpandable_trace_is_one_line(
            self, workdir, capsys, old, new, message):
        main(["trace", "--app", "lu", "--np", "4", "-o", "lu.scalatrace"])
        capsys.readouterr()
        with open("lu.scalatrace") as fh:
            text = fh.read()
        assert old in text
        with open("lu.scalatrace", "w") as fh:
            fh.write(text.replace(old, new, 1))
        assert main(["generate", "lu.scalatrace", "-o", "lu.ncptl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace at line ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists("lu.ncptl")

    @pytest.mark.parametrize("command", ["generate", "replay"])
    def test_repeated_wait_offsets_are_one_line(self, workdir, capsys,
                                                command):
        main(["trace", "--app", "bt", "--np", "4", "-o", "bt.scalatrace"])
        capsys.readouterr()
        with open("bt.scalatrace") as fh:
            text = fh.read()
        assert "offsets=0,1," in text
        with open("bt.scalatrace", "w") as fh:
            fh.write(text.replace("offsets=0,1,", "offsets=0,0,", 1))
        argv = [command, "bt.scalatrace"]
        assert main(argv + (["-o", "bt.ncptl"] if command == "generate"
                            else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trace at line ")
        assert "repeat or are negative" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not os.path.exists("bt.ncptl")

    def test_success_writes_output(self, workdir, capsys):
        main(["trace", "--app", "ring", "--np", "4",
              "-o", "r.scalatrace"])
        assert main(["generate", "r.scalatrace", "-o", "r.ncptl"]) == 0
        assert os.path.getsize("r.ncptl") > 0


class TestPipelineSubcommand:
    def test_report_shows_every_stage(self, workdir, capsys):
        assert main(["pipeline", "--app", "jacobi", "--np", "4",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        for stage in ("trace", "align", "resolve", "emit", "compile",
                      "run", "total"):
            assert stage in out

    def test_output_flag_writes_benchmark(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run", "-o", "ring.ncptl"]) == 0
        with open("ring.ncptl") as fh:
            assert "ALL TASKS" in fh.read()

    def test_second_run_hits_cache(self, workdir, capsys):
        argv = ["pipeline", "--app", "jacobi", "--np", "4",
                "--cache-dir", "cache"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "miss" in first and "cache hit:" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit: trace, emit (generate)" in second

    def test_library_run_hits_the_cli_cache(self, workdir, capsys):
        # the CLI's step budget must not key the cache: a library run
        # with no budget reuses the trace and source the CLI cached
        from repro.pipeline import PipelineConfig, full_pipeline
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--cache-dir", "c", "--no-run"]) == 0
        result = full_pipeline(run=False).run(PipelineConfig(
            app="ring", nranks=4, cache_dir="c", use_cache=True))
        hits = {r.stage for r in result.records if r.cache == "hit"}
        assert hits == {"trace", "emit"}

    def test_no_cache_never_hits(self, workdir, capsys):
        argv = ["pipeline", "--app", "jacobi", "--np", "4", "--no-cache"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "hit" not in capsys.readouterr().out

    def test_metrics_spans_all_layers(self, workdir, capsys):
        assert main(["pipeline", "--app", "lu", "--np", "8",
                     "--no-cache", "--metrics", "m.jsonl"]) == 0
        records = [json.loads(line) for line in open("m.jsonl")]
        # well-formed events: monotonic seq, known kinds, layer tags
        assert [r["seq"] for r in records] == \
            list(range(1, len(records) + 1))
        assert {r["kind"] for r in records} <= \
            {"span_begin", "span_end", "counter"}
        layers = {r["layer"] for r in records}
        # the acceptance bar: events from every major subsystem
        assert {"engine", "scalatrace", "generator",
                "conceptual", "pipeline"} <= layers
        spans = [r for r in records if r["kind"] == "span_end"]
        assert all("dur_s" in r for r in spans)
        counters = [r for r in records if r["kind"] == "counter"]
        names = {r["name"] for r in counters}
        assert "engine.steps" in names
        assert "generator.wildcards_resolved" in names

    def test_report_flag(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--report"]) == 0
        out = capsys.readouterr().out
        assert "instrumentation report" in out
        assert "[engine]" in out

    def test_profile_flag_prints_phase_summary(self, workdir, capsys):
        assert main(["pipeline", "--app", "jacobi", "--np", "4",
                     "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine phase profile" in out
        for phase in ("schedule", "match", "execute", "fabric"):
            assert phase in out
        # the run stage's compile-and-specialise pass, apart from execution
        assert "coNCePTuaL specialise:" in out

    def test_streaming_trace_counters_reach_metrics(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--metrics", "m.jsonl"]) == 0
        records = [json.loads(line) for line in open("m.jsonl")]
        counters = {r["name"]: r["value"] for r in records
                    if r["kind"] == "counter"}
        # the streaming trace pipeline surfaces its whole budget:
        # ingest volume, live-memory peak, and merge-path split
        assert counters.get("scalatrace.events_in", 0) > 0
        assert counters.get("scalatrace.nodes_live_peak", 0) > 0
        assert counters.get("scalatrace.merge_fastpath_hits", 0) > 0
        assert "scalatrace.pair_merges" in counters

    def test_profile_counters_reach_metrics(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--profile",
                     "--metrics", "m.jsonl"]) == 0
        records = [json.loads(line) for line in open("m.jsonl")]
        names = {r["name"] for r in records if r["kind"] == "counter"}
        assert {"engine.profile.schedule_s", "engine.profile.match_s",
                "engine.profile.execute_s",
                "engine.profile.fabric_s"} <= names

    def test_profile_does_not_change_makespan(self, workdir, capsys):
        def sim_us(out):
            return [line.split("us simulated")[0].split()[-1]
                    for line in out.splitlines() if "us simulated" in line]

        base = ["pipeline", "--app", "jacobi", "--np", "4", "--no-cache"]
        assert main(base) == 0
        plain = sim_us(capsys.readouterr().out)
        assert main(base + ["--profile"]) == 0
        assert plain and plain == sim_us(capsys.readouterr().out)


class TestMetricsOnClassicCommands:
    def test_trace_metrics(self, workdir, capsys):
        assert main(["trace", "--app", "ring", "--np", "4",
                     "-o", "r.scalatrace", "--metrics", "t.jsonl"]) == 0
        layers = {json.loads(line)["layer"] for line in open("t.jsonl")}
        assert "engine" in layers and "scalatrace" in layers

    def test_generate_metrics(self, workdir, capsys):
        main(["trace", "--app", "lu", "--np", "4", "-o", "l.scalatrace"])
        assert main(["generate", "l.scalatrace", "-o", "l.ncptl",
                     "--metrics", "g.jsonl"]) == 0
        layers = {json.loads(line)["layer"] for line in open("g.jsonl")}
        assert "generator" in layers and "conceptual" in layers


TINY_SWEEP = """\
name: tiny
mode: run
base: {app: jacobi, nranks: 4}
axes:
  - field: compute_scale
    values: [1.0, 0.5]
"""


class TestSweepSubcommand:
    def test_template_validates(self, workdir, capsys):
        assert main(["sweep", "template", "-o", "plan.yaml"]) == 0
        assert main(["sweep", "validate", "plan.yaml"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out and "11 point(s)" in out

    def test_validate_rejects_bad_plan(self, workdir, capsys):
        with open("bad.yaml", "w") as fh:
            fh.write("name: bad\naxes:\n  - field: warp\n    values: [1]\n")
        assert main(["sweep", "validate", "bad.yaml"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_run_writes_result_and_jsonl(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write(TINY_SWEEP)
        assert main(["sweep", "run", "plan.yaml", "--workers", "1",
                     "-o", "result.json", "--jsonl", "points.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "sweep report: tiny" in out
        result = json.loads(open("result.json").read())
        assert len(result["points"]) == 2
        assert result["execution"]["workers"] == 1
        lines = [json.loads(line) for line in open("points.jsonl")]
        assert [rec["index"] for rec in lines] == [0, 1]
        assert all(rec["status"] == "ok" for rec in lines)

    def test_workers_parity_from_cli(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write(TINY_SWEEP)
        assert main(["sweep", "run", "plan.yaml", "--workers", "1",
                     "--jsonl", "a.jsonl", "--cache-dir", "c1"]) == 0
        assert main(["sweep", "run", "plan.yaml", "--workers", "2",
                     "--jsonl", "b.jsonl", "--cache-dir", "c2"]) == 0
        assert open("a.jsonl").read() == open("b.jsonl").read()

    def test_failed_point_sets_exit_code(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write("name: sad\nbase: {app: jacobi, nranks: 4}\n"
                     "axes:\n  - field: max_steps\n    values: [null, 1]\n")
        assert main(["sweep", "run", "plan.yaml", "--workers", "1"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_metrics_cover_sweep_layer(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write(TINY_SWEEP)
        assert main(["sweep", "run", "plan.yaml", "--workers", "1",
                     "--metrics", "m.jsonl"]) == 0
        records = [json.loads(line) for line in open("m.jsonl")]
        assert {r["layer"] for r in records} >= {"sweep"}
        names = {r["name"] for r in records if r["kind"] == "counter"}
        assert "sweep.points" in names
