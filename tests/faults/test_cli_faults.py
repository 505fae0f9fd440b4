"""CLI surface of the fault subsystem: ``repro faults`` and
``repro pipeline --fault-plan``."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFaultsCommand:
    def test_template_round_trips_through_validate(self, workdir, capsys):
        assert main(["faults", "template", "-o", "plan.yaml"]) == 0
        assert os.path.exists("plan.yaml")
        assert main(["faults", "validate", "plan.yaml"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out and "digest" in out

    def test_template_prints_to_stdout(self, capsys):
        assert main(["faults", "template"]) == 0
        assert "drop_rate" in capsys.readouterr().out

    def test_validate_rejects_bad_plan(self, workdir, capsys):
        with open("bad.yaml", "w") as fh:
            fh.write("drop_rate: 7.0\n")
        assert main(["faults", "validate", "bad.yaml"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_bad_value_is_invalid_not_a_traceback(self, workdir,
                                                           capsys):
        with open("bad.yaml", "w") as fh:
            fh.write("drop_rate: abc\n")
        assert main(["faults", "validate", "bad.yaml"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("INVALID: bad fault plan: ")
        assert "Traceback" not in err

    def test_run_prints_fault_report(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write("seed: 7\ndrop_rate: 0.1\nmax_retries: 10\n")
        assert main(["faults", "run", "--app", "jacobi", "--np", "4",
                     "--plan", "plan.yaml"]) == 0
        out = capsys.readouterr().out
        assert "fault report" in out
        assert "retries" in out

    def test_run_crash_plan_reports_degraded_and_exits_nonzero(
            self, workdir, capsys):
        with open("crash.yaml", "w") as fh:
            fh.write("crashes:\n  - {rank: 1, time: 1.0e-4}\n")
        assert main(["faults", "run", "--app", "jacobi", "--np", "4",
                     "--plan", "crash.yaml"]) == 1
        out = capsys.readouterr().out
        assert "crashed ranks" in out


class TestPipelineFaultPlan:
    def test_pipeline_with_plan_prints_report(self, workdir, capsys):
        with open("plan.yaml", "w") as fh:
            fh.write("seed: 7\ndrop_rate: 0.05\nmax_retries: 10\n")
        assert main(["pipeline", "--app", "jacobi", "--np", "4",
                     "--fault-plan", "plan.yaml", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "pipeline report" in out
        assert "fault report" in out

    def test_pipeline_crash_salvages_and_exits_nonzero(self, workdir,
                                                       capsys):
        with open("crash.yaml", "w") as fh:
            fh.write("crashes:\n  - {rank: 1, time: 1.0e-4}\n")
        assert main(["pipeline", "--app", "jacobi", "--np", "4",
                     "--fault-plan", "crash.yaml", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "crashed ranks" in out

    def test_metrics_jsonl_carries_cache_events(self, workdir):
        for _ in range(2):
            code = main(["pipeline", "--app", "jacobi", "--np", "4",
                         "--no-run", "--metrics", "m.jsonl"])
            assert code == 0
        events = [json.loads(line) for line in open("m.jsonl")]
        hits = [e for e in events if e.get("kind") == "cache_hit"]
        assert {e["stage"] for e in hits} == {"trace", "emit"}
        counters = {e["name"]: e["value"] for e in events
                    if e.get("kind") == "counter"}
        assert counters.get("pipeline.cache_hits", 0) >= 2
