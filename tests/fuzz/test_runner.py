"""Fuzz campaign runner: classification, determinism, corpus, CLI."""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz import (FuzzCampaign, load_corpus, run_campaign,
                        save_corpus)
from repro.fuzz.runner import _signature
from repro.sweep.engine import PointResult

RACE = {"app": "race", "nranks": 4, "cls": "S", "platform": "simple"}
RING = {"app": "ring", "nranks": 4, "cls": "S", "platform": "simple"}


def _campaign(**kw):
    base = dict(name="t", apps=(RACE,),
                policies=("random", "adversarial-delay"), seeds=3)
    base.update(kw)
    return FuzzCampaign(**base)


@pytest.fixture(scope="module")
def race_report():
    return run_campaign(_campaign())


class TestSignature:
    def _pr(self, **kw):
        base = dict(index=0, params={}, status="ok", metrics={})
        base.update(kw)
        return PointResult(**base)

    def test_completed_points_key_on_fingerprint(self):
        pr = self._pr(metrics={"outcome_fp": "abc123"})
        assert _signature(pr) == ("outcome", "abc123")

    def test_deadlocks_key_on_cycle_and_op_kinds(self):
        pr = self._pr(status="failed", error="SimDeadlockError: ...",
                      diagnostic={"cycle": [0, 3],
                                  "blocked": {"0": "Recv(src=3, tag=0)",
                                              "3": "Recv(src=0, tag=0)"}})
        assert _signature(pr) == ("deadlock", "cycle=0-3;ops=Recv")

    def test_failures_without_cycle_key_on_error_text(self):
        pr = self._pr(status="failed", error="TraceError: boom")
        assert _signature(pr) == ("error", "TraceError: boom")


class TestClassification:
    def test_race_cell_finds_schedule_dependent_deadlock(self,
                                                         race_report):
        assert len(race_report.cells) == 1
        cell = race_report.cells[0]
        assert cell["divergent"]
        assert cell["schedule_dependent_deadlock"]
        assert cell["canonical_kind"] == "outcome"
        kinds = {c["kind"] for c in cell["classes"]}
        assert "deadlock" in kinds

    def test_canonical_class_listed_first(self, race_report):
        classes = race_report.cells[0]["classes"]
        assert classes[0]["canonical"]
        assert all(not c["canonical"] for c in classes[1:])

    def test_reproducer_is_minimal_seed(self, race_report):
        dead = [c for c in race_report.cells[0]["classes"]
                if c["kind"] == "deadlock"]
        assert dead
        rep = dead[0]["reproducer"]
        seeds = [s for pol in dead[0]["seeds"].values() for s in pol]
        assert rep["seed"] == min(seeds)
        assert "--schedule-policy" in rep["command"]
        assert f"--schedule-seed {rep['seed']}" in rep["command"]

    def test_seed_lists_are_sorted_and_nonempty(self, race_report):
        for cls in race_report.cells[0]["classes"]:
            for policy, seeds in cls["seeds"].items():
                assert seeds == sorted(seeds) and seeds

    def test_counts_cover_every_point(self, race_report):
        cell = race_report.cells[0]
        assert sum(c["count"] for c in cell["classes"]) == cell["points"]
        assert cell["points"] == 1 + 2 * 3

    def test_control_app_stays_single_class(self):
        report = run_campaign(_campaign(apps=(RING,), seeds=2))
        cell = report.cells[0]
        assert not cell["divergent"]
        assert not cell["schedule_dependent_deadlock"]
        assert len(cell["classes"]) == 1
        assert cell["classes"][0]["count"] == cell["points"]

    def test_summary_flags_the_find(self, race_report):
        text = race_report.summary()
        assert "SCHEDULE-DEPENDENT DEADLOCK" in text
        assert "seeds/s" in text


class TestDeterminism:
    def test_canonical_json_identical_across_worker_counts(self):
        camp = _campaign(policies=("random",), seeds=3)
        serial = run_campaign(camp, workers=1)
        fanned = run_campaign(camp, workers=3)
        assert fanned.canonical_json() == serial.canonical_json()

    def test_trace_mode_fingerprints_the_traced_run(self):
        camp = _campaign(mode="trace", policies=("random",), seeds=2)
        report = run_campaign(camp)
        cell = report.cells[0]
        assert cell["schedule_dependent_deadlock"] or cell["divergent"]
        for cls in cell["classes"]:
            if cls["kind"] == "outcome":
                assert cls["key"]  # fingerprint present in trace mode


class TestExecutionMetadata:
    def test_throughput_and_seeded_point_count(self, race_report):
        assert race_report.seeded_points() == 6
        assert race_report.seeds_per_second() > 0
        execution = race_report.to_dict()["execution"]
        assert execution["seeded_points"] == 6
        assert execution["seeds_per_second"] > 0


class TestCorpus:
    def test_new_then_known(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        camp = _campaign(policies=("random",), seeds=2)
        corpus = load_corpus(path)
        first = run_campaign(camp, corpus=corpus)
        assert first.new_classes > 0 and first.corpus_known == 0
        save_corpus(path, corpus)
        corpus = load_corpus(path)
        second = run_campaign(camp, corpus=corpus)
        assert second.new_classes == 0
        assert second.corpus_known == first.new_classes
        for cls in second.cells[0]["classes"]:
            assert cls["new"] is False

    def test_corrupt_corpus_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("not json")
        with pytest.raises(FuzzError, match="cannot read"):
            load_corpus(str(path))
        path.write_text('["wrong shape"]')
        with pytest.raises(FuzzError, match="not a corpus"):
            load_corpus(str(path))

    def test_missing_corpus_is_fresh(self, tmp_path):
        corpus = load_corpus(str(tmp_path / "absent.json"))
        assert corpus["classes"] == {}


class TestCLI:
    def _write_campaign(self, tmp_path, **kw):
        path = tmp_path / "campaign.yaml"
        path.write_text(_campaign(**kw).dumps())
        return str(path)

    def test_template_validate_run(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "c.yaml"
        assert main(["fuzz", "template", "-o", str(out)]) == 0
        assert main(["fuzz", "validate", str(out)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_rejects_bad_campaign(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\napps: []\n")
        assert main(["fuzz", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_run_writes_report_and_corpus(self, tmp_path, capsys):
        from repro.cli import main
        campaign = self._write_campaign(tmp_path, policies=("random",))
        report = tmp_path / "report.json"
        corpus = tmp_path / "corpus.json"
        rc = main(["fuzz", "run", campaign, "--seeds", "2",
                   "-o", str(report), "--corpus", str(corpus),
                   "--workers", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fuzz report" in text and "reproduce [" in text
        data = json.loads(report.read_text())
        assert data["cells"][0]["schedule_dependent_deadlock"]
        # --seeds overrode the campaign's count: 1 canonical + 2 seeded
        assert data["cells"][0]["points"] == 3
        assert json.loads(corpus.read_text())["classes"]

    def test_seed_without_policy_is_argv_error(self):
        from repro.cli import main
        with pytest.raises(SystemExit,
                           match="non-canonical"):
            main(["pipeline", "--app", "race", "--np", "4",
                  "--schedule-seed", "3"])

    def test_run_reproducer_reports_deadlock_cleanly(self, capsys):
        from repro.cli import main
        rc = main(["pipeline", "--app", "race", "--np", "4",
                   "--class", "S", "--platform", "simple", "--no-cache",
                   "--schedule-policy", "random",
                   "--schedule-seed", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "deadlock" in err and "wait-for cycle" in err
