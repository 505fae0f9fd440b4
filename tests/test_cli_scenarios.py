"""CLI tests for the scenario surface: the ``scenarios`` subcommand
group, the queueing flags on run/replay/pipeline, ``--scenario`` on the
pipeline, and the per-app ``pattern`` metadata in ``apps --json``.

``scenarios run`` runs the cell's one-point sweep plan, the plan a
service ``scenario`` submission executes, so the ``-o`` artifact here is
pinned byte-for-byte against a direct ``run_sweep`` of that plan.
"""

import json

import pytest

from repro.apps import APPS, PATTERNS
from repro.cli import main
from repro.scenarios import SCENARIOS, Scenario, scenario_plan
from repro.sweep import run_sweep


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestAppsPatternMetadata:
    def test_json_listing_carries_pattern(self, capsys):
        assert main(["apps", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        for name, entry in listing.items():
            assert entry["pattern"] in PATTERNS, name
        assert listing["sweep3d"]["pattern"] == "sweep"
        assert listing["amg"]["pattern"] == "multigrid"
        assert listing["ep"]["pattern"] == "embarrassingly-parallel"

    def test_plain_listing_shows_pattern(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "[sweep]" in out and "[stencil]" in out

    def test_new_skeletons_registered(self, capsys):
        assert main(["apps", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        for name in ("amg", "kripke", "laghos"):
            assert name in listing
            assert listing[name]["description"]


class TestScenariosList:
    def test_plain_lists_every_curated_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == set(SCENARIOS)
        entry = listing["torus-hotlink"]
        assert entry["digest"] == SCENARIOS["torus-hotlink"].digest()
        assert entry["topology"] == "torus3d"
        assert listing["codel-pressure"]["queue_discipline"] == "codel"


class TestScenariosShow:
    def test_show_round_trips_through_loads(self, capsys):
        assert main(["scenarios", "show", "torus-hotlink"]) == 0
        out = capsys.readouterr().out
        yaml_part = out.rsplit("# ", 1)[0]
        again = Scenario.loads(yaml_part)
        assert again.digest() == SCENARIOS["torus-hotlink"].digest()

    def test_show_a_file(self, workdir, capsys):
        with open("mine.yaml", "w") as fh:
            fh.write("name: mine\nadversaries:\n  - kind: hotspot\n")
        assert main(["scenarios", "show", "mine.yaml"]) == 0
        assert "mine" in capsys.readouterr().out

    def test_show_unknown_fails(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestScenariosTemplate:
    def test_template_validates(self, workdir, capsys):
        assert main(["scenarios", "template", "-o", "scn.yaml"]) == 0
        scn = Scenario.loads(open("scn.yaml").read())
        assert scn.name

    def test_validate_command(self, workdir, capsys):
        assert main(["scenarios", "template", "-o", "scn.yaml"]) == 0
        assert main(["scenarios", "validate", "scn.yaml"]) == 0
        out = capsys.readouterr().out
        scn = Scenario.load("scn.yaml")
        assert f"OK: {scn.describe()} (digest {scn.digest()})" in out

    def test_validate_rejects_bad_spec(self, workdir, capsys):
        with open("bad.yaml", "w") as fh:
            fh.write("name: x\nadversaries: [{kind: hotspot, params: 3}]\n")
        assert main(["scenarios", "validate", "bad.yaml"]) == 1
        assert capsys.readouterr().err.startswith("INVALID: ")


class TestScenariosRun:
    def test_run_reports_link_metrics(self, workdir, capsys):
        assert main(["scenarios", "run", "torus-hotlink", "--app",
                     "sweep3d", "--np", "8", "--workers", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "torus-hotlink" in out
        assert "links_used=" in out

    def test_output_matches_direct_sweep(self, workdir, capsys):
        assert main(["scenarios", "run", "torus-hotlink", "--app",
                     "sweep3d", "--np", "8", "--workers", "1",
                     "--cache-dir", "c1", "-o", "out.json"]) == 0
        plan = scenario_plan(scenario="torus-hotlink", app="sweep3d",
                             nranks=8)
        direct = run_sweep(plan, workers=1, cache_dir="c2")
        assert open("out.json").read() == direct.canonical_json()

    def test_unknown_scenario_exits_2(self, workdir, capsys):
        assert main(["scenarios", "run", "nope", "--app", "ring",
                     "--np", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_incompatible_cell_fails_the_point(self, workdir, capsys):
        # amg needs a power-of-two rank count; the cell fails at run
        # time like any other sweep point, with a nonzero exit
        assert main(["scenarios", "run", "calm", "--app", "amg",
                     "--np", "6", "--workers", "1",
                     "--no-cache"]) == 1
        assert "power-of-two" in capsys.readouterr().out


class TestPipelineScenario:
    def test_pipeline_accepts_a_scenario(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--scenario", "torus-hotlink"]) == 0

    def test_pipeline_scenario_from_file(self, workdir, capsys):
        with open("mine.yaml", "w") as fh:
            fh.write("name: mine\ntopology: torus3d\n"
                     "adversaries:\n  - kind: hot-link\n")
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--scenario", "mine.yaml"]) == 0


class TestQueueingFlags:
    def test_pipeline_codel(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--topology", "torus3d",
                     "--queue-discipline", "codel",
                     "--queue-param", "target=1e-6"]) == 0

    def test_queue_param_requires_discipline(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--app", "ring", "--np", "4",
                  "--no-cache", "--no-run",
                  "--queue-param", "target=1e-6"])

    def test_bad_param_syntax_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--app", "ring", "--np", "4",
                  "--no-cache", "--no-run",
                  "--queue-discipline", "codel",
                  "--queue-param", "target"])
