"""CLI surface of the service: ``repro jobs`` against a live server.

``repro serve`` itself blocks forever, so these tests drive its
building blocks through :class:`~repro.service.server.ServiceThread`
and exercise the ``repro jobs`` client commands exactly as a shell
user (or the CI service-smoke job) would.
"""

import json

import pytest

from repro.cli import main
from repro.service import ServiceThread, SweepService

PLAN_YAML = """\
name: cli-jobs
mode: generate
base: {app: jacobi, nranks: 4}
axes:
  - {field: compute_scale, values: [1.0, 0.5]}
"""


@pytest.fixture
def served(tmp_path, monkeypatch):
    """A live service + a temp cwd; yields the service base URL."""
    monkeypatch.chdir(tmp_path)
    svc = SweepService(str(tmp_path / "state"),
                       cache_dir=str(tmp_path / "cache"), workers=1)
    thread = ServiceThread(svc).start()
    try:
        yield thread.url
    finally:
        thread.stop()


class TestJobsCommands:
    def test_submit_wait_status_result(self, served, tmp_path, capsys):
        (tmp_path / "plan.yaml").write_text(PLAN_YAML)
        assert main(["jobs", "submit", "plan.yaml", "--url", served,
                     "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted j" in out and "-> done" in out
        job_id = out.split()[1]

        assert main(["jobs", "status", job_id, "--url", served]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert status["execution"]["points"]["ok"] == 2

        assert main(["jobs", "result", job_id, "--url", served,
                     "-o", "out.json"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "out.json").read_text())
        assert len(payload["points"]) == 2

    def test_result_jsonl_matches_sweep_run(self, served, tmp_path,
                                            capsys):
        """The CI service-smoke assertion, as a test: client bytes ==
        one-shot ``repro sweep run --jsonl`` bytes."""
        (tmp_path / "plan.yaml").write_text(PLAN_YAML)
        main(["jobs", "submit", "plan.yaml", "--url", served, "--wait"])
        job_id = capsys.readouterr().out.split()[1]
        main(["jobs", "result", job_id, "--url", served, "--jsonl",
              "-o", "svc.jsonl"])
        assert main(["sweep", "run", "plan.yaml", "--cache-dir",
                     str(tmp_path / "cache2"), "--jsonl",
                     "direct.jsonl"]) == 0
        assert (tmp_path / "svc.jsonl").read_bytes() == \
            (tmp_path / "direct.jsonl").read_bytes()

    def test_repeat_submit_reports_dedup(self, served, tmp_path, capsys):
        (tmp_path / "plan.yaml").write_text(PLAN_YAML)
        main(["jobs", "submit", "plan.yaml", "--url", served, "--wait"])
        capsys.readouterr()
        assert main(["jobs", "submit", "plan.yaml", "--url",
                     served]) == 0
        assert "deduplicated" in capsys.readouterr().out

    def test_health_command(self, served, capsys):
        assert main(["jobs", "health", "--url", served]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"

    def test_unreachable_service_raises_cleanly(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plan.yaml").write_text(PLAN_YAML)
        assert main(["jobs", "submit", "plan.yaml",
                     "--url", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach service")
        assert "Traceback" not in err
