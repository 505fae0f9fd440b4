"""End-to-end service tests: HTTP API, dedup, byte-identity, restart.

Each test boots a real :class:`~repro.service.server.SweepService` on
an ephemeral port via :class:`~repro.service.server.ServiceThread` and
talks to it through the same stdlib client the ``repro jobs`` CLI
uses — the full production path, in-process.
"""

import json
import os
import time

import pytest

from repro.errors import ServiceError
from repro.service import ServiceThread, SweepService, client
from repro.service.server import MAX_NRANKS, MAX_POINTS, parse_submission
from repro.sweep import SweepPlan, run_sweep

PLAN = {"name": "e2e", "mode": "generate",
        "base": {"app": "jacobi", "nranks": 4},
        "axes": [{"field": "compute_scale", "values": [1.0, 0.5]}]}

CAMPAIGN_YAML = """\
name: e2e-fuzz
mode: run
base: {platform: ethernet}
apps:
  - {app: ring, nranks: 4, cls: S}
policies: [random]
seeds: 2
"""


@pytest.fixture()
def service(tmp_path):
    """A live service on an ephemeral port; stopped after the test."""
    svc = SweepService(str(tmp_path / "state"),
                       cache_dir=str(tmp_path / "cache"), workers=1)
    thread = ServiceThread(svc).start()
    try:
        yield thread
    finally:
        thread.stop()


class TestHealthz:
    def test_reports_ok_and_version(self, service):
        health = client.healthz(service.url)
        assert health["status"] == "ok"
        assert health["jobs"] == {"queued": 0, "running": 0,
                                  "done": 0, "failed": 0}
        assert "version" in health

    def test_counts_requests(self, service):
        client.healthz(service.url)
        health = client.healthz(service.url)
        assert health["counters"]["service.requests"] >= 2


class TestSubmitAndResult:
    def test_sweep_roundtrip(self, service):
        job = client.submit(service.url, json.dumps(PLAN))
        assert job["kind"] == "sweep"
        assert not job["deduplicated"]
        final = client.wait(service.url, job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["execution"]["points"] == {"ok": 2, "degraded": 0,
                                                "failed": 0}
        # per-execution obs counters rode into the terminal status
        assert final["execution"]["counters"]["sweep.points"] == 2

    def test_result_bytes_match_direct_run(self, service, tmp_path):
        """The headline guarantee: the service's result for a digest is
        byte-identical to the one-shot CLI's canonical output."""
        job = client.submit(service.url, json.dumps(PLAN))
        client.wait(service.url, job["id"], timeout=120)
        direct = run_sweep(SweepPlan.from_dict(PLAN), 1,
                           cache_dir=str(tmp_path / "other-cache"))
        assert client.result(service.url, job["id"]) == \
            direct.canonical_json()
        assert client.result(service.url, job["id"], "jsonl") == \
            direct.canonical_jsonl()

    def test_yaml_submission(self, service):
        text = ("name: yaml-e2e\nmode: generate\n"
                "base: {app: jacobi, nranks: 4}\n"
                "axes:\n  - {field: compute_scale, values: [1.0]}\n")
        job = client.submit(service.url, text)
        final = client.wait(service.url, job["id"], timeout=120)
        assert final["state"] == "done"

    def test_fuzz_job(self, service):
        job = client.submit(service.url, CAMPAIGN_YAML, kind="fuzz")
        assert job["kind"] == "fuzz"
        final = client.wait(service.url, job["id"], timeout=240)
        assert final["state"] == "done"
        report = json.loads(client.result(service.url, job["id"]))
        assert len(report["cells"]) == 1

    def test_progress_is_reported(self, service):
        job = client.submit(service.url, json.dumps(PLAN))
        final = client.wait(service.url, job["id"], timeout=120)
        assert final["progress"]["done"] == 2
        assert final["progress"]["ok"] == 2


class TestDedup:
    def test_same_digest_is_one_execution_two_done_jobs(self, service):
        a = client.submit(service.url, json.dumps(PLAN))
        b = client.submit(service.url, json.dumps(PLAN))
        assert b["deduplicated"]
        assert a["id"] != b["id"]
        fa = client.wait(service.url, a["id"], timeout=120)
        fb = client.wait(service.url, b["id"], timeout=120)
        assert fa["state"] == fb["state"] == "done"
        assert fa["digest"] == fb["digest"]
        health = client.healthz(service.url)
        assert health["counters"]["service.executions_started"] == 1
        assert health["counters"]["service.jobs_deduplicated"] == 1
        assert health["jobs"]["done"] == 2
        assert health["executions"]["done"] == 1

    def test_dedup_jobs_serve_identical_bytes(self, service):
        a = client.submit(service.url, json.dumps(PLAN))
        b = client.submit(service.url, json.dumps(PLAN))
        client.wait(service.url, a["id"], timeout=120)
        assert client.result(service.url, a["id"]) == \
            client.result(service.url, b["id"])

    def test_submit_after_done_snaps_to_terminal(self, service):
        a = client.submit(service.url, json.dumps(PLAN))
        client.wait(service.url, a["id"], timeout=120)
        b = client.submit(service.url, json.dumps(PLAN))
        assert b["deduplicated"]
        assert b["state"] == "done"  # no second execution, no wait


class TestErrorPaths:
    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="no such job"):
            client.status(service.url, "j999999-deadbeef")

    def test_malformed_plan_is_400(self, service):
        with pytest.raises(ServiceError, match="invalid sweep"):
            client.submit(service.url, "mode: [unclosed")

    @pytest.mark.parametrize("fault_plan", [
        {"windows": [3]}, {"stragglers": [3]}, {"drop_rate": "abc"}])
    def test_nested_bad_fault_plan_is_400(self, service, fault_plan):
        body = dict(PLAN, axes=[{"field": "fault_plan",
                                 "values": [fault_plan]}])
        with pytest.raises(ServiceError,
                           match=r"point 0 .*bad fault plan.*HTTP 400"):
            client.submit(service.url, json.dumps(body))

    def test_sweep_point_over_rank_cap_is_400(self, service):
        body = dict(PLAN, axes=[{"field": "nranks",
                                 "values": [4, MAX_NRANKS + 1]}])
        with pytest.raises(ServiceError, match=(
                rf"point 1 \(nranks={MAX_NRANKS + 1}\).*cap of "
                rf"{MAX_NRANKS}.*HTTP 400")):
            client.submit(service.url, json.dumps(body))
        store = service.service.store
        assert not store.jobs and not store.pending
        assert not os.path.exists(store.journal_path) or \
            os.path.getsize(store.journal_path) == 0

    def test_fuzz_cell_over_rank_cap_is_400(self, service):
        body = CAMPAIGN_YAML.replace("nranks: 4", f"nranks: {MAX_NRANKS * 2}")
        with pytest.raises(ServiceError, match=(
                rf"cell 0 \(ring/np={MAX_NRANKS * 2}/.*cap of "
                rf"{MAX_NRANKS}.*HTTP 400")):
            client.submit(service.url, body, kind="fuzz")
        assert not service.service.store.jobs

    def test_fuzz_campaign_over_point_cap_is_400_fast(self, service):
        """A billion seeds are counted, not expanded: the job is refused
        at once and never journaled or queued."""
        body = CAMPAIGN_YAML.replace("seeds: 2", "seeds: 1000000000")
        t0 = time.monotonic()
        with pytest.raises(ServiceError, match=(
                rf"1000000001 points is over the service's cap of "
                rf"{MAX_POINTS}.*HTTP 400")):
            client.submit(service.url, body, kind="fuzz")
        assert time.monotonic() - t0 < 5.0
        store = service.service.store
        assert not store.jobs and not store.pending
        assert not os.path.exists(store.journal_path) or \
            os.path.getsize(store.journal_path) == 0

    def test_sweep_over_point_cap_is_400(self, service):
        axes = [{"field": field, "values": list(range(1, 101))}
                for field in ("nranks", "max_steps")]
        axes.append({"field": "compute_scale", "values": [1.0, 0.5]})
        with pytest.raises(ServiceError, match=(
                rf"20000 points is over the service's cap of "
                rf"{MAX_POINTS}")):
            client.submit(service.url, json.dumps(dict(PLAN, axes=axes)))
        assert not service.service.store.jobs

    def test_bad_kind_is_400(self, service):
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.submit(service.url, json.dumps(PLAN), kind="bake")

    def test_result_before_terminal_is_conflict(self, service, tmp_path):
        # a store-only job: queued but the digest never runs (separate
        # store instance, so the live worker doesn't race this test)
        job = client.submit(service.url, json.dumps(
            dict(PLAN, name="never-mind",
                 axes=[{"field": "compute_scale",
                        "values": [1.0] * 30}])))
        try:
            client.result(service.url, job["id"])
        except ServiceError as exc:
            assert "not available yet" in str(exc) or \
                "HTTP 409" in str(exc)
        else:  # the sweep can legitimately finish first on a fast host
            assert client.wait(service.url, job["id"],
                               timeout=120)["state"] == "done"

    def test_failed_point_is_isolated_not_a_job_failure(self, service):
        # max_steps=1 trips the livelock guard at runtime; the sweep
        # engine isolates the point, so the JOB completes with a
        # failed point rather than failing as an execution
        bad = {"name": "one-bad-point", "mode": "generate",
               "base": {"app": "jacobi", "nranks": 4},
               "axes": [{"field": "max_steps", "values": [None, 1]}]}
        job = client.submit(service.url, json.dumps(bad))
        final = client.wait(service.url, job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["execution"]["points"]["failed"] == 1
        payload = json.loads(client.result(service.url, job["id"]))
        statuses = [p["status"] for p in payload["points"]]
        assert statuses == ["ok", "failed"]

    def test_bad_result_format_is_rejected(self, service):
        job = client.submit(service.url, CAMPAIGN_YAML, kind="fuzz")
        client.wait(service.url, job["id"], timeout=240)
        with pytest.raises(ServiceError, match="no 'jsonl' format"):
            client.result(service.url, job["id"], "jsonl")

    def test_negative_content_length_is_400(self, service):
        # regression: int() accepted "-5", then readexactly(-5) raised
        # ValueError and the connection dropped with no response
        import socket
        svc = service.service
        with socket.create_connection((svc.host, svc.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: -5\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in reply

    def test_invalid_utf8_body_is_400(self, service):
        # regression: the body decode raised UnicodeDecodeError, which
        # escaped as a 500 instead of a client error
        import socket
        svc = service.service
        body = b"name: \xff\xfe\n"
        with socket.create_connection((svc.host, svc.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "not valid UTF-8" in json.loads(payload)["error"]

    def test_unexpected_handler_error_answers_500(self, service,
                                                  monkeypatch):
        # regression: a non-_HTTPError escaping _route (e.g. OSError
        # from a disk-full journal fsync) dropped the connection
        def boom(method, path, query, body):
            raise OSError("no space left on device")

        monkeypatch.setattr(service.service, "_route", boom)
        with pytest.raises(ServiceError,
                           match=r"no space left.*HTTP 500"):
            client.healthz(service.url)


class TestRestart:
    def test_results_survive_restart(self, tmp_path):
        state = str(tmp_path / "state")
        cache = str(tmp_path / "cache")
        thread = ServiceThread(SweepService(
            state, cache_dir=cache, workers=1)).start()
        try:
            job = client.submit(thread.url, json.dumps(PLAN))
            client.wait(thread.url, job["id"], timeout=120)
            first = client.result(thread.url, job["id"])
        finally:
            thread.stop()
        thread = ServiceThread(SweepService(
            state, cache_dir=cache, workers=1)).start()
        try:
            again = client.status(thread.url, job["id"])
            assert again["state"] == "done"
            assert client.result(thread.url, job["id"]) == first
            health = client.healthz(thread.url)
            assert health["replay"]["jobs"] == 1
        finally:
            thread.stop()

    def test_queued_job_runs_after_restart(self, tmp_path):
        from repro.service import JobStore
        state = str(tmp_path / "state")
        # enqueue without a server (as if the service crashed pre-run)
        store = JobStore(state)
        store.load()
        plan = SweepPlan.from_dict(PLAN)
        job = store.submit("sweep", plan.digest(), plan.name,
                           plan.to_dict())
        store.close()
        thread = ServiceThread(SweepService(
            state, cache_dir=str(tmp_path / "cache"), workers=1)).start()
        try:
            final = client.wait(thread.url, job.id, timeout=120)
            assert final["state"] == "done"
        finally:
            thread.stop()


class TestParseSubmission:
    def test_envelope_wins_over_hint(self):
        kind, plan = parse_submission(
            json.dumps({"kind": "sweep", "spec": PLAN}), kind_hint="fuzz")
        assert kind == "sweep"
        assert plan.name == "e2e"

    def test_bare_json_uses_hint(self):
        kind, campaign = parse_submission(
            json.dumps({"name": "c", "mode": "run",
                        "apps": [{"app": "ring", "nranks": 4}],
                        "policies": ["random"], "seeds": 1}),
            kind_hint="fuzz")
        assert kind == "fuzz"
        assert campaign.name == "c"

    def test_rank_cap_is_inclusive(self):
        body = dict(PLAN, base={"app": "jacobi", "nranks": MAX_NRANKS})
        _, plan = parse_submission(json.dumps(body))
        assert plan.points()[0].overrides["nranks"] == MAX_NRANKS

    def test_default_kind_is_sweep(self):
        kind, _ = parse_submission(json.dumps(PLAN))
        assert kind == "sweep"

    def test_invalid_spec_raises_service_error(self):
        with pytest.raises(ServiceError, match="invalid fuzz"):
            parse_submission("apps: []", kind_hint="fuzz")

    @pytest.mark.parametrize("wrap", [
        lambda spec: json.dumps({"kind": "sweep", "spec": spec}),
        json.dumps], ids=["envelope", "bare"])
    def test_json_exponent_floats_stay_floats(self, wrap):
        # YAML 1.1 reads a JSON 1e-05 as a string; JSON bodies parse
        # as JSON, so the plan is the one the client sent
        spec = dict(PLAN, axes=[{"field": "compute_scale",
                                 "values": [1e-05, 1e+20]}])
        _, plan = parse_submission(wrap(spec))
        assert plan.axes[0].values == (1e-05, 1e+20)
