"""Scenario submissions: an alias of the cell's one-point sweep plan.

A ``kind: scenario`` body is turned into its sweep plan at submit time,
so it is journaled, deduplicated and executed as a ``sweep`` job: its
result bytes match ``repro scenarios run`` exactly, and it shares one
execution with the same plan submitted as a sweep.  Journals written
while ``scenario`` was a job kind of its own still replay."""

import json
import os
import shutil
import warnings

import pytest

from repro.errors import ServiceError
from repro.scenarios import scenario_plan
from repro.service import (JobStore, ServiceThread, SweepService, client,
                           execute_spec)
from repro.service.server import parse_submission
from repro.sweep import run_sweep

JOB = {"scenario": "torus-hotlink", "app": "sweep3d", "nranks": 8,
       "cls": "S"}

JOB_YAML = """\
scenario: torus-hotlink
app: sweep3d
nranks: 8
cls: S
"""

#: a state directory written by the JobStore of the release that still
#: had a ``scenario`` job kind: two jobs sharing one done execution of
#: {scenario: torus-hotlink, app: ring, nranks: 4}, and its payloads
LEGACY_STATE = os.path.join(os.path.dirname(__file__), "data",
                            "scenario-state")
LEGACY_DIGEST = "918582aeaa9672c6"
LEGACY_JOBS = ("j000001-918582ae", "j000002-918582ae")


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(str(tmp_path / "state"),
                       cache_dir=str(tmp_path / "cache"), workers=1)
    thread = ServiceThread(svc).start()
    try:
        yield thread
    finally:
        thread.stop()


def _submit(url, spec):
    return client.submit(url, json.dumps(spec), kind="scenario")


class TestParseSubmission:
    def test_envelope_form(self):
        envelope = json.dumps({"kind": "scenario", "spec": JOB})
        kind, plan = parse_submission(envelope)
        assert kind == "sweep"
        assert plan.name == "scenario-torus-hotlink-sweep3d"

    def test_bare_yaml_with_kind_hint(self):
        kind, plan = parse_submission(JOB_YAML, kind_hint="scenario")
        assert kind == "sweep"
        assert plan == scenario_plan(JOB)
        assert plan.digest() == scenario_plan(JOB).digest()

    def test_invalid_job_is_a_service_error(self):
        bad = dict(JOB, scenario="nope")
        with pytest.raises(ServiceError, match="invalid scenario"):
            parse_submission(json.dumps({"kind": "scenario",
                                         "spec": bad}))

    @pytest.mark.parametrize("body", [
        "scenario: [unclosed", "- calm\n- ring\n",
        "scenario: calm\napp: ring\n",
        "scenario: calm\napp: ring\nnranks: 4\nbogus: 1\n",
        "scenario: calm\napp: ring\nnranks: 4\noverrides: {app: lu}\n"])
    def test_malformed_bodies_are_service_errors(self, body):
        with pytest.raises(ServiceError, match="invalid scenario"):
            parse_submission(body, kind_hint="scenario")


class TestScenarioJobs:
    def test_roundtrip(self, service):
        job = _submit(service.url, JOB)
        assert job["kind"] == "sweep"
        assert job["name"] == "scenario-torus-hotlink-sweep3d"
        final = client.wait(service.url, job["id"], timeout=240)
        assert final["state"] == "done"
        assert final["execution"]["points"] == {"ok": 1, "degraded": 0,
                                                "failed": 0}

    def test_result_bytes_match_direct_run(self, service, tmp_path):
        job = _submit(service.url, JOB)
        client.wait(service.url, job["id"], timeout=240)
        direct = run_sweep(scenario_plan(JOB), 1,
                           cache_dir=str(tmp_path / "other-cache"))
        assert client.result(service.url, job["id"]) == \
            direct.canonical_json()
        assert client.result(service.url, job["id"], "jsonl") == \
            direct.canonical_jsonl()

    def test_same_digest_deduplicates(self, service):
        first = _submit(service.url, JOB)
        client.wait(service.url, first["id"], timeout=240)
        second = _submit(service.url, JOB)
        assert second["deduplicated"]
        assert second["digest"] == first["digest"]

    def test_equivalent_sweep_plan_deduplicates(self, service):
        first = _submit(service.url, JOB)
        plan = scenario_plan(JOB)
        second = client.submit(service.url, plan.dumps())
        assert second["deduplicated"]
        assert second["digest"] == first["digest"] == plan.digest()
        client.wait(service.url, second["id"], timeout=240)
        started = client.healthz(service.url)["counters"]
        assert started["service.executions_started"] == 1

    def test_malformed_submission_is_400(self, service):
        with pytest.raises(ServiceError,
                           match=r"invalid scenario.*HTTP 400"):
            _submit(service.url, dict(JOB, overrides={"nranks": 2}))

    def test_distinct_scenarios_are_distinct_jobs(self, service):
        a = _submit(service.url, JOB)
        b = _submit(service.url,
                    dict(JOB, scenario="straggler-wavefront"))
        assert a["digest"] != b["digest"]
        assert not b["deduplicated"]


def _legacy_state(tmp_path):
    state = str(tmp_path / "state")
    shutil.copytree(LEGACY_STATE, state)
    return state


def _legacy_payload(fmt):
    path = os.path.join(LEGACY_STATE, "results",
                        f"scenario-{LEGACY_DIGEST}.{fmt}")
    with open(path) as fh:
        return fh.read()


class TestLegacyScenarioJournal:
    def test_replay_turns_scenario_jobs_into_their_sweep_plan(self,
                                                              tmp_path):
        store = JobStore(_legacy_state(tmp_path))
        with pytest.warns(UserWarning, match="unknown execution "
                                             "'scenario:"):
            summary = store.load()
        plan = scenario_plan(scenario="torus-hotlink", app="ring",
                             nranks=4)
        assert summary["jobs"] == 2
        assert summary["skipped_records"] == 2
        first, second = (store.jobs[j] for j in LEGACY_JOBS)
        assert first.execution is second.execution
        ex = first.execution
        assert (ex.kind, ex.digest, ex.name) == ("sweep", plan.digest(),
                                                 plan.name)
        assert ex.spec == plan.to_dict()
        assert ex.state == "queued"
        assert store.pending == [ex.key]

    def test_rerun_reproduces_the_stored_bytes(self, tmp_path):
        store = JobStore(_legacy_state(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store.load()
        ex = store.take_pending()
        store.mark_running(ex)
        payloads, meta = execute_spec(ex.kind, ex.spec, 1,
                                      str(tmp_path / "cache"))
        store.finish(ex, payloads, meta)
        for job_id in LEGACY_JOBS:
            job = store.jobs[job_id]
            for fmt in ("json", "jsonl"):
                assert store.read_result(job, fmt) == _legacy_payload(fmt)
        store.close()
        # the re-run is journaled under the sweep key: a second restart
        # finds the execution done, with nothing left to run
        again = JobStore(store.state_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again.load()
        assert again.jobs[LEGACY_JOBS[0]].execution.state == "done"
        assert again.pending == []

    def test_service_reruns_and_serves_the_stored_bytes(self, tmp_path):
        svc = SweepService(_legacy_state(tmp_path),
                           cache_dir=str(tmp_path / "cache"), workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            thread = ServiceThread(svc).start()
        try:
            for job_id in LEGACY_JOBS:
                final = client.wait(thread.url, job_id, timeout=240)
                assert final["state"] == "done"
                assert final["kind"] == "sweep"
                assert client.result(thread.url, job_id) == \
                    _legacy_payload("json")
                assert client.result(thread.url, job_id, "jsonl") == \
                    _legacy_payload("jsonl")
            counters = client.healthz(thread.url)["counters"]
            assert counters["service.executions_started"] == 1
        finally:
            thread.stop()
