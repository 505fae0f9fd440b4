"""Persistent job queue for the sweep service: journal, dedup, replay.

The service accepts **jobs** — a :class:`~repro.sweep.plan.SweepPlan`
or a :class:`~repro.fuzz.campaign.FuzzCampaign` submitted over HTTP (a
scenario × app cell arrives as its one-point sweep plan) — and runs
each underlying plan exactly once per content digest.  Two
clients submitting the same digest share one **execution**: both jobs
point at the same execution record and both observe its terminal
state.  The split mirrors the artifact cache's dogpile guarantee one
level up — the cache dedupes *stage artifacts* under a key lock, the
job store dedupes *whole plan executions* under a digest.

Everything is persisted to a JSONL **journal** (``<state>/jobs.jsonl``)
so a crashed or restarted service replays to a consistent queue:

* ``job`` records carry the submission (id, kind, digest, name, and
  the full plan ``spec``, so replay can re-execute without any other
  file);
* ``state`` records carry execution transitions (``running`` /
  ``done`` / ``failed``) for every job id sharing the execution.

A digest can run more than once: a *failed* execution is terminal for
the jobs that observed it, and the next submission of the same digest
creates a fresh one (see :meth:`JobStore.submit`).  Both record types
therefore carry the execution **generation** (``gen``, 0-based per
dedup key), so replay re-creates each generation as its own execution
instead of merging a retry into the failure it is retrying — without
it, the retry would replay as "failed" with the stale error and never
be re-queued, or a completed retry would flip the original failure to
"done".

Replay rules (``tests/service/test_journal.py``):

* jobs whose execution was ``queued`` or ``running`` at crash time are
  re-queued (a half-finished execution reruns from its spec — results
  are deterministic, so the rerun reproduces the lost outcome);
* terminal states are idempotent — duplicated ``done``/``failed``
  records apply cleanly;
* a corrupt *trailing* journal line (the torn write of a crash) is
  truncated with a warning, never a crash; records after a corrupt
  line are discarded with it;
* a ``job`` record of the retired ``scenario`` kind replays as the
  ``sweep`` job of its cell's plan; its ``scenario:<digest>`` state
  records name no execution and are skipped, so it re-runs and
  (deterministically) reproduces the old result bytes.

Result payloads live next to the journal under ``<state>/results/``,
keyed by ``<kind>-<digest>`` — content-addressed like everything else,
so a re-submitted digest finds its bytes without re-running.  Writes
are atomic (temp + rename) and strictly precede the terminal journal
record, so a ``done`` in the journal implies the payload exists.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError

#: job/execution lifecycle states, in order
JOB_STATES = ("queued", "running", "done", "failed")

#: states an execution never leaves
TERMINAL_STATES = ("done", "failed")

#: plan kinds the service executes
JOB_KINDS = ("sweep", "fuzz")

#: result payload formats persisted per kind
RESULT_FORMATS = {"sweep": ("json", "jsonl"), "fuzz": ("json",)}


@dataclass
class Execution:
    """One deduplicated plan execution shared by same-digest jobs."""

    key: str                        #: dedup key, ``<kind>:<digest>``
    kind: str                       #: JOB_KINDS member
    digest: str                     #: plan/campaign content digest
    name: str                       #: plan/campaign name
    spec: Dict[str, Any]            #: the plan as plain data (replayable)
    gen: int = 0                    #: generation per key (bumped when a
    #:                                 failed digest is retried fresh)
    state: str = "queued"           #: JOB_STATES member
    error: Optional[str] = None     #: failure description (failed only)
    job_ids: List[str] = field(default_factory=list)
    #: live per-point progress, updated by the runner's callback
    progress: Dict[str, Any] = field(default_factory=dict)
    #: terminal bookkeeping: wall seconds, workers, obs counter snapshot
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        """Whether the execution reached ``done`` or ``failed``."""
        return self.state in TERMINAL_STATES


@dataclass
class Job:
    """One client submission; thin handle onto its shared execution."""

    id: str
    execution: Execution
    deduplicated: bool = False      #: True when the submit joined an
    #:                                 already-known digest

    def status_dict(self) -> Dict[str, Any]:
        """The JSON rendering served by ``GET /jobs/{id}``."""
        ex = self.execution
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": ex.kind,
            "name": ex.name,
            "digest": ex.digest,
            "state": ex.state,
            "deduplicated": self.deduplicated,
            "shared_with": len(ex.job_ids) - 1,
        }
        if ex.error is not None:
            out["error"] = ex.error
        if ex.progress:
            out["progress"] = dict(ex.progress)
        if ex.execution:
            out["execution"] = dict(ex.execution)
        return out


def _execution_key(kind: str, digest: str) -> str:
    """The dedup identity of one plan execution."""
    return f"{kind}:{digest}"


class JobStore:
    """Journal-backed job registry with dedup-by-digest semantics.

    Not thread-safe by itself: the service mutates it only from the
    event-loop thread (worker threads hand results back through the
    loop).  The CLI and tests drive it synchronously.
    """

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.journal_path = os.path.join(state_dir, "jobs.jsonl")
        self.results_dir = os.path.join(state_dir, "results")
        self.jobs: Dict[str, Job] = {}
        self.executions: Dict[str, Execution] = {}
        #: execution keys awaiting a worker, submission order
        self.pending: List[str] = []
        self._seq = 0
        self._journal_fh = None
        #: replay summary of the last :meth:`load` (served by /healthz)
        self.replay: Dict[str, int] = {}

    # -- journal ------------------------------------------------------------
    def _open_journal(self):
        if self._journal_fh is None:
            os.makedirs(self.state_dir, exist_ok=True)
            self._journal_fh = open(self.journal_path, "a")
        return self._journal_fh

    def _append(self, record: Dict[str, Any]) -> None:
        """Append one journal record durably (flush + fsync)."""
        fh = self._open_journal()
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        """Close the journal file handle (the store stays readable)."""
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    def load(self) -> Dict[str, int]:
        """Replay the journal into memory; returns the replay summary.

        Safe on a missing or empty journal.  A corrupt line truncates
        the journal at that point (a crash can tear at most the last
        line; anything after a torn line is unreachable anyway) with a
        :class:`UserWarning` rather than refusing to start.
        """
        summary = {"jobs": 0, "requeued": 0, "truncated_bytes": 0,
                   "skipped_records": 0}
        records, truncated = self._read_journal()
        summary["truncated_bytes"] = truncated
        for record in records:
            if not self._replay_record(record):
                summary["skipped_records"] += 1
        summary["jobs"] = len(self.jobs)
        # crash recovery: anything not terminal goes back on the queue
        # (a "running" execution died with the service; its spec is in
        # the journal, so it simply runs again)
        for key, ex in self.executions.items():
            if not ex.terminal:
                if ex.state == "running":
                    ex.state = "queued"
                    summary["requeued"] += 1
                self.pending.append(key)
        self.replay = summary
        return summary

    def _read_journal(self) -> Tuple[List[Dict[str, Any]], int]:
        """Parsed journal records, truncating at the first corrupt line."""
        try:
            with open(self.journal_path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return [], 0
        records: List[Dict[str, Any]] = []
        good = 0
        for line in raw.splitlines(keepends=True):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal record is not an object")
            except ValueError:
                broken = len(raw) - good
                warnings.warn(
                    f"service journal {self.journal_path!r}: corrupt "
                    f"record at byte {good}; truncating {broken} "
                    f"byte(s) (a crash can tear the trailing write)",
                    stacklevel=2)
                with open(self.journal_path, "r+b") as fh:
                    fh.truncate(good)
                return records, broken
            records.append(record)
            good += len(line)
        return records, 0

    def _replay_record(self, record: Dict[str, Any]) -> bool:
        """Apply one journal record; False when skipped (with warning)."""
        rec = record.get("rec")
        if rec == "job":
            return self._apply_job(record)
        if rec == "state":
            return self._apply_state(record)
        warnings.warn(f"service journal: unknown record type {rec!r} "
                      f"skipped", stacklevel=2)
        return False

    def _apply_job(self, record: Dict[str, Any]) -> bool:
        try:
            job_id = record["id"]
            kind = record["kind"]
            digest = record["digest"]
            spec = record["spec"]
            name = record.get("name", kind)
        except KeyError as exc:
            warnings.warn(f"service journal: job record missing {exc}; "
                          f"skipped", stacklevel=2)
            return False
        if job_id in self.jobs:  # replayed submit: idempotent
            return True
        gen = record.get("gen")
        if kind == "scenario":  # retired kind: replay as its sweep plan
            from repro.scenarios import scenario_plan
            try:
                plan = scenario_plan(spec)
            except ReproError as exc:
                warnings.warn(f"service journal: scenario job {job_id!r} "
                              f"skipped: {exc}", stacklevel=2)
                return False
            # its gen counted scenario retries: join like a gen-less record
            kind, digest, name, spec, gen = ("sweep", plan.digest(),
                                             plan.name, plan.to_dict(),
                                             None)
        key = _execution_key(kind, digest)
        ex = self.executions.get(key)
        # mirror submit(): a job record for a *new* generation starts a
        # fresh execution superseding the current one (earlier jobs keep
        # their reference, so a replayed failure stays sticky for them).
        # Journals from before generation tracking carry no "gen"; there
        # a new generation is recognizable exactly as submit() created
        # it — the current execution had already failed.
        fresh = ex is None or (gen != ex.gen if gen is not None
                               else ex.state == "failed")
        if fresh:
            if gen is None:
                gen = 0 if ex is None else ex.gen + 1
            ex = self.executions[key] = Execution(
                key=key, kind=kind, digest=digest, name=name, spec=spec,
                gen=gen)
            dedup = False
        else:
            dedup = True
        ex.job_ids.append(job_id)
        self.jobs[job_id] = Job(id=job_id, execution=ex,
                                deduplicated=dedup)
        # keep fresh ids monotone past everything in the journal
        try:
            self._seq = max(self._seq, int(job_id.split("-")[0][1:]))
        except ValueError:
            pass
        return True

    def _apply_state(self, record: Dict[str, Any]) -> bool:
        key = record.get("key")
        state = record.get("state")
        ex = self.executions.get(key)
        if ex is None or state not in JOB_STATES:
            warnings.warn(
                f"service journal: state record for unknown execution "
                f"{key!r} (state {state!r}) skipped", stacklevel=2)
            return False
        gen = record.get("gen")
        if gen is not None and gen != ex.gen:
            warnings.warn(
                f"service journal: state record for stale generation "
                f"{gen} of {key!r} (current {ex.gen}) skipped",
                stacklevel=2)
            return False
        if ex.terminal and state == ex.state:
            return True  # duplicated terminal record: idempotent
        ex.state = state
        if record.get("error") is not None:
            ex.error = str(record["error"])
        if isinstance(record.get("execution"), dict):
            ex.execution = record["execution"]
        return True

    # -- submission ---------------------------------------------------------
    def submit(self, kind: str, digest: str, name: str,
               spec: Dict[str, Any]) -> Job:
        """Register one submission; returns the (possibly shared) job.

        A digest already known to the store joins its execution
        (``job.deduplicated``) and immediately observes its current —
        possibly terminal — state.  A previously *failed* digest is
        retried with a fresh execution: failure is sticky for the jobs
        that observed it, not for the digest.
        """
        if kind not in JOB_KINDS:
            raise ServiceError(f"unknown job kind {kind!r}; choose from "
                               f"{JOB_KINDS}")
        key = _execution_key(kind, digest)
        ex = self.executions.get(key)
        dedup = ex is not None and ex.state != "failed"
        self._seq += 1
        job_id = f"j{self._seq:06d}-{digest[:8]}"
        if not dedup:
            ex = self.executions[key] = Execution(
                key=key, kind=kind, digest=digest, name=name, spec=spec,
                gen=0 if ex is None else ex.gen + 1)
            self.pending.append(key)
        assert ex is not None
        ex.job_ids.append(job_id)
        job = Job(id=job_id, execution=ex, deduplicated=dedup)
        self.jobs[job_id] = job
        self._append({"rec": "job", "id": job_id, "kind": kind,
                      "digest": digest, "name": name, "spec": spec,
                      "gen": ex.gen})
        return job

    def take_pending(self) -> Optional[Execution]:
        """Pop the oldest queued execution, or None."""
        while self.pending:
            ex = self.executions[self.pending.pop(0)]
            if ex.state == "queued":
                return ex
        return None

    # -- transitions --------------------------------------------------------
    def mark_running(self, ex: Execution) -> None:
        """Record the execution's transition to ``running``."""
        ex.state = "running"
        self._append({"rec": "state", "key": ex.key, "gen": ex.gen,
                      "state": "running"})

    def finish(self, ex: Execution, payloads: Dict[str, str],
               execution_meta: Dict[str, Any]) -> None:
        """Persist result payloads, then record ``done``.

        Payload writes strictly precede the journal record, so replay
        never sees a ``done`` execution without its result bytes.
        """
        for fmt, text in payloads.items():
            self._write_result(ex.kind, ex.digest, fmt, text)
        ex.execution = execution_meta
        ex.state = "done"
        self._append({"rec": "state", "key": ex.key, "gen": ex.gen,
                      "state": "done", "execution": execution_meta})

    def fail(self, ex: Execution, error: str) -> None:
        """Record the execution's terminal failure."""
        ex.state = "failed"
        ex.error = error
        self._append({"rec": "state", "key": ex.key, "gen": ex.gen,
                      "state": "failed", "error": error})

    # -- results ------------------------------------------------------------
    def result_path(self, kind: str, digest: str, fmt: str = "json") -> str:
        """On-disk location of one result payload."""
        return os.path.join(self.results_dir, f"{kind}-{digest}.{fmt}")

    def _write_result(self, kind: str, digest: str, fmt: str,
                      text: str) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        path = self.result_path(kind, digest, fmt)
        fd, tmp = tempfile.mkstemp(dir=self.results_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def read_result(self, job: Job, fmt: str = "json") -> str:
        """The job's result payload text (terminal ``done`` jobs only)."""
        ex = job.execution
        if fmt not in RESULT_FORMATS.get(ex.kind, ()):
            raise ServiceError(
                f"{ex.kind} results have no {fmt!r} format; choose from "
                f"{RESULT_FORMATS[ex.kind]}")
        try:
            with open(self.result_path(ex.kind, ex.digest, fmt)) as fh:
                return fh.read()
        except OSError as exc:
            raise ServiceError(
                f"result payload missing for job {job.id} "
                f"({ex.key}): {exc}") from None

    # -- summaries ----------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job totals by state (the /healthz summary)."""
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            out[job.execution.state] += 1
        return out

    def execution_counts(self) -> Dict[str, int]:
        """Execution totals by state (dedup makes this <= job counts)."""
        out = {state: 0 for state in JOB_STATES}
        for ex in self.executions.values():
            out[ex.state] += 1
        return out
