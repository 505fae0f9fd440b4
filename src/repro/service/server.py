"""The sweep service: an asyncio HTTP/JSON front-end over the job store.

``repro serve`` turns the one-shot sweep/fuzz CLIs into a long-running
service.  The HTTP layer is a handcrafted ``asyncio`` streams handler —
stdlib only, ``Connection: close`` per request, JSON in and out — small
enough to audit end-to-end (``docs/SERVICE.md`` is the API reference):

========  ======================  ========================================
method    path                    meaning
========  ======================  ========================================
POST      ``/jobs``               submit a SweepPlan or FuzzCampaign
                                  (or a scenario cell, run as its plan)
GET       ``/jobs``               list all known jobs
GET       ``/jobs/{id}``          job status + live per-point progress
GET       ``/jobs/{id}/result``   canonical result bytes (terminal only)
GET       ``/healthz``            liveness + queue/replay/counter summary
========  ======================  ========================================

Execution model: one **worker coroutine** drains the job store's
pending queue; each execution runs in a thread-pool thread (the sweep
engine fans points across its own ``ProcessPoolExecutor`` with
``--workers`` processes, so the service thread is just the driver).
Executions are sequential — the parallelism budget belongs to the
engine, not to concurrent jobs — and every store mutation happens on
the event-loop thread, keeping :class:`~repro.service.jobs.JobStore`
single-threaded.

Observability is two collectors, deliberately separate: the server owns
an :class:`~repro.obs.Instrumentation` used *directly* (never via the
module-global probe) for ``service.*`` counters and spans, while each
execution installs its own scoped collector in the worker thread so
``sweep.*``/``fuzz.*``/``pipeline.*`` probes are captured per job and
snapshotted into the terminal status — no cross-contamination between
the serving path and the executing path.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro import __version__, obs
from repro.errors import ReproError, ServiceError
from repro.service.jobs import JOB_KINDS, Execution, Job, JobStore

#: request body ceiling: plans are small; anything bigger is abuse
MAX_BODY_BYTES = 4 * 1024 * 1024
#: request line + headers ceiling
MAX_HEADER_BYTES = 64 * 1024
#: ranks one sweep point or fuzz cell may simulate: a plan is a few
#: hundred bytes however large its points, so the body ceiling cannot
#: bound the work (np 1024 is the largest the generator is measured at)
MAX_NRANKS = 4096
#: points one sweep or fuzz campaign may expand to, counted from its
#: axes or cells before any point is built (``seeds: 1000000000`` is a
#: few bytes too); the nightly fuzz campaign, the largest shipped spec,
#: is 1,806 points
MAX_POINTS = 10_000

#: obs layers whose per-execution counters ride into job status
_EXECUTION_LAYERS = ("sweep", "fuzz", "pipeline")


def parse_submission(text: str,
                     kind_hint: Optional[str] = None) -> Tuple[str, Any]:
    """Parse one submission body into ``(kind, plan)``.

    Two shapes are accepted:

    * a JSON **envelope** ``{"kind": "sweep"|"fuzz"|"scenario",
      "spec": {...}}`` (the explicit form the client CLI sends);
    * a bare plan/campaign/cell body (JSON, else YAML), whose kind
      comes from ``kind_hint`` (the ``?kind=`` query parameter, default
      sweep).

    ``scenario`` is an alias: the body is one scenario × app cell, and
    its plan (:func:`~repro.scenarios.scenario_plan`) is a ``sweep``
    job.  Malformed submissions, plans of more than :data:`MAX_POINTS`
    points (counted before any is built), and points or cells of more
    than :data:`MAX_NRANKS` ranks raise :class:`ServiceError` — the
    server maps it to 400, so a bad plan never reaches the queue.
    """
    from repro.fuzz import FuzzCampaign
    from repro.scenarios import scenario_plan
    from repro.spec import parse
    from repro.sweep import SweepPlan
    loaders = {"sweep": SweepPlan.from_dict,
               "fuzz": FuzzCampaign.from_dict, "scenario": scenario_plan}
    kind = kind_hint or "sweep"
    try:
        try:  # JSON first: YAML would read a JSON 1e-05 as a string
            data = json.loads(text)
        except ValueError:
            data = parse(text, "submission body", ServiceError)
        if isinstance(data, dict) and "spec" in data:
            kind, data = str(data.get("kind", kind)), data["spec"]
        if kind not in loaders:
            raise ServiceError(f"unknown job kind {kind!r}; choose from "
                               f"{tuple(loaders)}")
        plan = loaders[kind](data)
        count = plan.point_count()
        if count > MAX_POINTS:
            raise ServiceError(
                f"{count} points is over the service's cap of "
                f"{MAX_POINTS}")
        plan.check()
        where = ([(f"cell {c.index} ({c.label()})", c.overrides)
                  for c in plan.cells()] if kind == "fuzz" else
                 [(f"point {p.index} ({p.label()})", p.overrides)
                  for p in plan.points()])
        for name, overrides in where:
            if (overrides.get("nranks") or 0) > MAX_NRANKS:
                raise ServiceError(
                    f"{name}: nranks {overrides['nranks']} is over the "
                    f"service's cap of {MAX_NRANKS}")
    except ReproError as exc:
        raise ServiceError(f"invalid {kind} submission: {exc}") from None
    return ("sweep" if kind == "scenario" else kind), plan


def execute_spec(kind: str, spec: Dict[str, Any], workers: int,
                 cache_dir: str, progress=None) -> Tuple[Dict[str, str],
                                                         Dict[str, Any]]:
    """Run one journaled spec; returns ``(payloads, execution_meta)``.

    This is the whole execution path shared by the async worker and the
    synchronous test/replay drivers: rebuild the plan from its journaled
    dict, run it under a scoped obs collector, and package the canonical
    result payloads (byte-identical to the one-shot CLI's canonical
    output for the same digest) plus the execution metadata — wall
    seconds, engine workers, and the ``sweep.*``/``fuzz.*``/
    ``pipeline.*`` counter snapshot.
    """
    from repro.fuzz import FuzzCampaign, run_campaign
    from repro.sweep import SweepPlan, run_sweep
    inst = obs.Instrumentation()
    t0 = time.perf_counter()
    with obs.instrumented(inst):
        if kind == "sweep":
            result = run_sweep(SweepPlan.from_dict(spec), workers,
                               use_cache=True, cache_dir=cache_dir,
                               progress=progress)
            payloads = {"json": result.canonical_json(),
                        "jsonl": result.canonical_jsonl()}
            outcome = {"points": result.counts(),
                       "cache_hits": result.cache_hits,
                       "cache_misses": result.cache_misses}
        else:
            report = run_campaign(FuzzCampaign.from_dict(spec), workers,
                                  cache_dir=cache_dir, progress=progress)
            payloads = {"json": report.canonical_json()}
            outcome = {"cells": len(report.cells),
                       "divergent_cells": len(report.divergent_cells),
                       "deadlock_cells": len(report.deadlock_cells)}
    meta: Dict[str, Any] = {"workers": workers,
                            "seconds": round(time.perf_counter() - t0, 6)}
    meta.update(outcome)
    meta["counters"] = {
        name: value for name, value in sorted(inst.counters.items())
        if obs.layer_of(name) in _EXECUTION_LAYERS}
    return payloads, meta


class _HTTPError(Exception):
    """Internal: unwinds a handler into one JSON error response."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = dict(extra, error=message)


class SweepService:
    """The asyncio server: HTTP front-end + worker over a JobStore."""

    def __init__(self, state_dir: str, cache_dir: str = ".repro-cache",
                 workers: int = 1, host: str = "127.0.0.1",
                 port: int = 0):
        self.store = JobStore(state_dir)
        self.cache_dir = cache_dir
        self.workers = workers
        self.host = host
        self.port = port                #: bound port (0 = ephemeral)
        self.inst = obs.Instrumentation()
        self._progress_lock = threading.Lock()
        self._wake: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Replay the journal, bind the socket, start the worker."""
        replay = self.store.load()
        self.inst.count("service.journal_jobs_replayed", replay["jobs"])
        self.inst.count("service.journal_requeued", replay["requeued"])
        self._wake = asyncio.Event()
        if self.store.pending:
            self._wake.set()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_task = asyncio.ensure_future(self._worker())

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Close the socket, cancel the worker, close the journal."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        task = getattr(self, "_worker_task", None)
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.store.close()

    # -- the worker ---------------------------------------------------------
    async def _worker(self) -> None:
        """Drain the pending queue, one execution at a time."""
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            ex = self.store.take_pending()
            if ex is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            self.store.mark_running(ex)
            self.inst.count("service.executions_started")
            with self.inst.span("service.execution", key=ex.key,
                                plan=ex.name):
                try:
                    payloads, meta = await loop.run_in_executor(
                        None, self._execute, ex)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # any failure — a ReproError from the engine or a
                    # programming error — fails THIS execution, never
                    # the worker loop
                    self.store.fail(ex, f"{type(exc).__name__}: {exc}")
                    self.inst.count("service.executions_failed")
                else:
                    self.store.finish(ex, payloads, meta)
                    self.inst.count("service.executions_done")

    def _execute(self, ex: Execution):
        """Thread-pool body: run one execution with live progress."""

        def progress(rec: Dict[str, Any]) -> None:
            """Per-point callback from the engine (executor thread)."""
            with self._progress_lock:
                p = dict(ex.progress)
                p["done"] = p.get("done", 0) + 1
                p[rec["status"]] = p.get(rec["status"], 0) + 1
                p["last_index"] = rec["index"]
                ex.progress = p

        return execute_spec(ex.kind, ex.spec, self.workers,
                            self.cache_dir, progress=progress)

    # -- HTTP ---------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Serve exactly one request on this connection, then close."""
        try:
            try:
                method, path, query, body = await self._read_request(reader)
                self.inst.count("service.requests")
                status, payload, raw = self._route(method, path, query,
                                                   body)
            except _HTTPError as exc:
                self.inst.count("service.request_errors")
                status, payload, raw = exc.status, exc.payload, None
            except (ConnectionError, asyncio.IncompleteReadError):
                raise  # client gone: handled by the outer except
            except Exception as exc:
                # a handler bug or environmental failure (say, the
                # journal's fsync on a full disk) answers 500 instead
                # of silently dropping the connection
                self.inst.count("service.request_errors")
                status, raw = 500, None
                payload = {"error": f"internal error: "
                                    f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, status, payload, raw)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request: nothing to answer
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - double close
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request: (method, path, query, body)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HTTPError(431, "request headers too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HTTPError(431, "request headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        path, _, query_text = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_text.split("&"):
            if pair:
                k, _, v = pair.partition("=")
                query[k] = v
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                    if length < 0:
                        raise ValueError
                except ValueError:
                    raise _HTTPError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body over {MAX_BODY_BYTES} "
                                  f"bytes")
        data = await reader.readexactly(length) if length else b""
        try:
            body = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _HTTPError(400, f"request body is not valid UTF-8: "
                                  f"{exc.reason} at byte {exc.start}") \
                from None
        return method, path, query, body

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: str):
        """Dispatch one parsed request; returns (status, payload, raw)."""
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), None
        if path == "/jobs":
            if method == "POST":
                return self._submit(body, query.get("kind"))
            if method == "GET":
                jobs = [self.store.jobs[jid].status_dict()
                        for jid in sorted(self.store.jobs)]
                return 200, {"jobs": jobs}, None
            raise _HTTPError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.store.jobs.get(job_id)
            if job is None:
                raise _HTTPError(404, f"no such job {job_id!r}")
            if tail == "":
                return 200, job.status_dict(), None
            if tail == "result":
                return self._result(job, query.get("format", "json"))
            raise _HTTPError(404, f"no such endpoint {path!r}")
        raise _HTTPError(404, f"no such endpoint {path!r}")

    def _healthz(self) -> Dict[str, Any]:
        """The liveness payload: queue depth, replay, counters."""
        return {"status": "ok", "version": __version__,
                "engine_workers": self.workers,
                "jobs": self.store.counts(),
                "executions": self.store.execution_counts(),
                "pending": len(self.store.pending),
                "replay": self.store.replay,
                "counters": {k: v for k, v in
                             sorted(self.inst.counters.items())}}

    def _submit(self, body: str, kind_hint: Optional[str]):
        """POST /jobs: validate, journal, enqueue (or join), answer."""
        if not body.strip():
            raise _HTTPError(400, "empty submission body")
        try:
            kind, plan = parse_submission(body, kind_hint)
        except ServiceError as exc:
            raise _HTTPError(400, str(exc)) from None
        job = self.store.submit(kind, plan.digest(), plan.name,
                                plan.to_dict())
        self.inst.count("service.jobs_submitted")
        if job.deduplicated:
            self.inst.count("service.jobs_deduplicated")
        elif self._wake is not None:
            self._wake.set()
        return 202, job.status_dict(), None

    def _result(self, job: Job, fmt: str):
        """GET /jobs/{id}/result: canonical bytes, terminal jobs only."""
        ex = job.execution
        if ex.state == "failed":
            raise _HTTPError(409, ex.error or "execution failed",
                             state="failed", id=job.id)
        if ex.state != "done":
            raise _HTTPError(409, f"job {job.id} is {ex.state}; result "
                                  f"not available yet",
                             state=ex.state, id=job.id)
        try:
            text = self.store.read_result(job, fmt)
        except ServiceError as exc:
            raise _HTTPError(404 if "format" in str(exc) else 500,
                             str(exc)) from None
        ctype = ("application/x-ndjson" if fmt == "jsonl"
                 else "application/json")
        return 200, None, (text, ctype)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Optional[Dict[str, Any]], raw) -> None:
        """Write one response: a JSON payload or raw canonical bytes."""
        if raw is not None:
            text, ctype = raw
        else:
            text = json.dumps(payload, sort_keys=True) + "\n"
            ctype = "application/json"
        data = text.encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 413: "Payload Too Large",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error"}.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()


class ServiceThread:
    """A :class:`SweepService` running on a background event loop.

    The test suite, the benchmark harness, and anything else that wants
    a live server inside one process uses this: ``start()`` returns once
    the socket is bound (``service.port`` is then real, even for an
    ephemeral port 0), ``stop()`` tears the loop down cleanly.
    """

    def __init__(self, service: SweepService):
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceThread":
        """Bind and serve on a daemon thread; returns self when live."""
        started = threading.Event()
        failure: Dict[str, BaseException] = {}

        def run() -> None:
            """Thread body: own event loop, start(), run_forever()."""
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:  # surface bind errors to caller
                failure["error"] = exc
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.service.stop())
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        started.wait()
        if "error" in failure:
            raise ServiceError(f"service failed to start: "
                               f"{failure['error']}")
        return self

    @property
    def url(self) -> str:
        """The served base URL, e.g. ``http://127.0.0.1:43521``."""
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self) -> None:
        """Stop serving and join the background thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
