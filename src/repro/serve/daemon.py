"""The sync HTTP layer of the anonymization service.

Stdlib only (:mod:`http.server`); the daemon is a thin routing shell
around the subsystem objects that do the real work:

- :class:`~repro.serve.budget.BudgetStore` — per-tenant epsilon
  accounts, admission control, durable reserve/commit/release;
- :class:`~repro.serve.engines.EngineCache` — process-wide warm
  anonymizers shared across requests;
- :class:`~repro.serve.jobs.JobRunner` — the background worker pool
  jobs execute on.

Endpoints (all JSON unless noted)::

    GET  /v1/health            liveness + counters
    POST /v1/tenants           declare a tenant budget {tenant, budget}
    GET  /v1/tenants/<name>    account status (budget/spent/remaining)
    POST /v1/jobs              submit {tenant, dataset, spec} -> 202
    GET  /v1/jobs/<id>         poll job status
    GET  /v1/jobs/<id>/result  stream the anonymized CSV (text/csv)
    POST /v1/shutdown          graceful stop {drain: bool} -> 202

Refusal contract: errors are structured JSON objects with an
``error`` discriminator — ``budget-exhausted`` arrives with HTTP 429
and the tenant's requested/remaining/budget figures, so a client can
tell "never" (shrink the job) from "not yet" (wait for a new budget).
A malformed ``Content-Length`` gets 400 and one above
:data:`MAX_BODY_BYTES` gets 413, without reading the body; a body
that stalls for :data:`READ_TIMEOUT_S` gets 408.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

from repro.data.registry import DatasetRegistry
from repro.engine.pool import resolve_workers
from repro.serve.budget import (
    AccountError,
    BudgetExceededError,
    BudgetStore,
    UnknownTenantError,
)
from repro.serve.engines import EngineCache
from repro.serve.jobs import JobRunner

__all__ = ["ServeConfig", "Daemon"]

#: Result streaming granularity: bounded memory per response, few
#: syscalls per MiB.
CHUNK_BYTES = 64 * 1024

#: Largest request body the daemon reads. Job and tenant bodies are a
#: few hundred bytes (datasets travel by registry name or path), so a
#: longer declared body is refused with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit on one socket read or write. A
#: declared body that stalls this long is answered with 408; an idle
#: keep-alive connection is closed by ``http.server`` itself.
READ_TIMEOUT_S = 30.0


class _BodyRefused(Exception):
    """A request body the daemon will not (or could not) read: answered
    with ``status``/``payload`` and the connection closed, since the
    unread bytes would otherwise be parsed as the next request."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload["detail"])
        self.status = status
        self.payload = payload


@dataclass(frozen=True)
class ServeConfig:
    """Everything a daemon needs to boot, in one picklable bundle."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (see :attr:`Daemon.address`).
    port: int = 8088
    #: Directory holding the per-tenant ``*.account.jsonl`` files.
    budget_root: str | Path = "serve-budgets"
    #: Directory job results are spooled to before streaming.
    spool: str | Path = "serve-spool"
    #: Background job-runner pool width.
    job_workers: int = 2
    #: Local-stage pool size of every warm frequency engine.
    engine_workers: int | None = None
    #: Pass-2 fan-out for streaming-publish jobs (``0`` = per core;
    #: ``1`` realises spilled chunks in-process). Spills stage under
    #: the spool, one directory per job, cleaned with the publish.
    publish_workers: int | None = 1
    #: ``(tenant, budget)`` pairs declared at boot.
    tenants: tuple = field(default_factory=tuple)
    registry_root: str | Path | None = None

    def __post_init__(self) -> None:
        # Every job resolves these pool sizes again; refusing a bad one
        # here fails the boot instead of every job the daemon accepts.
        for name in ("engine_workers", "publish_workers"):
            try:
                resolve_workers(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


class Daemon:
    """Owns the store, cache, runner, and HTTP server lifecycles."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.store = BudgetStore(self.config.budget_root)
        for tenant, budget in self.config.tenants:
            self.store.declare(tenant, budget)
        #: Reservations orphaned by a previous crash, settled (charged
        #: in full) before this daemon admits anything new.
        self.recovered = self.store.recover()
        self.engines = EngineCache(workers=self.config.engine_workers)
        registry = None
        if self.config.registry_root is not None:
            registry = DatasetRegistry(self.config.registry_root)
        self.runner = JobRunner(
            self.store,
            self.engines,
            self.config.spool,
            workers=self.config.job_workers,
            registry=registry,
            publish_workers=self.config.publish_workers,
        )
        self._server: _ServeServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 to the real one."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns the address."""
        with self._lock:
            if self._closed:
                raise RuntimeError("daemon is closed and cannot restart")
            if self._server is not None:
                return self.address
            self._server = _ServeServer(
                (self.config.host, self.config.port), _Handler
            )
            self._server.app = self
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: close the listener, drain jobs, close engines.

        Idempotent and terminal. Safe to call from any thread except
        one of the server's own handler threads (handlers wanting to
        stop the daemon hand off to a fresh thread — see
        ``POST /v1/shutdown``).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            server, thread = self._server, self._thread
            self._server, self._thread = None, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join()
        self.runner.close(drain=drain)
        self.engines.close()
        self._stopped.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`shutdown` completes (the CLI's main
        loop; a ``POST /v1/shutdown`` unblocks it). True when stopped."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _ServeServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Back-reference set by :meth:`Daemon.start`.
    app: Daemon


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection: a response goes out as
    #: a header write then a body write, and with Nagle on the body
    #: waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    #: Socket timeout, applied by ``StreamRequestHandler.setup``.
    timeout = READ_TIMEOUT_S

    # -- plumbing ------------------------------------------------------------

    @property
    def app(self) -> Daemon:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Quiet by default; the daemon is not a terminal program."""

    def _send_json(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also sets self.close_connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BodyRefused(
                400,
                {
                    "error": "bad-request",
                    "detail": f"invalid Content-Length {declared!r}",
                },
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BodyRefused(
                413,
                {
                    "error": "payload-too-large",
                    "detail": f"request body of {length} bytes exceeds "
                    f"the {MAX_BODY_BYTES}-byte limit",
                    "limit": MAX_BODY_BYTES,
                },
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise _BodyRefused(
                408,
                {
                    "error": "request-timeout",
                    "detail": f"request body stalled for {self.timeout} s",
                },
            ) from None
        if not raw:
            return {}
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server's casing
        try:
            path = urlparse(self.path).path.rstrip("/")
            if path == "/v1/health":
                self._health()
            elif path.startswith("/v1/tenants/"):
                self._tenant_status(path.removeprefix("/v1/tenants/"))
            elif path.startswith("/v1/jobs/") and path.endswith("/result"):
                job_id = path.removeprefix("/v1/jobs/").removesuffix(
                    "/result"
                )
                self._job_result(job_id.strip("/"))
            elif path.startswith("/v1/jobs/"):
                self._job_status(path.removeprefix("/v1/jobs/"))
            else:
                self._send_json(404, {"error": "unknown-route", "path": path})
        except Exception as exc:  # noqa: BLE001 — a handler must answer
            self._send_json(
                500, {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server's casing
        try:
            path = urlparse(self.path).path.rstrip("/")
            if path == "/v1/jobs":
                self._submit()
            elif path == "/v1/tenants":
                self._declare()
            elif path == "/v1/shutdown":
                self._shutdown()
            else:
                # The body is never read, so close rather than parse
                # its bytes as the next request on this connection.
                self._send_json(
                    404, {"error": "unknown-route", "path": path}, close=True
                )
        except _BodyRefused as exc:
            self._send_json(exc.status, exc.payload, close=True)
        except json.JSONDecodeError as exc:
            self._send_json(
                400, {"error": "bad-request", "detail": f"invalid JSON: {exc}"}
            )
        except Exception as exc:  # noqa: BLE001 — a handler must answer
            self._send_json(
                500, {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            )

    # -- endpoints -----------------------------------------------------------

    def _health(self) -> None:
        app = self.app
        self._send_json(
            200,
            {
                "status": "ok",
                "jobs": len(app.runner.jobs()),
                "warm_engines": len(app.engines),
                "tenants": app.store.tenants(),
            },
        )

    def _declare(self) -> None:
        payload = self._read_json()
        tenant = payload.get("tenant")
        budget = payload.get("budget")
        if not isinstance(tenant, str) or not isinstance(
            budget, (int, float)
        ):
            self._send_json(
                400,
                {
                    "error": "bad-request",
                    "detail": "body must be {tenant: str, budget: number}",
                },
            )
            return
        try:
            account = self.app.store.declare(tenant, float(budget))
        except (AccountError, ValueError) as exc:
            self._send_json(409, {"error": "conflict", "detail": str(exc)})
            return
        self._send_json(200, account.status())

    def _tenant_status(self, tenant: str) -> None:
        try:
            account = self.app.store.account(tenant)
        except UnknownTenantError:
            self._send_json(404, {"error": "unknown-tenant", "tenant": tenant})
            return
        self._send_json(200, account.status())

    def _submit(self) -> None:
        payload = self._read_json()
        tenant = payload.get("tenant")
        dataset = payload.get("dataset")
        spec = payload.get("spec")
        publish = payload.get("publish")
        if (
            not isinstance(tenant, str)
            or not isinstance(dataset, str)
            or not (publish is None or isinstance(publish, dict))
        ):
            self._send_json(
                400,
                {
                    "error": "bad-request",
                    "detail": (
                        "body must be {tenant: str, dataset: str, "
                        "spec: object|str, publish?: object}"
                    ),
                },
            )
            return
        try:
            job = self.app.runner.submit(tenant, spec, dataset, publish=publish)
        except BudgetExceededError as exc:
            self._send_json(429, exc.to_dict())
        except UnknownTenantError:
            self._send_json(404, {"error": "unknown-tenant", "tenant": tenant})
        except RuntimeError as exc:
            self._send_json(503, {"error": "shutting-down", "detail": str(exc)})
        except (ValueError, KeyError, TypeError, FileNotFoundError) as exc:
            self._send_json(400, {"error": "bad-request", "detail": str(exc)})
        else:
            self._send_json(202, job.to_dict())

    def _job_status(self, job_id: str) -> None:
        job = self.app.runner.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown-job", "id": job_id})
            return
        self._send_json(200, job.to_dict())

    def _job_result(self, job_id: str) -> None:
        job = self.app.runner.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown-job", "id": job_id})
            return
        snapshot = job.to_dict()
        if snapshot["state"] == "failed":
            self._send_json(
                409,
                {
                    "error": "job-failed",
                    "id": job_id,
                    "detail": snapshot["error"],
                },
            )
            return
        if snapshot["state"] != "done" or job.result_path is None:
            self._send_json(
                409,
                {
                    "error": "not-ready",
                    "id": job_id,
                    "state": snapshot["state"],
                },
            )
            return
        size = job.result_path.stat().st_size
        self.send_response(200)
        self.send_header("Content-Type", "text/csv")
        self.send_header("Content-Length", str(size))
        self.end_headers()
        with job.result_path.open("rb") as handle:
            while True:
                chunk = handle.read(CHUNK_BYTES)
                if not chunk:
                    break
                self.wfile.write(chunk)

    def _shutdown(self) -> None:
        payload = self._read_json()
        drain = bool(payload.get("drain", True))
        app = self.app
        # Answer first, then stop from a fresh thread: Daemon.shutdown
        # joins the serve loop, which waits for this very handler.
        self._send_json(202, {"status": "stopping", "drain": drain})
        threading.Thread(
            target=app.shutdown,
            kwargs={"drain": drain},
            name="repro-serve-shutdown",
            daemon=True,
        ).start()
