"""Stdlib HTTP transport for :class:`~repro.service.api.SchedulerService`.

A :class:`ServiceServer` binds a ``ThreadingHTTPServer`` (one handler
thread per in-flight request, stdlib only — setup.py stays numpy/scipy)
in front of a service and serves the JSON API:

===========================  ===================================================
``POST /v1/jobs``            Submit a job (tenant from the ``X-Tenant`` header)
``GET /v1/jobs/{id}``        Job status (tenant-isolated; 404 across tenants)
``DELETE /v1/jobs/{id}``     Cancel (the job finishes now, through the host's
                             cancel hook)
``GET /v1/tenants/{t}``      Usage vs quota for one tenant
``GET /healthz``             Liveness + host/policy/backend identity (503
                             unless the status is ``ok``)
``GET /metrics``             Prometheus text exposition (see
                             ``docs/operating.md`` for the series reference)
===========================  ===================================================

Error envelope: ``{"error": "..."}`` with the status code; quota breaches
are ``429`` with a ``Retry-After`` header.  The tenant header defaults to
``default``; job ids are ``tenant/name``, so they contain exactly one
``/`` and the path router splits on the *first* segment only.

The server is deliberately boring: no framework, no async, no state of
its own — every request delegates to the service object, which is what
``tests/test_service.py`` drives both directly and over HTTP.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import unquote, urlsplit

from .api import SchedulerService, ServiceError
from .metrics_export import CONTENT_TYPE, render_metrics
from .tenants import DEFAULT_TENANT

__all__ = ["ServiceServer"]

logger = logging.getLogger("repro.service")

#: Request bodies above this size are rejected (the API takes tiny JSON).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the bound SchedulerService."""

    server_version = "repro-scheduler/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SchedulerService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing -------------------------------------------------------

    def _tenant(self) -> str:
        return self.headers.get("X-Tenant", DEFAULT_TENANT).strip() or DEFAULT_TENANT

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError(400, "request body must be JSON")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(400, f"malformed JSON body: {exc}") from exc

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        retry_after: Optional[float] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(math.ceil(retry_after), 1)))
        self.end_headers()
        # Counted before the body goes out: a client that scrapes /metrics
        # as soon as its response arrives sees its own request.
        self.service.observe_http(self.command, status)
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object, **kwargs) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, **kwargs)

    def _dispatch(self) -> None:
        try:
            self._route()
        except ServiceError as exc:
            self._send_json(
                exc.status, {"error": exc.message}, retry_after=exc.retry_after
            )
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception:  # pragma: no cover - defensive 500
            logger.exception("unhandled error serving %s %s", self.command, self.path)
            try:
                self._send_json(500, {"error": "internal server error"})
            except OSError:
                pass

    do_GET = do_POST = do_DELETE = _dispatch

    # -- routing --------------------------------------------------------

    def _route(self) -> None:
        method = self.command
        path = unquote(urlsplit(self.path).path).rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            health = self.service.healthz()
            self._send_json(200 if health["status"] == "ok" else 503, health)
            return
        if method == "GET" and path == "/metrics":
            page = render_metrics(self.service).encode("utf-8")
            self._send(200, page, content_type=CONTENT_TYPE)
            return
        if path == "/v1/jobs" and method == "POST":
            payload = self._read_json()
            self._send_json(201, self.service.submit(self._tenant(), payload))
            return
        job_id = _subpath(path, "/v1/jobs/")
        if job_id is not None:
            if method == "GET":
                self._send_json(200, self.service.job_status(self._tenant(), job_id))
                return
            if method == "DELETE":
                self._send_json(200, self.service.cancel(self._tenant(), job_id))
                return
        tenant = _subpath(path, "/v1/tenants/")
        if tenant is not None and "/" not in tenant and method == "GET":
            self._send_json(200, self.service.tenant_usage(tenant))
            return
        raise ServiceError(404, f"no route for {method} {path}")


def _subpath(path: str, prefix: str) -> Optional[str]:
    if path.startswith(prefix) and len(path) > len(prefix):
        return path[len(prefix) :]
    return None


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: The stdlib default listen backlog (5) drops connections under
    #: bursty many-client load (the bench's 32-thread submit storm);
    #: raise it so loopback bursts queue instead of getting RST.
    request_queue_size = 128


class ServiceServer:
    """Owns the listening socket and the serving thread.

    Usage::

        host = PolicyHost(policy, backend)
        host.start()
        server = ServiceServer(SchedulerService(host))
        server.start()                     # binds 127.0.0.1:<ephemeral>
        print(server.url)                  # e.g. http://127.0.0.1:40123
        ...
        server.close()

    ``port=0`` (default) binds an ephemeral port — read :attr:`port`
    after :meth:`start`.  The server thread is a daemon; :meth:`close`
    shuts the socket down and joins it.
    """

    def __init__(
        self,
        service: SchedulerService,
        address: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._address = (address, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self._httpd = _Server(self._address, _Handler)
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="scheduler-service",
            daemon=True,
        )
        self._thread.start()
        logger.info("scheduler service listening on %s", self.url)
        return self

    @property
    def bound(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.bound[1]

    @property
    def url(self) -> str:
        address, port = self.bound
        return f"http://{address}:{port}"

    def close(self) -> None:
        """Stop serving (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
