"""The daemon's localhost observability endpoint.

A tiny threaded HTTP server (stdlib ``http.server``) exposing:

- ``GET /metrics``       — Prometheus text format 0.0.4;
- ``GET /metrics.json``  — the registry snapshot as JSON;
- ``GET /top.json``      — per-container live table (what ``repro top``
  renders), produced by the ``top_source`` callback;
- ``GET /flight.jsonl``  — a live flight-recorder dump (versioned JSONL,
  what ``repro dump`` fetches), produced by the ``flight_source`` callback;
- ``GET /healthz``       — liveness probe (``{"status": "ok"}``).

Bound to loopback by default — this endpoint is an operator surface, not
a public API; anything beyond localhost should front it with a real
exporter.  The server runs on daemon threads and is owned by the
scheduler daemon (started in ``SchedulerDaemon.start``, stopped in
``kill``), so a crash-simulation kill drops it exactly like the control
socket.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.exporters import render_prometheus, snapshot_json
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Threaded HTTP server around one registry (and an optional top feed).

    Args:
        registry: the metrics registry to serve (default: process-global).
        host: bind address (loopback by default; see module docstring).
        port: TCP port; 0 picks an ephemeral one, published as :attr:`port`.
        top_source: zero-arg callable returning the JSON-able per-container
            rows served at ``/top.json`` (absent -> endpoint returns 404).
        flight_source: zero-arg callable returning the flight-recorder dump
            as JSONL text, served at ``/flight.jsonl`` (absent -> 404).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        top_source: Callable[[], Any] | None = None,
        flight_source: Callable[[], str] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.host = host
        self.port = port
        self.top_source = top_source
        self.flight_source = flight_source
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        #: Requests served per path (self-observability).
        self.requests_served: dict[str, int] = {}
        self._requests_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:  # silence stderr spam
                pass

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                owner._handle(self)

        server = ThreadingHTTPServer((self.host, self.port), Handler)
        server.daemon_threads = True
        self.port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"convgpu-metrics:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ---------------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        with self._requests_lock:
            self.requests_served[path] = self.requests_served.get(path, 0) + 1
        try:
            if path == "/metrics":
                body = render_prometheus(self.registry).encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            elif path == "/metrics.json":
                body = snapshot_json(self.registry).encode("utf-8")
                content_type = "application/json"
            elif path == "/top.json":
                if self.top_source is None:
                    self._send(request, 404, b'{"error":"no top source"}',
                               "application/json")
                    return
                body = json.dumps(self.top_source(), default=repr).encode("utf-8")
                content_type = "application/json"
            elif path == "/flight.jsonl":
                if self.flight_source is None:
                    self._send(request, 404, b'{"error":"no flight source"}',
                               "application/json")
                    return
                body = self.flight_source().encode("utf-8")
                content_type = "application/x-ndjson"
            elif path == "/healthz":
                body = b'{"status":"ok"}'
                content_type = "application/json"
            else:
                self._send(request, 404, b'{"error":"not found"}',
                           "application/json")
                return
        except Exception as exc:
            detail = json.dumps({"error": str(exc)}).encode("utf-8")
            self._send(request, 500, detail, "application/json")
            return
        self._send(request, 200, body, content_type)

    @staticmethod
    def _send(
        request: BaseHTTPRequestHandler, code: int, body: bytes, content_type: str
    ) -> None:
        try:
            request.send_response(code)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # scraper went away mid-reply; nothing to clean up
