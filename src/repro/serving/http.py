"""Stdlib JSON/HTTP front-end for :class:`PredictionService`.

Endpoints:

* ``POST /predict`` — body is a :class:`PredictRequest` JSON object;
* ``POST /predict/delta`` — a :class:`DeltaRequest`: base design plus
  an ECO edit list; answered incrementally from the live delta session;
* ``GET /models``   — the registry catalogue (loaded state, versions);
* ``GET /healthz``  — liveness, the latency SLO and prediction quality;
* ``GET /stats``    — counts, cache hit rates, p50/p99 latency, batching;
* ``GET /metrics``  — the same facts in Prometheus text exposition
  format (scrape target), straight from the service's metrics registry.

Every ``/predict`` is the root of a trace: the handler mints a
``trace_id`` (or adopts a caller-supplied ``X-Trace-Id`` header), opens
the ``http.predict`` root span under it, and returns the id in both the
JSON body and the ``X-Trace-Id`` response header, so ``repro trace
--export`` can pull one request's spans out of a ``REPRO_TRACE`` sink.

Built on ``http.server.ThreadingHTTPServer`` so each connection is
handled on its own thread — concurrency and batching come from the
service core, not the transport.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import get_logger, get_tracer, mint_trace_id
from .service import PredictionService, RequestError

_log = get_logger("repro.serving.http")

__all__ = ["make_server", "ServingServer"]

_MAX_BODY_BYTES = 16 * 1024 * 1024
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{8,32}$")


def _request_trace_id(headers):
    """Adopt a well-formed caller trace id, else mint a fresh one."""
    supplied = (headers.get("X-Trace-Id") or "").strip().lower()
    if _TRACE_ID_RE.match(supplied):
        return supplied
    return mint_trace_id()


def _make_handler(service, quiet=True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer each response and send it whole: the handler loop
        # flushes once after the method returns.  TCP_NODELAY (which the
        # stdlib pairs with a buffered wfile) covers responses larger
        # than the buffer: with Nagle on, a keep-alive connection would
        # hold a trailing send until the client's delayed ACK of the
        # previous one, ~40 ms per response.
        wbufsize = -1
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send_json(self, status, payload, headers=None):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status, text, content_type):
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                self._send_text(
                    200, service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8")
                return
            routes = {"/healthz": service.healthz,
                      "/stats": service.stats,
                      "/models": service.models}
            handler = routes.get(path)
            if handler is None:
                self._send_json(404, {"error": f"no route {self.path}"})
                return
            self._send_json(200, handler())

        def do_POST(self):
            path = self.path.split("?", 1)[0]
            routes = {"/predict": ("http.predict", service.predict),
                      "/predict/delta": ("http.predict_delta",
                                         service.predict_delta)}
            route = routes.get(path)
            if route is None:
                self._send_json(404, {"error": f"no route {self.path}"})
                return
            span_name, endpoint = route
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                self._send_json(400, {"error": "bad Content-Length"})
                return
            if length <= 0 or length > _MAX_BODY_BYTES:
                self._send_json(400, {"error": "missing or oversized body"})
                return
            try:
                payload = json.loads(self.rfile.read(length))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self._send_json(400, {"error": f"invalid JSON: {exc}"})
                return
            trace_id = _request_trace_id(self.headers)
            headers = {"X-Trace-Id": trace_id}
            try:
                # Root span of the request's trace: serve.predict and
                # everything below it nest under this trace_id.
                with get_tracer().span(span_name,
                                       trace_id=trace_id) as sp:
                    sp.set(path=path)
                    response = endpoint(payload)
            except RequestError as exc:
                self._send_json(exc.status, {"error": str(exc),
                                             "trace_id": trace_id},
                                headers=headers)
                return
            except Exception as exc:   # noqa: BLE001 — last-resort 500
                _log.error("internal_error", path=self.path,
                           error=str(exc))
                self._send_json(500, {"error": f"internal error: {exc}",
                                      "trace_id": trace_id},
                                headers=headers)
                return
            body = response.to_dict()
            body["trace_id"] = trace_id
            self._send_json(200, body, headers=headers)

    return Handler


def make_server(service, host="127.0.0.1", port=8080, quiet=True):
    """A ready-to-run ``ThreadingHTTPServer`` bound to ``host:port``.

    ``port=0`` picks a free ephemeral port (see ``server_address``).
    """
    # The stdlib default accept backlog (request_queue_size=5) drops
    # connections with ECONNRESET when hundreds of loadgen clients
    # burst-connect; listen deeper so every connection gets accepted
    # and waits its turn on its own handler thread.
    server_cls = type("_Server", (ThreadingHTTPServer,),
                      {"request_queue_size": 256})
    server = server_cls((host, port), _make_handler(service, quiet=quiet))
    server.daemon_threads = True
    return server


class ServingServer:
    """Owns a service + HTTP server pair; start/stop for embedding.

    Used by ``repro bench-serve``, the load-generator tests, and any
    caller that wants a warm server inside the current process.
    """

    def __init__(self, service=None, host="127.0.0.1", port=0, quiet=True):
        self.service = service or PredictionService()
        self._server = make_server(self.service, host=host, port=port,
                                   quiet=quiet)
        self._thread = None

    @property
    def address(self):
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def url(self):
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serving-http",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
