"""Stdlib-only HTTP front end for the serving layer.

:class:`ModelServer` wraps a :class:`~repro.serve.registry.ModelRegistry`
(or a :class:`~repro.serve.cluster.service.ClusterService`, which answers
to the same calls) in a :class:`~http.server.ThreadingHTTPServer` (one handler thread per
connection, no third-party dependencies) exposing:

* ``POST /v1/predict`` — JSON body with one CHW ``"image"`` (or a list
  under ``"images"``), optional ``"model"`` (required only when several
  models are registered) and ``"deadline_ms"``.  With ``Content-Type:
  application/x-npy`` the body is instead one NumPy ``.npy`` array — CHW
  for one image, NCHW for a batch — and ``model`` and ``deadline_ms`` ride
  in the query string (``/v1/predict?model=net4&deadline_ms=50``).  The body is parsed with
  ``allow_pickle=False``, so object or pickled payloads are refused (400).
  Either way the answer is JSON logits and argmax predictions; float64
  logits survive the JSON round-trip exactly (``repr``-based float
  serialization), which the parity load test relies on.
* ``GET /healthz`` — liveness plus the registered model names.
* ``GET /metrics`` — JSON snapshot of every model's serving metrics.

Every accepted socket runs with ``TCP_NODELAY``: a response leaves in two
writes (headers, then body), and with Nagle's algorithm on the body would
wait for the client's delayed ACK — about 40 ms per request on Linux.

Error mapping is explicit: malformed requests (including an image that is
not CHW or not the model's shape) → 400, unknown model → 404, shed at the
queue bound or by an open circuit breaker → **503** (with
``Retry-After``), deadline expired → 504, engine failure → 500.

Shutdown is drain-then-stop: the listener stops accepting, queued and
in-flight requests complete through the batchers, handler threads finish
writing their responses, and only then does the socket close — no future is
ever dropped (``stop(drain=False)`` is the fast path that fails queued
requests with 503-style errors instead).
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.parse
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServerClosedError,
    ShapeError,
    UnknownModelError,
)
from repro.serve.config import ServerConfig
from repro.serve.registry import ModelRegistry
from repro.train.metrics import Counter
from repro.utils.logging import get_logger
from repro.version import __version__

__all__ = ["ModelServer"]

logger = get_logger("serve.http")

_MAX_BODY_BYTES = 64 * 1024 * 1024
_NPY_CONTENT_TYPE = "application/x-npy"
#: JSON fields that an npy request carries in its query string instead.
_QUERY_FIELDS = ("model", "deadline_ms")


class _RequestError(Exception):
    """Internal: carries an HTTP status + message to the response writer."""

    def __init__(self, status: int, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Idle keep-alive connections are dropped after this many seconds, so
    # abandoned sockets cannot pin handler threads forever.
    timeout = 60.0
    # TCP_NODELAY on every accepted socket (see module docstring).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        return self.server.registry

    @property
    def config(self) -> ServerConfig:
        return self.server.config

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, payload: dict, headers: "dict[str, str] | None" = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _RequestError(411, "Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise _RequestError(400, f"bad Content-Length {length!r}") from None
        if not 0 < length <= _MAX_BODY_BYTES:
            raise _RequestError(413, f"body must be 1..{_MAX_BODY_BYTES} bytes, got {length}")
        return self.rfile.read(length)

    def _json_payload(self, body: bytes) -> dict:
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _RequestError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "body must be a JSON object")
        return payload

    def _npy_payload(self, body: bytes, query: str) -> dict:
        """Turn an npy body plus its query string into a JSON-shaped payload."""
        try:
            array = np.load(io.BytesIO(body), allow_pickle=False)
        # MemoryError: a header claiming far more data than the body holds.
        except (ValueError, EOFError, MemoryError) as exc:
            raise _RequestError(400, f"body is not a valid .npy array: {exc}") from None
        if not isinstance(array, np.ndarray):  # an .npz archive
            array.close()
            raise _RequestError(400, "body must be a single .npy array, not an archive")
        if array.dtype.kind not in "iuf":
            raise _RequestError(400, f"array dtype must be numeric, got {array.dtype}")
        if array.ndim not in (3, 4):
            raise _RequestError(
                400, f"array must be CHW (one image) or NCHW (a batch), got shape {array.shape}"
            )
        array = np.ascontiguousarray(array, dtype=np.float64)
        payload: dict = {"image": array} if array.ndim == 3 else {"images": list(array)}
        for key, value in urllib.parse.parse_qsl(query, keep_blank_values=True):
            if key in _QUERY_FIELDS:
                payload[key] = value
        if "deadline_ms" in payload:
            try:
                payload["deadline_ms"] = float(payload["deadline_ms"])
            except ValueError:
                raise _RequestError(400, '"deadline_ms" must be a positive number') from None
        return payload

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:
        with self.server.track_request():
            self._get()

    def do_POST(self) -> None:
        with self.server.track_request():
            self._post()

    def _get(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok", "models": self.registry.names()})
        elif self.path == "/metrics":
            self._send_json(
                200,
                {
                    "server": {
                        "uptime_s": time.monotonic() - self.server.started_at,
                        "http_requests": self.server.http_requests.value,
                        "drain_timed_out": self.server.drain_timed_out.value,
                        "version": __version__,
                    },
                    "models": self.registry.metrics_snapshot(),
                },
            )
        elif self.path == "/":
            self._send_json(
                200,
                {
                    "service": "repro-serve",
                    "endpoints": ["POST /v1/predict", "GET /healthz", "GET /metrics"],
                },
            )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _post(self) -> None:
        url = urllib.parse.urlsplit(self.path)
        if url.path != "/v1/predict":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = self._read_body()
            if self.headers.get_content_type() == _NPY_CONTENT_TYPE:
                payload = self._npy_payload(body, url.query)
            else:
                payload = self._json_payload(body)
            response = self._predict(payload)
        except _RequestError as exc:
            self._send_json(exc.status, exc.payload)
        except CircuitOpenError as exc:
            retry_after = max(1, int(-(-getattr(exc, "retry_after_s", 1.0) // 1)))
            self._send_json(
                503,
                {"error": str(exc), "breaker_open": True},
                headers={"Retry-After": str(retry_after)},
            )
        except QueueFullError as exc:
            self._send_json(503, {"error": str(exc), "shed": True}, headers={"Retry-After": "1"})
        except ServerClosedError as exc:
            self._send_json(503, {"error": str(exc), "shed": True})
        except DeadlineExceededError as exc:
            self._send_json(504, {"error": str(exc)})
        except UnknownModelError as exc:
            self._send_json(404, {"error": str(exc)})
        except (ShapeError, ConfigurationError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except ReproError as exc:
            logger.exception("predict failed")
            self._send_json(500, {"error": str(exc)})
        else:
            self._send_json(200, response)

    # -- prediction ------------------------------------------------------------

    def _predict(self, payload: dict) -> dict:
        name = payload.get("model")
        if name is not None and not isinstance(name, str):
            raise _RequestError(400, '"model" must be a string')
        single = "image" in payload
        if single == ("images" in payload):
            raise _RequestError(400, 'body must carry exactly one of "image" or "images"')
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise _RequestError(400, '"deadline_ms" must be a positive number')
        deadline_s = None if deadline_ms is None else deadline_ms / 1000.0

        raw = [payload["image"]] if single else payload["images"]
        if not isinstance(raw, list) or (not single and not raw):
            raise _RequestError(400, '"images" must be a non-empty list of CHW arrays')
        entry = self.registry.get(name)
        try:
            images = [np.asarray(img, dtype=np.float64) for img in raw]
        except (ValueError, TypeError) as exc:
            raise _RequestError(400, f"could not parse image array: {exc}") from None

        # Submit every image before waiting on any, so one HTTP batch can be
        # coalesced into one engine batch by the micro-batcher.
        futures = [entry.batcher.submit(img, deadline_s=deadline_s) for img in images]
        timeout = self.config.request_timeout_s
        logits = []
        try:
            for future in futures:
                logits.append(future.result(timeout=timeout))
        except FutureTimeoutError:
            raise DeadlineExceededError(
                f"no result within the server's {timeout:g}s request timeout"
            ) from None
        predictions = [int(np.argmax(row)) for row in logits]
        out: dict = {"model": entry.name}
        if single:
            out["logits"] = logits[0].tolist()
            out["prediction"] = predictions[0]
        else:
            out["logits"] = [row.tolist() for row in logits]
            out["predictions"] = predictions
        return out


class _HTTPServer(ThreadingHTTPServer):
    # Handler threads are daemons and server_close() does not join them:
    # idle keep-alive connections would otherwise stall shutdown.  Graceful
    # stop instead waits on the explicit in-flight request counter below, so
    # every *accepted* request still gets its response written.
    daemon_threads = True
    block_on_close = False
    # Deep accept backlog: load tests legitimately burst dozens of
    # simultaneous connects (the default of 5 sends connection resets).
    request_queue_size = 128

    def __init__(
        self,
        address,
        registry: ModelRegistry,
        config: ServerConfig,
        drain_timed_out: "Counter | None" = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.registry = registry
        self.config = config
        self.http_requests = Counter()
        self.drain_timed_out = drain_timed_out if drain_timed_out is not None else Counter()
        self.started_at = time.monotonic()
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    def track_request(self):
        """Context manager counting one in-flight HTTP request."""
        return _TrackedRequest(self)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no HTTP request is being handled (bounded)."""
        deadline = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
        return True


class _TrackedRequest:
    def __init__(self, server: _HTTPServer) -> None:
        self._server = server

    def __enter__(self) -> None:
        self._server.http_requests.increment()
        with self._server._inflight_cond:
            self._server._inflight += 1

    def __exit__(self, *exc) -> None:
        with self._server._inflight_cond:
            self._server._inflight -= 1
            self._server._inflight_cond.notify_all()


class ModelServer:
    """The serving front end: HTTP listener + registry lifecycle.

    Usage::

        registry = ModelRegistry()
        registry.register("net4", model)
        with ModelServer(registry, ServerConfig(port=0)) as server:
            print(server.url)     # e.g. http://127.0.0.1:40913
            ...
        # exiting the context drains and stops

    ``start``/``stop`` may also be called explicitly; ``stop(drain=True)``
    is the graceful path (see module docstring).
    """

    def __init__(self, registry: ModelRegistry, config: "ServerConfig | None" = None) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        self._httpd: "_HTTPServer | None" = None
        self._thread: "threading.Thread | None" = None
        #: Times a graceful stop hit its drain deadline with handler threads
        #: still running (surfaced in ``/metrics`` under ``server``).
        self.drain_timed_out = Counter()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ModelServer":
        if self._httpd is not None:
            return self
        self.registry.start()
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port),
            self.registry,
            self.config,
            drain_timed_out=self.drain_timed_out,
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-listener",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving %d model(s) on %s", len(self.registry), self.url)
        return self

    def stop(self, drain: bool = True) -> None:
        """Drain-then-stop by default; idempotent.

        The whole graceful sequence shares **one** ``drain_timeout_s``
        deadline — a wedged handler thread cannot stretch shutdown to the
        sum of per-stage timeouts.  Hitting the deadline with handlers
        still running increments :attr:`drain_timed_out` (surfaced in
        ``/metrics``) and shutdown proceeds anyway.
        """
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        deadline = time.monotonic() + self.config.drain_timeout_s
        httpd.shutdown()  # 1. stop accepting new connections
        # 2. drain queued/in-flight work through the batchers (bounded by
        # what is left of the shared deadline).
        self.registry.stop(drain=drain, timeout=max(0.0, deadline - time.monotonic()))
        timed_out = False
        if drain:
            # 3. let handlers finish writing responses for everything the
            # drain just resolved (idle keep-alive sockets don't count).
            timed_out = not httpd.wait_idle(max(0.0, deadline - time.monotonic()))
        httpd.server_close()  # 4. release the listening socket
        if self._thread is not None:
            self._thread.join(max(0.05, deadline - time.monotonic()))
            self._thread = None
        if timed_out:
            self.drain_timed_out.increment()
            logger.warning(
                "drain deadline (%gs) hit with handler threads still running",
                self.config.drain_timeout_s,
            )
        logger.info("server stopped (drain=%s)", drain)

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The actually bound port (meaningful with ``port=0`` configs)."""
        if self._httpd is None:
            raise ServerClosedError("server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"
