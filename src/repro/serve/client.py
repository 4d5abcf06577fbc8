"""Minimal stdlib HTTP client for the serving front end.

Used by the serving tests, benchmark and example so they all speak the wire
protocol the same way; applications are equally well served by ``curl`` or
any HTTP library.  :class:`PredictClient` is thread-safe — each thread gets
its own persistent keep-alive connection, so concurrent load generators can
share one instance without paying TCP setup per request.

Images go out as binary NumPy ``.npy`` bodies (``Content-Type:
application/x-npy``; one CHW array for :meth:`PredictClient.predict`, the
images stacked into NCHW for :meth:`PredictClient.predict_batch`) with
``model`` and ``deadline_ms`` in the query string — a 3×16×16 float64 image
is 6.3 KB on the wire instead of ~16 KB of JSON text, and the server skips
parsing thousands of Python floats.  Responses stay JSON: float64 logits
round-trip exactly through ``repr``.

Transport failures — a connect refused, an idle-closed keep-alive, and
equally a :class:`ConnectionResetError`/:class:`BrokenPipeError` that
strikes *mid-response* (headers in, body torn off by a worker crash or a
server restart) — are retried with exponential backoff plus jitter, bounded
by ``max_retries`` and by the request's deadline when one is given.  Every
endpoint is a pure function of its request, so retrying is always safe even
after a partial response.  Exhausted retries surface as
:class:`~repro.errors.RetriesExhaustedError` and a deadline that cannot
accommodate another attempt as
:class:`~repro.errors.DeadlineExceededError` — typed errors, never raw
socket exceptions.

Tail-latency hedging is available via ``hedge_after_s``: when an attempt
has not answered within that budget, a duplicate request races it on a
second connection and the first response wins — the classic p99 defence
for a server that may be mid-restart behind one of its workers.
"""

from __future__ import annotations

import http.client
import io
import json
import queue
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DeadlineExceededError, RetriesExhaustedError

__all__ = ["PredictClient", "PredictResult", "ServeHTTPError"]

#: Transport-level failures that are safe to retry.  ``ConnectionError``
#: covers ``ConnectionResetError``/``BrokenPipeError`` raised mid-response
#: (between ``getresponse()`` and a complete ``read()``) as well as at
#: connect time; ``http.client.HTTPException`` covers truncated/invalid
#: responses (e.g. ``IncompleteRead``) from a dying server.
_RETRYABLE = (http.client.HTTPException, ConnectionError, TimeoutError, OSError)


class ServeHTTPError(Exception):
    """Non-2xx response, with the parsed JSON error payload attached."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload

    @property
    def shed(self) -> bool:
        """True when the server explicitly load-shed this request (503)."""
        return self.status == 503 and bool(self.payload.get("shed"))


@dataclass
class PredictResult:
    model: str
    logits: np.ndarray  # (C,) single / (N, C) batch
    predictions: "int | list[int]"


class PredictClient:
    """Talk to a :class:`~repro.serve.http.ModelServer` at ``base_url``.

    Connections are keep-alive and thread-local: the first call from each
    thread opens one, later calls reuse it, and a connection the server has
    since closed is transparently reopened on the next retry.

    Args:
        base_url: ``http://host:port`` of the server.
        timeout_s: Socket timeout per attempt.
        max_retries: Transport-failure retries after the first attempt.
        backoff_base_s: First retry delay; doubles per retry.
        backoff_max_s: Delay ceiling.
        backoff_jitter: Each delay is scaled by ``1 + jitter * U[0, 1)`` so
            synchronized clients don't retry in lockstep.
        retry_seed: Seed for the jitter stream (deterministic tests).
        hedge_after_s: Tail-latency hedge budget: when a request has not
            answered within this many seconds, a duplicate is raced on a
            second connection and the first response wins (``None``
            disables; :attr:`hedges_fired` counts firings).  Hedge attempts
            run on short-lived threads with their own connections, so
            enabling hedging trades some keep-alive reuse for p99.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_jitter: float = 0.25,
        retry_seed: "int | None" = None,
        hedge_after_s: "float | None" = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if backoff_base_s < 0 or backoff_max_s < 0 or backoff_jitter < 0:
            raise ValueError("backoff parameters must be non-negative")
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter = backoff_jitter
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"base_url must look like http://host:port, got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be positive, got {hedge_after_s}")
        self.hedge_after_s = hedge_after_s
        self._local = threading.local()
        self._jitter_rng = random.Random(retry_seed)
        self._stats_lock = threading.Lock()
        #: Hedge requests actually fired (attempt outlived ``hedge_after_s``).
        self.hedges_fired = 0
        #: Test seam: called before every connection attempt; raising one of
        #: the retryable transport errors simulates a dropped connection
        #: (see :class:`repro.testing.faults.ConnectionDropFault`).
        self.pre_request_hook: "Callable[[], None] | None" = None
        #: Test seam: called after response headers arrive, before the body
        #: is read; raising ``ConnectionResetError``/``BrokenPipeError``
        #: simulates a connection torn down mid-response.
        self.mid_response_hook: "Callable[[], None] | None" = None

    # -- connection management -------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout_s)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's keep-alive connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- raw calls -------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        delay = min(self.backoff_max_s, self.backoff_base_s * (2.0 ** attempt))
        return delay * (1.0 + self.backoff_jitter * self._jitter_rng.random())

    def _request(
        self, path: str, body: "np.ndarray | dict | None" = None, deadline_s: "float | None" = None
    ) -> dict:
        """GET ``path`` when ``body`` is None, else POST it: an ndarray as a
        ``.npy`` body, anything else as JSON."""
        if body is None:
            data, headers = None, {}
        elif isinstance(body, np.ndarray):
            buf = io.BytesIO()
            np.save(buf, body, allow_pickle=False)
            data, headers = buf.getvalue(), {"Content-Type": "application/x-npy"}
        else:
            data, headers = json.dumps(body).encode("utf-8"), {"Content-Type": "application/json"}
        if self.hedge_after_s is None:
            return self._attempt_loop(path, data, headers, deadline_s)
        return self._hedged_request(path, data, headers, deadline_s)

    def _attempt_loop(
        self,
        path: str,
        data: "bytes | None",
        headers: "dict[str, str]",
        deadline_s: "float | None",
        close_after: bool = False,
    ) -> dict:
        method = "GET" if data is None else "POST"
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        try:
            for attempt in range(self.max_retries + 1):
                try:
                    if self.pre_request_hook is not None:
                        self.pre_request_hook()
                    conn = self._connection()
                    conn.request(method, path, body=data, headers=headers)
                    resp = conn.getresponse()
                    if self.mid_response_hook is not None:
                        self.mid_response_hook()
                    raw = resp.read()
                    break
                except _RETRYABLE as exc:
                    # The connection is in an unknown state — whether the drop
                    # struck before the request or mid-response — so close it
                    # and let the next attempt start from a fresh handshake.
                    self.close()
                    if attempt >= self.max_retries:
                        raise RetriesExhaustedError(
                            f"{method} {path} failed after {attempt + 1} attempt(s): {exc}"
                        ) from exc
                    delay = self._backoff_delay(attempt)
                    if deadline is not None and time.monotonic() + delay >= deadline:
                        raise DeadlineExceededError(
                            f"{method} {path}: deadline leaves no room for retry "
                            f"{attempt + 2} (backoff {delay:.3f}s); last error: {exc}"
                        ) from exc
                    time.sleep(delay)
        finally:
            if close_after:  # hedge threads are short-lived: no conn to keep warm
                self.close()
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": raw.decode("utf-8", "replace") or f"HTTP {resp.status}"}
        if resp.status >= 400:
            raise ServeHTTPError(resp.status, payload)
        return payload

    def _hedged_request(
        self, path: str, data: "bytes | None", headers: "dict[str, str]",
        deadline_s: "float | None",
    ) -> dict:
        """Race a duplicate request once the first exceeds ``hedge_after_s``.

        Both attempts run their full retry loops on their own connections;
        the first to finish wins.  A finisher that *failed* only surfaces
        if no other attempt is still outstanding to save the request.
        """
        results: "queue.SimpleQueue[tuple[str, BaseException | None, dict | None]]" = (
            queue.SimpleQueue()
        )

        def run(tag: str) -> None:
            try:
                results.put((tag, None, self._attempt_loop(
                    path, data, headers, deadline_s, close_after=True)))
            except BaseException as exc:  # delivered to the caller below
                results.put((tag, exc, None))

        threading.Thread(target=run, args=("primary",), daemon=True, name="predict-primary").start()
        outstanding = 1
        first_error: "BaseException | None" = None
        try:
            tag, error, payload = results.get(timeout=self.hedge_after_s)
            outstanding -= 1
        except queue.Empty:
            with self._stats_lock:
                self.hedges_fired += 1
            threading.Thread(target=run, args=("hedge",), daemon=True, name="predict-hedge").start()
            outstanding += 1
            tag, error, payload = results.get()
            outstanding -= 1
        while error is not None and outstanding > 0:
            first_error = first_error or error
            tag, error, payload = results.get()
            outstanding -= 1
        if error is None:
            return payload
        raise first_error or error

    def healthz(self) -> dict:
        return self._request("/healthz")

    def metrics(self) -> dict:
        return self._request("/metrics")

    # -- prediction ------------------------------------------------------------

    def _predict(
        self, array: np.ndarray, model: "str | None", deadline_ms: "float | None"
    ) -> dict:
        params = {"model": model, "deadline_ms": deadline_ms}
        query = urllib.parse.urlencode({k: v for k, v in params.items() if v is not None})
        return self._request(
            "/v1/predict" + ("?" + query if query else ""), array,
            deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
        )

    def predict(
        self,
        image,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> PredictResult:
        """Predict one CHW image; raises :class:`ServeHTTPError` on non-2xx.

        ``deadline_ms`` is enforced on both sides: the server sheds the
        request once it expires, and the client stops retrying when the next
        backoff would overrun it.
        """
        image = np.asarray(image)
        if image.ndim == 4:  # the server would answer it as a batch
            raise ValueError("predict takes one CHW image; use predict_batch for NCHW")
        out = self._predict(image, model, deadline_ms)
        return PredictResult(
            model=out["model"],
            logits=np.asarray(out["logits"], dtype=np.float64),
            predictions=out["prediction"],
        )

    def predict_batch(
        self,
        images,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> PredictResult:
        """Predict a list/array of CHW images in one HTTP request."""
        batch = np.stack([np.asarray(img) for img in images])
        if batch.ndim != 4:  # the server would answer a 3-D stack as one image
            raise ValueError(f"predict_batch takes CHW images, got a stack of shape {batch.shape}")
        out = self._predict(batch, model, deadline_ms)
        return PredictResult(
            model=out["model"],
            logits=np.asarray(out["logits"], dtype=np.float64),
            predictions=out["predictions"],
        )
