"""One admission queue for both serving paths.

:class:`RequestQueue` is the front door of the in-process
:class:`~repro.serve.batcher.MicroBatcher` and of the worker-pool
:class:`~repro.serve.cluster.router.ClusterRouter`.  It owns every
admission rule, so the two paths cannot drift apart:

* the pinned CHW shape (:func:`check_image_shape`): a malformed image is a
  :class:`~repro.errors.ShapeError` (HTTP 400) and is not counted;
* a bounded FIFO that sheds beyond ``queue_depth``
  (:class:`~repro.errors.QueueFullError`, HTTP 503), so
  ``offered == accepted + shed`` holds exactly;
* per-request deadlines, checked when a request is taken: an expired one
  fails with :class:`~repro.errors.DeadlineExceededError` before any
  compute is spent on it;
* pause/resume, and requeue at the front in the original order;
* a count of taken-but-unfinished requests, which :meth:`join_idle` waits
  on;
* stop, either draining (queued and taken work completes first) or not
  (queued futures fail with :class:`~repro.errors.ServerClosedError`).

Subclasses supply the executor.  :meth:`RequestQueue._serve` is the body of
each serving thread: it takes requests with :meth:`RequestQueue._take`
(optionally growing each take in :meth:`RequestQueue._fill`) and resolves
every taken request exactly once through :meth:`RequestQueue._finish` or
:meth:`RequestQueue._requeue`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServerClosedError,
    ShapeError,
)

__all__ = ["Request", "RequestQueue", "check_image_shape"]


def check_image_shape(image: np.ndarray, pinned: "tuple | None") -> tuple:
    """Validate one request image against a model's pinned CHW shape.

    Returns the shape to pin: ``pinned`` itself, or the image's own shape
    when nothing is pinned yet.  The serving registries pin the shape a
    model declares (:func:`~repro.infer.plan.declared_image_shape`) up
    front; for a model that declares none, the queue calls this under its
    lock, so the first accepted image pins the shape exactly once.

    Raises:
        ShapeError: Not a single CHW image, or not the pinned shape.
    """
    if image.ndim != 3:
        raise ShapeError(f"expected one CHW image, got shape {image.shape}")
    if pinned is not None and image.shape != pinned:
        raise ShapeError(f"image shape {image.shape} does not match this model's {pinned}")
    return image.shape


def _resolve(future: Future, result=None, error: "BaseException | None" = None) -> bool:
    """Set a future's outcome, tolerating client-side cancellation."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
        return True
    except Exception:  # already cancelled/resolved — the client walked away
        return False


class Request:
    """One accepted image travelling queue → executor → future."""

    __slots__ = ("req_id", "image", "deadline", "enqueued_at", "future", "attempts")

    def __init__(self, req_id: int, image: np.ndarray, deadline, enqueued_at: float) -> None:
        self.req_id = req_id
        self.image = image
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.future: Future = Future()
        self.attempts = 0


class RequestQueue:
    """Admission, FIFO and lifecycle for one model (see module doc).

    Args:
        name: Model name (thread names and messages).
        queue_depth: High-water mark; submits beyond it are shed.
        metrics: A :class:`~repro.serve.metrics.ServerMetrics`; its queue
            depth gauge is bound here.
        image_shape: Pinned CHW shape, or ``None`` to pin the first
            accepted image's shape.
        workers: Serving threads :meth:`start` spawns.
        clock: Monotonic time source for deadlines and latencies
            (injectable for deterministic tests).
    """

    #: Serving-thread name prefix; the model name and an index follow.
    thread_prefix = "repro-serve"

    def __init__(
        self,
        name: str,
        queue_depth: int,
        metrics,
        image_shape: "tuple[int, int, int] | None" = None,
        workers: int = 1,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.metrics = metrics
        self._depth = queue_depth
        self._image_shape = None if image_shape is None else tuple(image_shape)
        self._workers = workers
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: "deque[Request]" = deque()
        self._ids = itertools.count()
        self._threads: "list[threading.Thread]" = []
        self._stopping = False
        self._draining = False
        self._paused = False
        self._inflight = 0
        metrics.bind_depth_gauge(lambda: len(self._queue))

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Spawn the serving threads; idempotent."""
        with self._cond:
            if self._stopping:
                raise ServerClosedError(f"{self.name!r} has been stopped")
            if self._threads:
                return self
            self._threads = [
                threading.Thread(
                    target=self._serve,
                    name=f"{self.thread_prefix}-{self.name or 'model'}-{i}",
                    daemon=True,
                )
                for i in range(self._workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Stop serving; no future is left unresolved.  Idempotent.

        New submits are refused at once.  With ``drain`` every queued and
        taken request completes first, within ``timeout``; whatever is still
        queued after it fails with :class:`ServerClosedError`.  Without
        ``drain`` queued requests fail at once and taken ones still finish.
        Thread joins share the same deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._stopping = True
            # Only running threads can drain; nothing else would serve it.
            self._draining = drain and bool(self._threads)
            self._cond.notify_all()
        if self._draining:
            self.join_idle(timeout)
        with self._cond:
            self._draining = False
            dropped = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        self._cancel(dropped, "drain timed out" if drain else "server stopped before serving")
        for thread in self._threads:
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))

    def pause(self) -> None:
        """Hold taking; queued requests wait until :meth:`resume`.  Taken
        requests still finish, and a draining stop overrides the pause."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def join_idle(self, timeout: "float | None" = None) -> bool:
        """Block until nothing is queued or taken-but-unfinished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._inflight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(0.05 if remaining is None else min(0.05, remaining))
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def stopped(self) -> bool:
        return self._stopping

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- admission -------------------------------------------------------------

    def submit(self, image, deadline_s: "float | None" = None) -> "Future[np.ndarray]":
        """Admit one CHW image; returns a future resolving to its logits row.

        Raises:
            ShapeError: Not a single CHW image, or not the pinned shape.
            QueueFullError: Queue at its ``queue_depth``; the request is shed.
            ServerClosedError: Stopping or stopped.
        """
        image = np.asarray(image)
        now = self._clock()
        request = Request(
            next(self._ids), image, None if deadline_s is None else now + deadline_s, now
        )
        with self._cond:
            self._image_shape = check_image_shape(image, self._image_shape)
            # Counted only after validation, so offered == accepted + shed
            # stays exact (malformed requests are neither).
            self.metrics.record_offered()
            try:
                self._gate()
                if self._stopping:
                    raise ServerClosedError(f"{self.name!r} is shutting down")
                if len(self._queue) >= self._depth:
                    raise QueueFullError(f"queue depth {self._depth} exceeded; request shed")
            except ReproError:
                self.metrics.record_shed()
                raise
            self._queue.append(request)
            self.metrics.record_accepted()
            self._cond.notify_all()
        return request.future

    def _gate(self) -> None:
        """Extra admission check under the queue lock; raise to shed."""

    # -- the executor's side ---------------------------------------------------

    def _serve(self) -> None:
        """Body of each serving thread."""
        raise NotImplementedError

    def _take(self) -> "list[Request] | None":
        """Block for the next queued request, plus whatever :meth:`_fill`
        adds; ``None`` once the thread should exit.

        Expired requests fail here, before compute, so the list may be
        empty.  The rest count as taken until :meth:`_finish` or
        :meth:`_requeue`.
        """
        with self._cond:
            while True:
                if self._stopping and not self._draining:
                    return None
                if self._queue and (not self._paused or self._stopping):
                    break
                self._cond.wait(0.05)
            taken = [self._queue.popleft()]
            self._fill(taken)
            self._inflight += len(taken)
        now = self._clock()
        live = []
        for request in taken:
            if request.deadline is not None and now > request.deadline:
                error = DeadlineExceededError("deadline expired in queue")
                self._finish(request, error=error, record=self.metrics.record_expired)
            else:
                live.append(request)
        return live

    def _fill(self, taken: "list[Request]") -> None:
        """Grow a take under the queue lock (batch formation); default: one."""

    def _finish(self, request: Request, result=None, error=None, record=None) -> None:
        """Resolve one taken request and stop counting it as taken.

        A result counts as completed, or as cancelled when the client had
        already cancelled its future; an error that lands counts with
        ``record`` (default: failed).
        """
        if error is None:
            if _resolve(request.future, result=result):
                self.metrics.record_completed(self._clock() - request.enqueued_at)
            else:
                self.metrics.record_cancelled()
        elif _resolve(request.future, error=error):
            (record or self.metrics.record_failed)()
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def _requeue(self, requests: "list[Request]") -> int:
        """Put taken requests back at the front, in their original order.

        Returns how many went back.  Once the queue stops without draining
        nothing goes back: those requests fail with
        :class:`ServerClosedError` instead, as queued ones did.
        """
        with self._cond:
            self._inflight -= len(requests)
            self._cond.notify_all()
            closed = self._stopping and not self._draining
            if not closed:
                self._queue.extendleft(reversed(requests))
        if closed:
            self._cancel(requests, "server stopped before serving")
            return 0
        return len(requests)

    def _cancel(self, requests: "list[Request]", reason: str) -> None:
        for request in requests:
            if _resolve(request.future, error=ServerClosedError(reason)):
                self.metrics.record_cancelled()
