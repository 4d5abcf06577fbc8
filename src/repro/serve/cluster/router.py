"""Front router for one model's worker pool.

Owns one bounded FIFO queue and the dispatcher thread.  A submit is
validated against the model's pinned image shape, passes the circuit
breaker, and is shed with :class:`~repro.errors.QueueFullError` beyond
``queue_depth`` — the same admission vocabulary as
:class:`~repro.serve.batcher.MicroBatcher` (a queue bound, per-request
deadlines, 503 on shed).  The dispatcher pops in arrival order, checks
deadlines, picks the least-loaded ready worker, and ships the request down
that worker's pipe.  Completions arrive via the supervisor's receiver
threads (:meth:`ClusterRouter.complete` / :meth:`ClusterRouter.fail`);
worker deaths re-enter through :meth:`ClusterRouter.requeue`, which puts
surviving requests back at the *front* of the queue so a crash never
reorders a request behind later arrivals.

Zero-drop invariant: every accepted request's future is resolved exactly
once — with logits, or with a typed error
(:class:`~repro.errors.DeadlineExceededError`,
:class:`~repro.errors.WorkerCrashedError` after the re-dispatch budget,
:class:`~repro.errors.ServerClosedError` on non-drain shutdown).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServerClosedError,
    WorkerCrashedError,
)
from repro.serve.batcher import check_image_shape
from repro.serve.cluster.config import ClusterConfig
from repro.utils.logging import get_logger

_log = get_logger("serve.cluster.router")

__all__ = ["ClusterRouter"]


class _Request:
    """One accepted request travelling queue → worker → future."""

    __slots__ = ("req_id", "image", "future", "deadline", "submitted_at", "attempts")

    def __init__(self, req_id, image, deadline, submitted_at):
        self.req_id = req_id
        self.image = image
        self.future: Future = Future()
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.attempts = 0


class ClusterRouter:
    """FIFO dispatch + completion plumbing for one worker pool.

    Args:
        name: Model name (log labelling).
        config: The pool's :class:`ClusterConfig`.
        supervisor: The pool's
            :class:`~repro.serve.cluster.supervisor.WorkerSupervisor`.
        breaker: The model's circuit breaker (gates every submit).
        metrics: The model's :class:`~repro.serve.metrics.ClusterMetrics`.
        image_shape: Expected CHW shape of every request image, as for
            :class:`~repro.serve.batcher.MicroBatcher`; ``None`` pins the
            first accepted image's shape.
        clock: Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        name: str,
        config: ClusterConfig,
        supervisor,
        breaker,
        metrics,
        image_shape: "tuple[int, int, int] | None" = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.config = config
        self.supervisor = supervisor
        self.breaker = breaker
        self.metrics = metrics
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        self._image_shape = None if image_shape is None else tuple(image_shape)
        self._ids = itertools.count()
        self._paused = False
        self._stopping = False
        self._dispatcher: "threading.Thread | None" = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            self._stopping = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"cluster-dispatch-{self.name}", daemon=True
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Stop dispatching; cancel everything still queued."""
        with self._cond:
            self._stopping = True
            cancelled = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for request in cancelled:
            self.metrics.record_cancelled()
            if not request.future.done():
                request.future.set_exception(
                    ServerClosedError("server stopped before the request was dispatched")
                )
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None

    # -- pause (hot refresh) ---------------------------------------------------

    def pause(self) -> None:
        """Hold dispatch; queued requests wait, in-flight ones complete."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def join_idle(self, timeout_s: "float | None" = None) -> bool:
        """Wait until queues are empty *and* nothing is in flight (drain)."""
        deadline = None if timeout_s is None else self._clock() + timeout_s
        with self._cond:
            while self.queue_depth > 0 or self.supervisor.total_inflight() > 0:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(0.05 if remaining is None else min(0.05, remaining))
            return True

    # -- submit path -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, image, deadline_s: "float | None" = None) -> Future:
        """Admit one CHW image; returns a future resolving to its logits row.

        Raises:
            ShapeError: Not a single CHW image, or inconsistent with the
                shape this router is pinned to (the first one it saw).
            CircuitOpenError: The model's breaker is open (carries
                ``retry_after_s``).
            QueueFullError: Queue at ``queue_depth``; the request is shed.
            ServerClosedError: The router is stopping/stopped.
        """
        image = np.asarray(image)
        with self._cond:
            self._image_shape = check_image_shape(image, self._image_shape)
        # Counted only after validation, as in MicroBatcher.submit, so
        # offered == accepted + shed stays exact.
        self.metrics.record_offered()
        if not self.breaker.allow():
            self.metrics.record_shed()
            retry_after_s = self.breaker.retry_after_s()
            exc = CircuitOpenError(
                f"model {self.name!r} circuit breaker is open; retry in {retry_after_s:.2f}s"
            )
            exc.retry_after_s = retry_after_s
            raise exc
        now = self._clock()
        request = _Request(
            next(self._ids), image, None if deadline_s is None else now + deadline_s, now
        )
        with self._cond:
            if self._stopping:
                self.metrics.record_shed()
                raise ServerClosedError(f"cluster router for {self.name!r} is stopped")
            if len(self._queue) >= self.config.queue_depth:
                self.metrics.record_shed()
                raise QueueFullError(
                    f"queue depth {self.config.queue_depth} exceeded; request shed"
                )
            self._queue.append(request)
            self.metrics.record_accepted()
            self._cond.notify_all()
        return request.future

    # -- dispatch --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and (self._paused or not self._queue):
                    self._cond.wait(0.1)
                if self._stopping:
                    return
                request = self._queue.popleft()
            if request.deadline is not None and self._clock() > request.deadline:
                self.metrics.record_expired()
                if not request.future.done():
                    request.future.set_exception(
                        DeadlineExceededError("request deadline expired before dispatch")
                    )
                continue
            worker = self.supervisor.pick_worker()
            if worker is None:
                # No capacity right now: park the request back at the front
                # and wait for a completion or a respawn to free a slot.
                with self._cond:
                    self._queue.appendleft(request)
                    self._cond.wait(self.config.dispatch_wait_s)
                continue
            request.attempts += 1
            with worker.lock:
                worker.inflight[request.req_id] = request
            try:
                worker.send(("predict", request.req_id, request.image[None]))
            except (BrokenPipeError, OSError):
                with worker.lock:
                    worker.inflight.pop(request.req_id, None)
                self.supervisor._note_down(worker, "pipe broken on dispatch")
                self.requeue([request])

    # -- completion paths (called from supervisor receiver threads) ------------

    def complete(self, request: _Request, logits) -> None:
        latency = self._clock() - request.submitted_at
        self.metrics.record_completed(latency)
        if not request.future.done():
            request.future.set_result(np.asarray(logits)[0])
        with self._cond:
            self._cond.notify_all()

    def fail(self, request: _Request, text: str) -> None:
        self.metrics.record_failed()
        if not request.future.done():
            request.future.set_exception(ReproError(f"worker predict failed: {text}"))
        with self._cond:
            self._cond.notify_all()

    def requeue(self, requests: "list[_Request]") -> None:
        """Re-queue a dead worker's in-flight requests (front of queue).

        Requests past the re-dispatch budget fail with
        :class:`WorkerCrashedError` instead of cycling forever against a
        crash loop.
        """
        exhausted = []
        with self._cond:
            for request in reversed(requests):
                if self._stopping:
                    exhausted.append((request, ServerClosedError("server stopped")))
                elif request.attempts > self.config.request_retries:
                    exhausted.append(
                        (
                            request,
                            WorkerCrashedError(
                                f"request lost to {request.attempts} worker crashes "
                                f"(re-dispatch budget {self.config.request_retries})"
                            ),
                        )
                    )
                else:
                    self.metrics.record_redispatch()
                    self._queue.appendleft(request)
            self._cond.notify_all()
        for request, exc in exhausted:
            self.metrics.record_failed()
            if not request.future.done():
                request.future.set_exception(exc)
