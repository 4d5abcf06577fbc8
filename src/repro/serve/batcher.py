"""Dynamic micro-batching over :class:`~repro.infer.engine.InferenceEngine`.

Single-image requests enter a bounded FIFO queue and come back as
:class:`concurrent.futures.Future` objects.  Worker threads coalesce queued
requests into engine-sized batches: the first request of a forming batch may
be held for at most ``max_wait_s`` while later arrivals join, so throughput
approaches the engine's full-batch rate under load while an isolated request
pays at most the wait window in extra latency.  Results are split back to
the per-request futures in queue order — request *i* of a batch always
receives row *i* of that batch's logits.

Overload behaviour is explicit, not emergent: beyond ``queue_depth`` the
request is shed immediately (:class:`~repro.errors.QueueFullError` → HTTP
503).  Requests carry optional deadlines and are dropped *before* compute is
spent once expired.  The cluster router
(:class:`~repro.serve.cluster.router.ClusterRouter`) admits with the same
queue bound, deadlines and image-shape check (:func:`check_image_shape`).

Each worker thread owns a private
:class:`~repro.infer.plan.ExecutionContext` (see
:meth:`InferenceEngine.make_context`), honouring the engine's
one-context-per-worker contract; batch logits are copied out of the scratch
buffer before futures resolve, so callers may keep results indefinitely.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from repro.infer.engine import InferenceEngine
from repro.serve.config import BatcherConfig
from repro.serve.metrics import ServerMetrics
from repro.utils.logging import get_logger

__all__ = ["MicroBatcher", "check_image_shape"]

logger = get_logger("serve.batcher")


@dataclass
class _Request:
    image: np.ndarray
    deadline: "float | None"
    enqueued_at: float
    future: "Future[np.ndarray]" = field(default_factory=Future)


def check_image_shape(image: np.ndarray, pinned: "tuple | None") -> tuple:
    """Validate one request image against a model's pinned CHW shape.

    Returns the shape to pin: ``pinned`` itself, or the image's own shape
    when nothing is pinned yet.  Callers hold their queue lock, so the first
    accepted image pins the shape exactly once.

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


class MicroBatcher:
    """Coalesces single-image requests into engine batches (see module doc).

    Args:
        engine: Compiled engine to serve from.  Its ``on_stale`` policy is
            honoured per batch via the cheap version-counter check.
        config: Batching/queueing knobs (:class:`BatcherConfig`).
        metrics: Metrics sink; a private :class:`ServerMetrics` is created
            when not provided.
        image_shape: Expected CHW shape of every request image.  When
            ``None`` it is pinned by the first accepted request, so one
            malformed image can never poison a whole batch.
        name: Label used in log lines (the registry passes the model name).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: "BatcherConfig | None" = None,
        metrics: "ServerMetrics | None" = None,
        image_shape: "tuple[int, int, int] | None" = None,
        name: str = "",
    ) -> None:
        self.engine = engine
        self.config = config or BatcherConfig()
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.name = name
        self._image_shape = None if image_shape is None else tuple(image_shape)
        self._queue: "deque[_Request]" = deque()
        self._cond = threading.Condition()
        self._threads: "list[threading.Thread]" = []
        self._started = False
        self._stopping = False
        self._draining = False
        self._paused = False
        self._inflight = 0
        self.metrics.bind_depth_gauge(lambda: len(self._queue))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "MicroBatcher":
        """Spawn the worker threads; idempotent."""
        with self._cond:
            if self._stopping:
                raise ServerClosedError(f"batcher {self.name!r} has been stopped")
            if self._started:
                return self
            self._started = True
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker, name=f"repro-batcher-{self.name or 'model'}-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        logger.debug("batcher %r started with %d worker(s)", self.name, self.config.workers)
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Stop serving; with ``drain`` every queued request completes first.

        With ``drain=False`` queued requests fail fast with
        :class:`~repro.errors.ServerClosedError`; requests already executing
        still resolve.  Either way no future is left unresolved.  Idempotent.
        """
        with self._cond:
            if self._stopping:
                drop: "list[_Request]" = []
            else:
                self._stopping = True
                self._draining = drain
                drop = [] if drain else list(self._queue)
                if not drain:
                    self._queue.clear()
            self._cond.notify_all()
        for req in drop:
            if _resolve(req.future, error=ServerClosedError("server stopped before serving")):
                self.metrics.record_cancelled()
        # One shared deadline across every worker join — a wedged worker
        # must not stretch shutdown to workers × timeout.
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        if drain:
            # Workers exit only once the queue is empty and nothing is in
            # flight, so a clean join implies a complete drain.
            with self._cond:
                leftovers = list(self._queue)
                self._queue.clear()
            for req in leftovers:  # only on join timeout
                if _resolve(req.future, error=ServerClosedError("drain timed out")):
                    self.metrics.record_cancelled()
        logger.debug("batcher %r stopped (drain=%s)", self.name, drain)

    def pause(self) -> None:
        """Hold dequeuing; queued requests wait until :meth:`resume`.

        A hot weight refresh does not need it: plans are immutable, so an
        in-flight batch finishes on the plan it started with."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def join_idle(self, timeout: "float | None" = None) -> bool:
        """Block until the queue is empty and no batch is executing."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._inflight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining if remaining is not None else 0.1)
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def stopped(self) -> bool:
        return self._stopping

    # -- submission ------------------------------------------------------------

    def submit(self, image, deadline_s: "float | None" = None) -> "Future[np.ndarray]":
        """Enqueue one CHW image; returns a future resolving to its logits.

        Raises:
            ShapeError: Not a single CHW image, or inconsistent with the
                shape this batcher is pinned to.
            QueueFullError: Queue at its ``queue_depth`` high-water mark.
            ServerClosedError: The batcher is stopping/stopped.
        """
        image = np.asarray(image, dtype=self.engine.plan.dtype)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        deadline = None if deadline_s is None else now + deadline_s
        req = _Request(image=image, deadline=deadline, enqueued_at=now)
        with self._cond:
            self._image_shape = check_image_shape(image, self._image_shape)
            # Counted only after validation, so offered == accepted + shed
            # stays an exact invariant (malformed requests are neither).
            self.metrics.record_offered()
            if self._stopping:
                self.metrics.record_shed()
                raise ServerClosedError("server is shutting down")
            if len(self._queue) >= self.config.queue_depth:
                self.metrics.record_shed()
                raise QueueFullError(
                    f"queue depth {self.config.queue_depth} exceeded; request shed"
                )
            self._queue.append(req)
            self.metrics.record_accepted()
            self._cond.notify_all()
        return req.future

    # -- worker loop -----------------------------------------------------------

    def _worker(self) -> None:
        ctx = self.engine.make_context()
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            if batch:
                self._run_batch(batch, ctx)

    def _take_batch(self) -> "list[_Request] | None":
        """Dequeue up to ``max_batch_size`` live requests, or ``None`` to exit.

        May return an empty list when every dequeued request had already
        expired — the caller just loops.
        """
        cfg = self.config
        with self._cond:
            while True:
                if self._stopping and (not self._draining or not self._queue):
                    return None
                # A draining shutdown overrides pause() — graceful stop must
                # finish queued work even if someone forgot to resume.
                if self._queue and (not self._paused or self._stopping):
                    break
                self._cond.wait(0.05)
            batch = [self._queue.popleft()]
            if cfg.max_batch_size > 1:
                wait_until = time.monotonic() + cfg.max_wait_s
                while len(batch) < cfg.max_batch_size:
                    if self._queue:
                        batch.append(self._queue.popleft())
                        continue
                    remaining = wait_until - time.monotonic()
                    # Don't hold a forming batch during shutdown or pause —
                    # serve what we have.
                    if remaining <= 0 or self._stopping or self._paused:
                        break
                    self._cond.wait(remaining)
            self._inflight += len(batch)
        return self._drop_expired(batch)

    def _drop_expired(self, batch: "list[_Request]") -> "list[_Request]":
        now = time.monotonic()
        live = []
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                if _resolve(req.future, error=DeadlineExceededError("deadline expired in queue")):
                    self.metrics.record_expired()
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
            else:
                live.append(req)
        return live

    def _run_batch(self, batch: "list[_Request]", ctx) -> None:
        self.metrics.record_batch(len(batch))
        try:
            images = np.stack([req.image for req in batch])
            # Copy detaches the logits from ctx's scratch buffer, so futures
            # stay valid after this worker starts its next batch.
            logits = np.array(self.engine.forward_batch(images, ctx=ctx), copy=True)
        except Exception as exc:
            logger.exception("batcher %r: batch of %d failed", self.name, len(batch))
            for req in batch:
                if _resolve(req.future, error=exc):
                    self.metrics.record_failed()
        else:
            done = time.monotonic()
            for i, req in enumerate(batch):
                if _resolve(req.future, result=logits[i]):
                    self.metrics.record_completed(done - req.enqueued_at)
                else:
                    self.metrics.record_cancelled()
        finally:
            with self._cond:
                self._inflight -= len(batch)
                self._cond.notify_all()

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
