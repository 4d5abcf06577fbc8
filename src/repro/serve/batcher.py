"""Dynamic micro-batching over :class:`~repro.infer.engine.InferenceEngine`.

Single-image requests enter the shared admission queue
(:class:`~repro.serve.queue.RequestQueue`: pinned image shape, a bounded
FIFO that sheds beyond ``queue_depth``, deadlines, pause and drain) and come
back as :class:`concurrent.futures.Future` objects.  What is left here is
batch formation and the forward: worker threads coalesce queued requests
into engine-sized batches, holding the first request of a forming batch for
at most ``max_wait_s`` while later arrivals join, so throughput approaches
the engine's full-batch rate under load while an isolated request pays at
most the wait window in extra latency.  Results are split back to the
per-request futures in queue order — request *i* of a batch always receives
row *i* of that batch's logits.

Each worker thread owns a private
:class:`~repro.infer.plan.ExecutionContext` (see
:meth:`InferenceEngine.make_context`), honouring the engine's
one-context-per-worker contract; batch logits are copied out of the scratch
buffer before futures resolve, so callers may keep results indefinitely.
"""

from __future__ import annotations

import time

import numpy as np

from repro.infer.engine import InferenceEngine
from repro.serve.config import BatcherConfig
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import Request, RequestQueue, check_image_shape
from repro.utils.logging import get_logger

__all__ = ["MicroBatcher", "check_image_shape"]

logger = get_logger("serve.batcher")


class MicroBatcher(RequestQueue):
    """Coalesces single-image requests into engine batches (see module doc).

    Args:
        engine: Compiled engine to serve from.  Its ``on_stale`` policy is
            honoured per batch via the cheap version-counter check.
        config: Batching/queueing knobs (:class:`BatcherConfig`).
        metrics: Metrics sink; a private :class:`ServerMetrics` is created
            when not provided.
        image_shape: Expected CHW shape of every request image.  When
            ``None`` it is pinned by the first accepted request, so one
            malformed image can never poison a whole batch;
            :class:`~repro.serve.registry.ModelRegistry` passes the shape
            the model declares, when it declares one.
        name: Label used in thread names and log lines (the registry passes
            the model name).
    """

    thread_prefix = "repro-batcher"

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
        super().__init__(
            name,
            self.config.queue_depth,
            metrics if metrics is not None else ServerMetrics(),
            image_shape,
            workers=self.config.workers,
        )

    def submit(self, image, deadline_s: "float | None" = None):
        """Enqueue one CHW image in the engine's dtype (see
        :meth:`RequestQueue.submit`); ``deadline_s`` defaults to
        ``config.default_deadline_s``."""
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        return super().submit(np.asarray(image, dtype=self.engine.plan.dtype), deadline_s)

    # -- batch formation and the forward ----------------------------------------

    def _serve(self) -> None:
        ctx = self.engine.make_context()
        while (batch := self._take()) is not None:
            if batch:
                self._run_batch(batch, ctx)

    def _fill(self, taken: "list[Request]") -> None:
        """Hold the first request up to ``max_wait_s`` while later arrivals
        join, up to ``max_batch_size`` (runs under the queue lock)."""
        cfg = self.config
        wait_until = time.monotonic() + cfg.max_wait_s
        while len(taken) < cfg.max_batch_size:
            if self._queue:
                taken.append(self._queue.popleft())
                continue
            remaining = wait_until - time.monotonic()
            # Don't hold a forming batch during shutdown or pause — serve
            # what we have.
            if remaining <= 0 or self._stopping or self._paused:
                break
            self._cond.wait(remaining)

    def _run_batch(self, batch: "list[Request]", ctx) -> None:
        self.metrics.record_batch(len(batch))
        try:
            images = np.stack([req.image for req in batch])
            # Copy detaches the logits from ctx's scratch buffer, so futures
            # stay valid after this worker starts its next batch.
            logits = np.array(self.engine.forward_batch(images, ctx=ctx), copy=True)
        except Exception as exc:
            logger.exception("batcher %r: batch of %d failed", self.name, len(batch))
            for req in batch:
                self._finish(req, error=exc)
        else:
            for i, req in enumerate(batch):
                self._finish(req, logits[i])
