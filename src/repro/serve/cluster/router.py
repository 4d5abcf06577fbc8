"""Front router for one model's worker pool.

Admission is the shared :class:`~repro.serve.queue.RequestQueue`, exactly
as for :class:`~repro.serve.batcher.MicroBatcher`: the pinned image shape,
one bounded FIFO that sheds beyond ``queue_depth``, deadlines checked
before dispatch, pause/resume and drain.  The router adds the circuit
breaker as an admission gate and, on its one dispatcher thread, sends each
taken request to the least-loaded ready worker.  Completions arrive via the
supervisor's receiver threads (:meth:`ClusterRouter.complete` /
:meth:`ClusterRouter.fail`); worker deaths re-enter through
:meth:`ClusterRouter.requeue`, which puts surviving requests back at the
*front* of the queue so a crash never reorders a request behind later
arrivals.

Zero-drop invariant: every accepted request's future is resolved exactly
once — with logits, or with a typed error
(:class:`~repro.errors.DeadlineExceededError`,
:class:`~repro.errors.WorkerCrashedError` after the re-dispatch budget,
:class:`~repro.errors.ServerClosedError` on non-drain shutdown).
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import CircuitOpenError, ReproError, WorkerCrashedError
from repro.serve.cluster.config import ClusterConfig
from repro.serve.queue import Request, RequestQueue

__all__ = ["ClusterRouter"]


class ClusterRouter(RequestQueue):
    """Breaker gate, least-loaded dispatch and completion for one pool.

    Args:
        name: Model name (thread and log labelling).
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

    thread_prefix = "cluster-dispatch"

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
        super().__init__(name, config.queue_depth, metrics, image_shape, clock=clock)
        self.config = config
        self.supervisor = supervisor
        self.breaker = breaker

    def _gate(self) -> None:
        if not self.breaker.allow():
            retry_after_s = self.breaker.retry_after_s()
            exc = CircuitOpenError(
                f"model {self.name!r} circuit breaker is open; retry in {retry_after_s:.2f}s"
            )
            exc.retry_after_s = retry_after_s
            raise exc

    # -- dispatch --------------------------------------------------------------

    def _serve(self) -> None:
        while (taken := self._take()) is not None:
            for request in taken:
                self._dispatch(request)

    def _dispatch(self, request: Request) -> None:
        worker = self.supervisor.pick_worker()
        if worker is None:
            # No capacity right now: park the request back at the front
            # and wait for a completion or a respawn to free a slot.
            with self._cond:
                if self._requeue([request]):
                    self._cond.wait(self.config.dispatch_wait_s)
            return
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

    def complete(self, request: Request, logits) -> None:
        self._finish(request, np.asarray(logits)[0])

    def fail(self, request: Request, text: str) -> None:
        self._finish(request, error=ReproError(f"worker predict failed: {text}"))

    def requeue(self, requests: "list[Request]") -> None:
        """Re-queue a dead worker's in-flight requests (front of queue).

        Requests past the re-dispatch budget fail with
        :class:`WorkerCrashedError` instead of cycling forever against a
        crash loop.
        """
        budget = self.config.request_retries
        for request in requests:
            if request.attempts > budget:
                self._finish(
                    request,
                    error=WorkerCrashedError(
                        f"request lost to {request.attempts} worker crashes "
                        f"(re-dispatch budget {budget})"
                    ),
                )
        for _ in range(self._requeue([r for r in requests if r.attempts <= budget])):
            self.metrics.record_redispatch()
