"""Configuration for the serving layer: batcher and HTTP front-end knobs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BatcherConfig", "ServerConfig"]


@dataclass(frozen=True)
class BatcherConfig:
    """Dynamic micro-batcher tuning.

    Args:
        max_batch_size: Upper bound on how many queued single-image requests
            are coalesced into one engine batch.  ``1`` disables
            micro-batching (every request executes alone — the baseline the
            serving benchmark compares against).
        max_wait_s: How long the batcher may hold the *first* request of a
            forming batch while waiting for more arrivals.  Bounds the
            latency cost of batching: an isolated request is delayed at most
            this long.  ``0`` never waits — it greedily takes whatever is
            already queued.
        queue_depth: High-water mark of the request queue.  Arrivals beyond
            it are shed immediately with
            :class:`~repro.errors.QueueFullError` (the HTTP layer maps this
            to 503).
        default_deadline_s: Deadline applied to requests that do not carry
            their own; ``None`` means no deadline.  Expired requests are
            dropped *before* compute is spent on them and their futures fail
            with :class:`~repro.errors.DeadlineExceededError`.
        workers: Batcher worker threads.  Each owns a private
            :class:`~repro.infer.plan.ExecutionContext`.  More than one only
            helps when the plan's BLAS kernels release the GIL long enough
            to overlap; the default single worker gives strict run-to-
            completion batch ordering.
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.002
    queue_depth: int = 256
    default_deadline_s: "float | None" = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive, got {self.default_deadline_s}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ServerConfig:
    """HTTP front-end tuning.

    Args:
        host: Bind address.  The default stays loopback-only; bind
            ``"0.0.0.0"`` explicitly to serve externally.
        port: TCP port; ``0`` lets the OS pick a free one (the bound port is
            readable from :attr:`ModelServer.port` — tests rely on this).
        request_timeout_s: Upper bound a handler thread waits on a
            prediction future before answering 504.  Keeps handler threads
            from blocking forever if their work was dropped.
        drain_timeout_s: Upper bound for the graceful-shutdown drain of
            queued and in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
