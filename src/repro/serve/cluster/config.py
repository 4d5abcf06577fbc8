"""Configuration for the supervised multi-process serving tier."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["ClusterConfig", "START_METHODS"]

START_METHODS = ("fork", "spawn")


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one model's worker pool, router and crash supervision.

    Args:
        workers: Worker *processes* in the pool.  Each owns a private
            :class:`~repro.infer.plan.ExecutionContext` against the
            shared-memory plan, so a segfault or OOM in one cannot take the
            others down.
        start_method: ``"fork"`` (fast, default where available) or
            ``"spawn"`` (slower, maximally isolated) for worker processes.
        queue_depth: High-water mark of the per-model FIFO dispatch queue;
            arrivals beyond it are shed with
            :class:`~repro.errors.QueueFullError` (HTTP 503), exactly as
            :class:`~repro.serve.config.BatcherConfig` ``queue_depth`` does.
        max_inflight_per_worker: Requests allowed outstanding on one worker
            pipe; the router's least-loaded dispatch picks the alive worker
            with the fewest.
        request_retries: Re-dispatch budget per accepted request: how many
            worker crashes/hangs one request may survive (on a different
            worker each time) before failing with
            :class:`~repro.errors.WorkerCrashedError`.
        dispatch_wait_s: How long the dispatcher waits for a dispatchable
            worker before re-checking request deadlines.
        spawn_timeout_s: Upper bound for one worker to come up and report
            ready (includes shared-memory attach + checksum verification).
        heartbeat_interval_s: Supervisor ping period per worker.
        heartbeat_timeout_s: A worker whose last pong is older than this is
            declared *wedged*, killed, and restarted; its in-flight requests
            are re-dispatched.  Must exceed the slowest legitimate
            per-request compute time.
        restart_backoff_base_s: First restart delay; doubles per restart
            within the budget window.
        restart_backoff_max_s: Restart delay ceiling.
        restart_budget: Worker deaths tolerated within
            ``restart_budget_window_s`` before the model's circuit breaker
            trips open.
        restart_budget_window_s: Sliding window for the restart budget.
        breaker_open_s: How long the breaker stays open before allowing a
            half-open probe.
        breaker_half_open_probes: Successful probe requests required to
            close a half-open breaker.
        service_delay_s: Artificial per-request service time added inside
            each worker, modeling the accelerator-offload latency of a
            deployed FLightNN (host workers orchestrate, the accelerator
            computes).  Benchmarks use it to study worker-count scaling on
            hosts with fewer cores than workers; ``0`` (default) disables.
        shm_min_bytes: Arrays at or above this size are hoisted into the
            shared-memory segment instead of the pickle skeleton.
        chaos: Fault injectors
            (:class:`~repro.testing.faults.WorkerCrashFault`,
            :class:`~repro.testing.faults.WorkerHangFault`) armed per
            worker spawn — the deterministic chaos harness used by
            ``tests/serve/test_cluster_chaos.py``.  Empty in production.
    """

    workers: int = 2
    start_method: str = "fork"
    queue_depth: int = 256
    max_inflight_per_worker: int = 4
    request_retries: int = 3
    dispatch_wait_s: float = 0.05
    spawn_timeout_s: float = 30.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    restart_backoff_base_s: float = 0.05
    restart_backoff_max_s: float = 2.0
    restart_budget: int = 5
    restart_budget_window_s: float = 30.0
    breaker_open_s: float = 1.0
    breaker_half_open_probes: int = 1
    service_delay_s: float = 0.0
    shm_min_bytes: int = 1024
    chaos: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}; use one of {START_METHODS}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_inflight_per_worker < 1:
            raise ConfigurationError(
                f"max_inflight_per_worker must be >= 1, got {self.max_inflight_per_worker}"
            )
        if self.request_retries < 0:
            raise ConfigurationError(f"request_retries must be >= 0, got {self.request_retries}")
        for name in (
            "dispatch_wait_s",
            "spawn_timeout_s",
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
            "restart_backoff_base_s",
            "restart_backoff_max_s",
            "restart_budget_window_s",
            "breaker_open_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.restart_budget < 1:
            raise ConfigurationError(f"restart_budget must be >= 1, got {self.restart_budget}")
        if self.breaker_half_open_probes < 1:
            raise ConfigurationError(
                f"breaker_half_open_probes must be >= 1, got {self.breaker_half_open_probes}"
            )
        if self.service_delay_s < 0:
            raise ConfigurationError(f"service_delay_s must be >= 0, got {self.service_delay_s}")
        if self.shm_min_bytes < 0:
            raise ConfigurationError(f"shm_min_bytes must be >= 0, got {self.shm_min_bytes}")
