"""Supervised multi-process serving tier.

Crash-isolated worker pools over shared-memory plans, with heartbeat
supervision, circuit-breaker-guarded restarts and one bounded FIFO queue
per model — the micro-batcher's own queue type, shedding at
``queue_depth``.  See
:class:`~repro.serve.cluster.service.ClusterService` for the front door.
"""

from repro.serve.cluster.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.cluster.config import START_METHODS, ClusterConfig
from repro.serve.cluster.router import ClusterRouter
from repro.serve.cluster.service import ClusterModel, ClusterService
from repro.serve.cluster.shm_store import PlanGeneration, ShmPlanStore
from repro.serve.cluster.supervisor import WorkerHandle, WorkerSupervisor
from repro.serve.cluster.worker import worker_main

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ClusterConfig",
    "START_METHODS",
    "ClusterRouter",
    "ClusterModel",
    "ClusterService",
    "PlanGeneration",
    "ShmPlanStore",
    "WorkerHandle",
    "WorkerSupervisor",
    "worker_main",
]
