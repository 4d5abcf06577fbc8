"""Cluster service: the model registry over worker pools.

:class:`ClusterService` shares :class:`~repro.serve.registry.BaseRegistry`
with :class:`~repro.serve.registry.ModelRegistry` — the name map,
``get`` / ``submit`` / ``start`` / ``stop`` / ``unregister`` /
``metrics_snapshot`` — so :class:`~repro.serve.http.ModelServer` serves
either.  It differs in how an entry is built, started, stopped and
refreshed: each registered model is served by a supervised pool of worker
*processes* instead of in-process threads:

* plans are published once into shared memory
  (:class:`~repro.serve.cluster.shm_store.ShmPlanStore`) and every worker
  attaches the same pages;
* a :class:`~repro.serve.cluster.supervisor.WorkerSupervisor` heartbeats,
  restarts, and reloads the pool behind a per-model circuit breaker;
* a :class:`~repro.serve.cluster.router.ClusterRouter` admits through the
  same :class:`~repro.serve.queue.RequestQueue` as the micro-batcher (shed
  at ``queue_depth`` with 503, per-request deadlines) and dispatches
  least-loaded.

One engine per model flows through ``register`` → shared memory → worker.

Use with :class:`~repro.serve.http.ModelServer`::

    service = ClusterService(ClusterConfig(workers=4))
    service.register("net4", model)
    ModelServer(service, ServerConfig(port=8080)).serve_forever()
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.infer.engine import InferenceEngine
from repro.infer.plan import declared_image_shape
from repro.serve.cluster.breaker import CircuitBreaker
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.router import ClusterRouter
from repro.serve.cluster.shm_store import ShmPlanStore
from repro.serve.cluster.supervisor import WorkerSupervisor
from repro.serve.metrics import ClusterMetrics
from repro.serve.registry import BaseRegistry, ServingModel
from repro.utils.logging import get_logger

_log = get_logger("serve.cluster.service")

__all__ = ["ClusterModel", "ClusterService"]


@dataclass(eq=False)
class ClusterModel(ServingModel):
    """One model's full cluster stack under one name; ``batcher`` is its
    :class:`ClusterRouter`."""

    config: ClusterConfig
    store: ShmPlanStore
    breaker: CircuitBreaker
    supervisor: WorkerSupervisor

    @property
    def router(self) -> ClusterRouter:
        return self.batcher

    def cluster_gauge(self) -> dict:
        """Live supervisor/breaker state for ``/metrics``."""
        current = self.store.current
        return {
            "generation": 0 if current is None else current.generation,
            "supervisor": self.supervisor.snapshot(),
            "breaker": self.breaker.snapshot(),
        }


class ClusterService(BaseRegistry):
    """Name → :class:`ClusterModel` map with pool lifecycle control.

    Args:
        cluster_config: Default :class:`ClusterConfig` applied to models
            registered without their own.
    """

    def __init__(self, cluster_config: "ClusterConfig | None" = None) -> None:
        super().__init__()
        self.cluster_config = cluster_config or ClusterConfig()

    def register(
        self,
        name: str,
        model=None,
        engines: "InferenceEngine | None" = None,
        config: "ClusterConfig | None" = None,
    ) -> ClusterModel:
        """Register ``name``, publishing its plan into shared memory.

        Exactly one of ``model`` (compiled here) or ``engines`` (one
        pre-built :class:`InferenceEngine`, e.g. an int8 one) must be given.
        If the service is already started the pool spins up now.
        """
        if (model is None) == (engines is None):
            raise ConfigurationError("register() needs exactly one of model= or engines=")
        if engines is None:
            engine = InferenceEngine(model, on_stale="refresh")
        elif isinstance(engines, InferenceEngine):
            engine = engines
        else:
            raise ConfigurationError(
                f"engines= takes one InferenceEngine, got {type(engines).__name__}"
            )
        config = config or self.cluster_config
        metrics = ClusterMetrics()
        store = ShmPlanStore(config.shm_min_bytes)
        breaker = CircuitBreaker(
            restart_budget=config.restart_budget,
            window_s=config.restart_budget_window_s,
            open_s=config.breaker_open_s,
            half_open_probes=config.breaker_half_open_probes,
        )
        supervisor = WorkerSupervisor(name, config, store, breaker, metrics)
        router = ClusterRouter(
            name, config, supervisor, breaker, metrics, declared_image_shape(engine.model)
        )
        supervisor.bind(router)
        entry = ClusterModel(name, engine, router, metrics, config, store, breaker, supervisor)
        metrics.bind_cluster_gauge(entry.cluster_gauge)
        store.publish(engine.plan.payload())
        try:
            self._add(entry)
        except ConfigurationError:
            store.close()
            raise
        _log.info("registered cluster model %r (%d workers)", name, config.workers)
        return entry

    # -- lifecycle -------------------------------------------------------------

    def _start_entry(self, entry: ClusterModel) -> None:
        entry.supervisor.start()
        super()._start_entry(entry)

    def _stop_entry(self, entry: ClusterModel, drain: bool, timeout: "float | None") -> None:
        deadline = time.monotonic() + (10.0 if timeout is None else timeout)
        super()._stop_entry(entry, drain, deadline - time.monotonic())
        entry.supervisor.stop(timeout_s=max(0.5, deadline - time.monotonic()))
        entry.store.close()

    def refresh(self, name: "str | None" = None, timeout: "float | None" = 10.0) -> int:
        """Hot weight update across the whole pool; returns the number of
        stale layers the engine recompiled.

        Pauses dispatch (queued requests wait, none are dropped), recompiles
        the engine, publishes the new generation, and reloads every worker
        before resuming — so requests never reach a pool whose workers serve
        different generations.  A request already on a worker runs before
        that worker's reload message (its pipe is served in order), so it
        finishes on the plan it started with.
        """
        entry = self.get(name)
        entry.router.pause()
        try:
            stale = entry.engine.refresh()
            generation = entry.supervisor.refresh(entry.engine.plan.payload(), timeout_s=timeout)
        finally:
            entry.router.resume()
        _log.info(
            "model %r: %d stale layer(s), generation %d live on all workers",
            entry.name,
            stale,
            generation,
        )
        return stale
