"""Cluster service: the registry-shaped front door to worker pools.

:class:`ClusterService` is a drop-in for
:class:`~repro.serve.registry.ModelRegistry` wherever the HTTP layer is
concerned (``register`` / ``get`` / ``submit`` / ``start`` / ``stop`` /
``refresh`` / ``metrics_snapshot``), but each registered model is served by
a supervised pool of worker *processes* instead of in-process threads:

* plans are published once into shared memory
  (:class:`~repro.serve.cluster.shm_store.ShmPlanStore`) and every worker
  attaches the same pages;
* a :class:`~repro.serve.cluster.supervisor.WorkerSupervisor` heartbeats,
  restarts, and reloads the pool behind a per-model circuit breaker;
* a :class:`~repro.serve.cluster.router.ClusterRouter` admits into one
  bounded FIFO queue (shed at ``queue_depth`` with 503, per-request
  deadlines — as the micro-batcher does) and dispatches least-loaded.

One engine per model flows through ``register`` → shared memory → worker.

Use with :class:`~repro.serve.http.ModelServer`::

    service = ClusterService(ClusterConfig(workers=4))
    service.register("net4", model)
    ModelServer(service, ServerConfig(port=8080)).serve_forever()
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.errors import ConfigurationError, UnknownModelError
from repro.infer.engine import InferenceEngine
from repro.serve.cluster.breaker import CircuitBreaker
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.router import ClusterRouter
from repro.serve.cluster.shm_store import ShmPlanStore
from repro.serve.cluster.supervisor import WorkerSupervisor
from repro.serve.metrics import ClusterMetrics
from repro.utils.logging import get_logger

_log = get_logger("serve.cluster.service")

__all__ = ["ClusterModel", "ClusterService"]


class ClusterModel:
    """One model's full cluster stack under one name.

    Duck-types :class:`~repro.serve.registry.ServingModel` where the HTTP
    layer cares: ``name``, ``batcher`` (the router — same ``submit``
    contract), ``metrics``, ``engine``.
    """

    def __init__(self, name, engine, config, store, breaker, supervisor, router, metrics):
        self.name = name
        self.engine = engine
        self.config = config
        self.store = store
        self.breaker = breaker
        self.supervisor = supervisor
        self.router = router
        self.metrics = metrics

    @property
    def batcher(self) -> ClusterRouter:
        """The router, under the name the HTTP layer expects."""
        return self.router

    def cluster_gauge(self) -> dict:
        """Live supervisor/breaker state for ``/metrics``."""
        current = self.store.current
        return {
            "generation": 0 if current is None else current.generation,
            "supervisor": self.supervisor.snapshot(),
            "breaker": self.breaker.snapshot(),
        }


class ClusterService:
    """Name → :class:`ClusterModel` map with pool lifecycle control.

    Args:
        cluster_config: Default :class:`ClusterConfig` applied to models
            registered without their own.
    """

    def __init__(self, cluster_config: "ClusterConfig | None" = None) -> None:
        self.cluster_config = cluster_config or ClusterConfig()
        self._models: "dict[str, ClusterModel]" = {}
        self._lock = threading.Lock()
        self._started = False

    # -- registration ----------------------------------------------------------

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
        router = ClusterRouter(name, config, supervisor, breaker, metrics)
        supervisor.bind(router)
        entry = ClusterModel(name, engine, config, store, breaker, supervisor, router, metrics)
        metrics.bind_cluster_gauge(entry.cluster_gauge)
        metrics.bind_depth_gauge(lambda: router.queue_depth)
        store.publish(engine.plan.payload())
        with self._lock:
            if name in self._models:
                store.close()
                raise ConfigurationError(f"model {name!r} is already registered")
            self._models[name] = entry
            started = self._started
        if started:
            self._start_entry(entry)
        _log.info("registered cluster model %r (%d workers)", name, config.workers)
        return entry

    def unregister(self, name: str, drain: bool = True, timeout: float = 10.0) -> None:
        """Remove ``name``, stopping its pool (draining by default)."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise UnknownModelError(f"unknown model {name!r}")
        self._stop_entry(entry, drain=drain, deadline=time.monotonic() + timeout)

    # -- lookup / routing ------------------------------------------------------

    def get(self, name: "str | None" = None) -> ClusterModel:
        """Resolve ``name``; ``None`` resolves iff exactly one model is registered."""
        with self._lock:
            if name is None:
                if len(self._models) == 1:
                    return next(iter(self._models.values()))
                raise UnknownModelError(
                    f"request names no model and {len(self._models)} are registered; "
                    f"known models: {sorted(self._models)}"
                )
            entry = self._models.get(name)
        if entry is None:
            raise UnknownModelError(
                f"unknown model {name!r}; known models: {sorted(self.names())}"
            )
        return entry

    def names(self) -> "list[str]":
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def submit(
        self, image, model: "str | None" = None, deadline_s: "float | None" = None
    ) -> "Future[np.ndarray]":
        """Route one image to ``model``'s pool (see :meth:`ClusterRouter.submit`)."""
        return self.get(model).router.submit(image, deadline_s=deadline_s)

    # -- lifecycle -------------------------------------------------------------

    def _start_entry(self, entry: ClusterModel) -> None:
        entry.supervisor.start()
        entry.router.start()

    def _stop_entry(self, entry: ClusterModel, drain: bool, deadline: float) -> None:
        if drain:
            entry.router.join_idle(max(0.0, deadline - time.monotonic()))
        entry.router.stop()
        entry.supervisor.stop(timeout_s=max(0.5, deadline - time.monotonic()))
        entry.store.close()

    def start(self) -> "ClusterService":
        """Spin up every registered pool; later registrations auto-start."""
        with self._lock:
            self._started = True
            entries = list(self._models.values())
        for entry in entries:
            self._start_entry(entry)
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Stop every pool, bounded by one shared ``timeout`` deadline."""
        with self._lock:
            self._started = False
            entries = list(self._models.values())
        deadline = time.monotonic() + (timeout if timeout is not None else 10.0)
        for entry in entries:
            self._stop_entry(entry, drain=drain, deadline=deadline)

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

    def metrics_snapshot(self) -> dict:
        """``{model name: metrics snapshot}``, each carrying the cluster
        gauge block (workers, breaker, generation) and the engine's plan
        summary."""
        with self._lock:
            entries = list(self._models.items())
        return {
            name: {**entry.metrics.snapshot(), "plan": entry.engine.plan_summary()}
            for name, entry in entries
        }
