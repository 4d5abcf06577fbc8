"""Multi-model registry: warm compiled plans, routing, hot weight updates.

:class:`BaseRegistry` is the name map and lifecycle both serving paths
share: ``get`` / ``names`` / ``submit`` / ``start`` / ``stop`` /
``unregister`` / ``metrics_snapshot``, all over entries whose ``batcher``
is a :class:`~repro.serve.queue.RequestQueue`.  Subclasses differ only in
how an entry is built, started, stopped and refreshed.

A :class:`ModelRegistry` owns one :class:`ServingModel` per name — the
compiled :class:`~repro.infer.engine.InferenceEngine`, its
:class:`~repro.serve.batcher.MicroBatcher` and its
:class:`~repro.serve.metrics.ServerMetrics`.  Registration compiles the plan
up front, so the first request to every model is already warm.  The
cluster's :class:`~repro.serve.cluster.service.ClusterService` is the other
subclass.

Hot weight updates integrate with the engine's ``on_stale="refresh"``
machinery two ways:

* *transparent*: each served batch runs the engine's cheap version-counter
  stale check, so ordinary weight mutations (an optimizer step, a
  checkpoint load) are picked up automatically on the next batch;
* *explicit*: :meth:`ModelRegistry.refresh` runs the full fingerprint
  check and recompiles the plan under the engine's lock.  Plans are
  immutable, so no batch ever mixes old and new weights: a batch already
  running finishes on the plan it started with, and the next one runs the
  new plan.  Nothing is paused or drained.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, UnknownModelError
from repro.infer.engine import InferenceEngine
from repro.infer.plan import declared_image_shape
from repro.nn.module import Module
from repro.serve.batcher import MicroBatcher
from repro.serve.config import BatcherConfig
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import RequestQueue
from repro.utils.logging import get_logger

__all__ = ["BaseRegistry", "ServingModel", "ModelRegistry"]

logger = get_logger("serve.registry")


@dataclass
class ServingModel:
    """One registered model: engine + admission queue + metrics, under one
    name.  ``batcher`` is the model's
    :class:`~repro.serve.queue.RequestQueue` (a micro-batcher here, a
    cluster router in :class:`~repro.serve.cluster.service.ClusterModel`)."""

    name: str
    engine: InferenceEngine
    batcher: RequestQueue
    metrics: ServerMetrics


class BaseRegistry:
    """Thread-safe name → :class:`ServingModel` map with lifecycle control.

    Subclasses build entries in ``register`` and hand them to :meth:`_add`;
    they may extend :meth:`_start_entry` and :meth:`_stop_entry`.
    """

    def __init__(self) -> None:
        self._models: "dict[str, ServingModel]" = {}
        self._lock = threading.Lock()
        self._started = False

    def _add(self, entry: ServingModel) -> ServingModel:
        """Insert a built entry; it starts now if the registry is started."""
        with self._lock:
            if entry.name in self._models:
                raise ConfigurationError(f"model {entry.name!r} is already registered")
            self._models[entry.name] = entry
            started = self._started
        if started:
            self._start_entry(entry)
        return entry

    def _start_entry(self, entry: ServingModel) -> None:
        entry.batcher.start()

    def _stop_entry(self, entry: ServingModel, drain: bool, timeout: "float | None") -> None:
        entry.batcher.stop(drain=drain, timeout=timeout)

    def unregister(self, name: str, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Remove ``name``, stopping it (draining by default)."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise UnknownModelError(f"unknown model {name!r}")
        self._stop_entry(entry, drain, timeout)

    # -- lookup / routing ------------------------------------------------------

    def get(self, name: "str | None" = None) -> ServingModel:
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
        self,
        image,
        model: "str | None" = None,
        deadline_s: "float | None" = None,
    ) -> "Future[np.ndarray]":
        """Route one image to ``model``'s queue (see :meth:`RequestQueue.submit`)."""
        return self.get(model).batcher.submit(image, deadline_s=deadline_s)

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Start every registered model; later registrations auto-start."""
        with self._lock:
            self._started = True
            entries = list(self._models.values())
        for entry in entries:
            self._start_entry(entry)
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Stop every model, all bounded by **one** shared ``timeout``
        deadline (drain-then-stop by default) — one wedged model cannot
        stretch shutdown to models × timeout."""
        with self._lock:
            self._started = False
            entries = list(self._models.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        for entry in entries:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            self._stop_entry(entry, drain, remaining)

    def metrics_snapshot(self) -> dict:
        """``{model name: metrics snapshot}`` for every registered model.

        Each snapshot carries the engine's current plan summary under
        ``"plan"`` — GEMM rows per layer, k histogram, pruned-filter counts,
        and the traced-program block (fused-op counts, buffers eliminated,
        peak intermediate bytes, kernel cache hit counters) — so
        ``/metrics`` exposes both the sparsity state and the compilation
        state the model serves with (and reflects the recompiled plan after
        a hot weight refresh).  Cluster models add their worker, breaker
        and generation gauges.
        """
        with self._lock:
            entries = list(self._models.items())
        return {
            name: {**entry.metrics.snapshot(), "plan": entry.engine.plan_summary()}
            for name, entry in entries
        }


class ModelRegistry(BaseRegistry):
    """In-process serving: one :class:`MicroBatcher` per model.

    Args:
        batcher_config: Default :class:`BatcherConfig` applied to models
            registered without their own.
    """

    def __init__(self, batcher_config: "BatcherConfig | None" = None) -> None:
        super().__init__()
        self.batcher_config = batcher_config or BatcherConfig()

    def register(
        self,
        name: str,
        model: "Module | None" = None,
        engine: "InferenceEngine | None" = None,
        config: "BatcherConfig | None" = None,
        metrics: "ServerMetrics | None" = None,
    ) -> ServingModel:
        """Compile and register a model under ``name``.

        Exactly one of ``model`` (compiled here with ``on_stale="refresh"``)
        or ``engine`` (pre-built, e.g. with a custom dtype) must be given.
        If the registry is already started, the new model starts serving
        immediately.
        """
        if (model is None) == (engine is None):
            raise ConfigurationError("register() needs exactly one of model= or engine=")
        if engine is None:
            engine = InferenceEngine(model, on_stale="refresh")
        batcher = MicroBatcher(
            engine,
            config=config or self.batcher_config,
            metrics=metrics,
            image_shape=declared_image_shape(engine.model),
            name=name,
        )
        entry = self._add(
            ServingModel(name=name, engine=engine, batcher=batcher, metrics=batcher.metrics)
        )
        logger.info("registered model %r (%d plan ops)", name, len(engine.plan))
        return entry

    def refresh(self, name: "str | None" = None) -> int:
        """Hot weight update; returns the number of stale layers (0 if none).

        Recompiles the plan when any layer's weights changed, including raw
        ``.data`` edits the per-batch version check cannot see.  Queued and
        in-flight requests are untouched: each batch runs one whole plan.
        """
        entry = self.get(name)
        stale = entry.engine.refresh()
        if stale:
            logger.info("model %r: %d stale layer(s), plan recompiled", entry.name, stale)
        return stale
