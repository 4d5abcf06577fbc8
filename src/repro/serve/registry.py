"""Multi-model registry: warm compiled plans, routing, hot weight updates.

A :class:`ModelRegistry` owns one :class:`ServingModel` per name — the
compiled :class:`~repro.infer.engine.InferenceEngine`, its
:class:`~repro.serve.batcher.MicroBatcher` and its
:class:`~repro.serve.metrics.ServerMetrics` — and routes ``submit`` calls by
model name.  Registration compiles the plan up front, so the first request
to every model is already warm.

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
from repro.utils.logging import get_logger

__all__ = ["ServingModel", "ModelRegistry"]

logger = get_logger("serve.registry")


@dataclass
class ServingModel:
    """One registered model: engine + batcher + metrics, under one name."""

    name: str
    engine: InferenceEngine
    batcher: MicroBatcher
    metrics: ServerMetrics


class ModelRegistry:
    """Thread-safe name → :class:`ServingModel` map with lifecycle control.

    Args:
        batcher_config: Default :class:`BatcherConfig` applied to models
            registered without their own.
    """

    def __init__(self, batcher_config: "BatcherConfig | None" = None) -> None:
        self.batcher_config = batcher_config or BatcherConfig()
        self._models: "dict[str, ServingModel]" = {}
        self._lock = threading.Lock()
        self._started = False

    # -- registration ----------------------------------------------------------

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
        entry = ServingModel(name=name, engine=engine, batcher=batcher, metrics=batcher.metrics)
        with self._lock:
            if name in self._models:
                raise ConfigurationError(f"model {name!r} is already registered")
            self._models[name] = entry
            started = self._started
        if started:
            entry.batcher.start()
        logger.info("registered model %r (%d plan ops)", name, len(engine.plan))
        return entry

    def unregister(self, name: str, drain: bool = True) -> None:
        """Remove ``name``, stopping its batcher (draining by default)."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise UnknownModelError(f"unknown model {name!r}")
        entry.batcher.stop(drain=drain)

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
        """Route one image to ``model``'s batcher (see :meth:`MicroBatcher.submit`)."""
        return self.get(model).batcher.submit(image, deadline_s=deadline_s)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ModelRegistry":
        """Start every registered batcher; later registrations auto-start."""
        with self._lock:
            self._started = True
            entries = list(self._models.values())
        for entry in entries:
            entry.batcher.start()
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = 10.0) -> None:
        """Stop every batcher, all bounded by **one** shared ``timeout``
        deadline (drain-then-stop by default) — one wedged model cannot
        stretch shutdown to models × timeout."""
        with self._lock:
            self._started = False
            entries = list(self._models.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        for entry in entries:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            entry.batcher.stop(drain=drain, timeout=remaining)

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

    def metrics_snapshot(self) -> dict:
        """``{model name: metrics snapshot}`` for every registered model.

        Each snapshot carries the engine's current plan summary under
        ``"plan"`` — kernel choices, k histogram, pruned-filter counts, and
        the traced-program block (fused-op counts, buffers eliminated,
        peak intermediate bytes, kernel/autotune cache hit counters) — so
        ``/metrics`` exposes both the sparsity state and the compilation
        state the model serves with (and reflects the recompiled plan after
        a hot weight refresh).
        """
        with self._lock:
            entries = list(self._models.items())
        return {
            name: {**entry.metrics.snapshot(), "plan": entry.engine.plan_summary()}
            for name, entry in entries
        }
