"""Generational shared-memory store for one model's compiled plan.

The supervisor publishes the engine's
:meth:`~repro.infer.plan.ExecutionPlan.payload` exactly once per *generation*
into shared memory (via :mod:`repro.utils.shm`); every worker process then
attaches the same pages instead of receiving its own pickled copy.  A hot
weight refresh publishes a new generation, ships the new handle to the
workers, awaits their acks, and only then retires the old generation — so a
worker is never left holding views over unlinked pages.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory

from repro.errors import ClusterError
from repro.utils.logging import get_logger
from repro.utils.shm import ShmHandle, publish_object

_log = get_logger("serve.cluster.shm")

__all__ = ["PlanGeneration", "ShmPlanStore"]


@dataclass(frozen=True)
class PlanGeneration:
    """One immutable published plan.

    ``handle`` (a :class:`~repro.utils.shm.ShmHandle`) is what travels to
    workers; ``segment`` is the owning
    :class:`~multiprocessing.shared_memory.SharedMemory`, kept alive by the
    store until :meth:`ShmPlanStore.retire`.
    """

    generation: int
    handle: ShmHandle
    segment: SharedMemory

    @property
    def handles(self) -> dict:
        """``{"plan": handle}`` — the generation's segments by name, for
        byte accounting (``sum(h.total_bytes for h in handles.values())``)."""
        return {"plan": self.handle}


class ShmPlanStore:
    """Owns the shared-memory lifetime of a model's plan generations.

    Args:
        min_bytes: Hoisting threshold forwarded to
            :func:`~repro.utils.shm.publish_object`.
    """

    def __init__(self, min_bytes: int = 1024) -> None:
        self.min_bytes = min_bytes
        self._lock = threading.Lock()
        self._generation = 0
        self._current: "PlanGeneration | None" = None
        self._retired: "list[PlanGeneration]" = []
        self._closed = False

    @property
    def current(self) -> "PlanGeneration | None":
        """The latest published generation (``None`` before first publish)."""
        with self._lock:
            return self._current

    def publish(self, payload: dict) -> PlanGeneration:
        """Publish a new generation from one ``plan.payload()``.

        The previous generation (if any) stays alive — workers may still be
        serving from it — until the caller confirms every worker has acked
        the new one and calls :meth:`retire`.
        """
        with self._lock:
            if self._closed:
                raise ClusterError("plan store is closed")
            if not payload:
                raise ClusterError("cannot publish an empty plan payload")
            self._generation += 1
            handle, segment = publish_object(
                payload, min_bytes=self.min_bytes, name_prefix=f"repro-plan-g{self._generation}"
            )
            previous = self._current
            self._current = PlanGeneration(self._generation, handle, segment)
            if previous is not None:
                self._retired.append(previous)
            _log.debug(
                "published plan generation %d (%d bytes)", self._generation, handle.total_bytes
            )
            return self._current

    def retire(self, upto_generation: int) -> None:
        """Unlink every superseded generation ``<= upto_generation``.

        Safe to call once all workers have acked a newer generation; until
        then superseded segments are merely queued here.
        """
        with self._lock:
            keep = []
            for gen in self._retired:
                if gen.generation <= upto_generation:
                    _unlink(gen)
                else:
                    keep.append(gen)
            self._retired = keep

    def close(self) -> None:
        """Unlink everything, current generation included (shutdown path)."""
        with self._lock:
            self._closed = True
            for gen in self._retired:
                _unlink(gen)
            self._retired = []
            if self._current is not None:
                _unlink(self._current)
                self._current = None


def _unlink(gen: PlanGeneration) -> None:
    try:
        gen.segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    try:
        gen.segment.close()
    except BufferError:  # pragma: no cover - a live local view pins the buffer
        pass
