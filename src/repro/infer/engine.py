"""The compiled inference engine: fast grad-free prediction and evaluation.

:class:`InferenceEngine` compiles a trained model once
(:func:`~repro.infer.plan.compile_network`) and then serves predictions from
the flat plan: quantized weights are cached, batch-norm is folded away, no
autograd graph is built, scratch buffers are reused across batches, and
batches can be sharded across threads (``predict_logits(workers=N)``).

Staleness: the plan snapshots version counters and content fingerprints of
every source weight and batch-norm running statistic at build time.  Every
repo code path that writes them (optimizer steps, ``load_state_dict``,
training-mode batch-norm forwards) bumps a counter.  :meth:`forward_batch`
checks only the counters, a few ints per layer, so raw in-place edits that
bypass them go unseen there; :meth:`check_stale` (by default),
:meth:`refresh`, :meth:`predict_logits` and :meth:`evaluate` also compare
the content fingerprints and catch those too.  ``on_stale`` controls what
happens when the model has since been trained or mutated:

* ``"refresh"`` (default) — transparently recompile the plan against the
  current weights before predicting;
* ``"error"`` — raise :class:`~repro.errors.StalePlanError`;
* ``"ignore"`` — serve the cached weights anyway (explicit opt-out).

Concurrency contract (what the serving layer in :mod:`repro.serve` relies
on):

* the stale-check/refresh path is serialized by an internal lock, so a
  weight change triggers one recompile even when several threads see it;
* :meth:`predict_logits` / :meth:`evaluate` are re-entrant — each call
  borrows a private :class:`ExecutionContext` from an internal pool and
  copies results out of its scratch buffers before returning it;
* :meth:`forward_batch` returns a live scratch buffer, so concurrent callers
  **must** each pass their own context from :meth:`make_context` — one
  context per worker thread, never shared between in-flight batches;
* plans are immutable: a refresh compiles a new plan and swaps
  ``self.plan``, so a batch (or a whole :meth:`predict_logits` call) that
  races a refresh finishes on the plan it started with — one weight
  version per call, with no quiesce needed.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, StalePlanError
from repro.infer.plan import ExecutionContext, ExecutionPlan, PlanConfig, compile_network
from repro.nn.functional import _log_softmax_data
from repro.nn.module import Module
from repro.train.metrics import accuracy, topk_accuracy
from repro.utils.profiler import PhaseProfiler, use_profiler

__all__ = ["InferenceEngine", "shard_slices"]

_ON_STALE = ("refresh", "error", "ignore")


def shard_slices(total: int, batch_size: int) -> list[slice]:
    """Contiguous batch slices covering ``range(total)`` in order.

    ``total == 0`` yields an empty list; ``total < batch_size`` yields one
    short slice covering everything.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    return [slice(s, min(s + batch_size, total)) for s in range(0, total, batch_size)]


class InferenceEngine:
    """Compiled, cache-backed inference for a (quantized) network.

    Args:
        model: Model to compile — typically a
            :class:`~repro.models.network.QuantizedNetwork`.
        batch_size: Default internal batch size for :meth:`predict_logits` /
            :meth:`evaluate`.  Purely an execution granularity — results are
            identical at any value.  The default of 32 keeps each im2col
            column matrix cache-resident, which on the small Table-1
            networks beats batch 256 by 20-40% on one core.
        on_stale: Stale-weight policy (see module docstring).
        dtype: Compute precision override.  Defaults to float64, which
            reproduces eager logits to ~1e-13; pass
            ``dtype=plan_dtype(model)`` to opt into the float32 deployment
            mode for quantized networks (see
            :func:`~repro.infer.plan.plan_dtype`).
        config: Sparsity/trace-pass knobs
            (:class:`~repro.infer.plan.PlanConfig`): dead-filter pruning,
            traced-program execution (``trace``), the compute dtype and the
            kernel backend.  Every refresh recompiles with the same config.
        profile: Attach a :class:`~repro.utils.profiler.PhaseProfiler` to
            this engine and time every execution phase with per-IR-op names
            (``ir3:conv[dense]+lrelu+aq`` on the traced path,
            ``op3:ConvOp`` on the interpreter), accumulated across batches
            and surfaced through :meth:`plan_summary` under ``"timings"``.
            Off by default — the per-op timer calls cost a few percent.
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 32,
        on_stale: str = "refresh",
        dtype: "np.dtype | None" = None,
        config: PlanConfig | None = None,
        profile: bool = False,
    ) -> None:
        if on_stale not in _ON_STALE:
            raise ConfigurationError(f"unknown on_stale policy {on_stale!r}; use one of {_ON_STALE}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.on_stale = on_stale
        self.config = config or PlanConfig()
        self.profiler: "PhaseProfiler | None" = PhaseProfiler() if profile else None
        self.plan: ExecutionPlan = compile_network(model, dtype=dtype, config=self.config)
        self._ctx = ExecutionContext()
        # Serializes stale-check/refresh so concurrent callers trigger one
        # recompile per weight change, not one each.
        self._refresh_lock = threading.Lock()
        # Reuse pool backing the re-entrant predict/evaluate paths: contexts
        # are borrowed per call and returned once results are copied out.
        self._ctx_pool: "queue.SimpleQueue[ExecutionContext]" = queue.SimpleQueue()

    # -- execution contexts ----------------------------------------------------

    def make_context(self) -> ExecutionContext:
        """A fresh private scratch context for one worker thread.

        Concurrent callers of :meth:`forward_batch` must each own one —
        scratch buffers are reused across batches *within* a context, so
        sharing one between in-flight batches corrupts both.
        """
        return ExecutionContext()

    def _borrow_context(self) -> ExecutionContext:
        try:
            return self._ctx_pool.get_nowait()
        except queue.Empty:
            return ExecutionContext()

    # -- staleness -------------------------------------------------------------

    def _refresh_stale_locked(self, stale: list) -> int:
        """Recompile the plan under the lock; returns ``len(stale)``.

        Every refresh is a full :func:`compile_network`, so pruning, the
        live-row GEMMs and the int8 program all follow the new weights (a
        new k histogram can move the dead-filter layout).  The swap is atomic under the refresh lock; callers still
        running the old plan finish on it.
        """
        for b in stale:
            # Quantize caches may hold arrays from raw .data mutations that
            # never bumped a version; drop them so the recompile sees fresh
            # weights.
            if hasattr(b.layer, "invalidate_weight_cache"):
                b.layer.invalidate_weight_cache()
        self.plan = compile_network(self.model, dtype=self.plan.dtype, config=self.config)
        return len(stale)

    def check_stale(self, fingerprint: bool = True) -> int:
        """Apply the ``on_stale`` policy; returns the number of stale
        layers that triggered a recompile (0 when nothing was stale).

        ``fingerprint=False`` compares the version counters only (what
        :meth:`forward_batch` runs); the default also compares the content
        fingerprints, catching raw edits that bumped no counter.

        Thread-safe: the check-and-refresh runs under the engine's refresh
        lock, so concurrent callers trigger one recompile, not several.
        """
        if self.on_stale == "ignore":
            return 0
        with self._refresh_lock:
            stale = self.plan.stale_bindings(fingerprint=fingerprint)
            if not stale:
                return 0
            if self.on_stale == "error":
                layers = sorted({type(b.layer).__name__ for b in stale})
                raise StalePlanError(
                    f"{len(stale)} layer(s) have mutated weights ({', '.join(layers)}); "
                    "call refresh() or construct the engine with on_stale='refresh'"
                )
            return self._refresh_stale_locked(stale)

    def refresh(self) -> int:
        """Recompile the plan if any layer is stale (content fingerprints
        included); returns the number of stale layers, 0 if none."""
        with self._refresh_lock:
            stale = self.plan.stale_bindings()
            if not stale:
                return 0
            return self._refresh_stale_locked(stale)

    def plan_summary(self) -> dict:
        """Current plan metadata (kernel choices, k histograms, pruning,
        traced-program stats) plus accumulated per-phase timings when the
        engine was built with ``profile=True``."""
        summary = self.plan.summary()
        if self.profiler is not None:
            summary["timings"] = {
                "totals": self.profiler.summary(),
                "counts": dict(self.profiler.counts),
            }
        return summary

    # -- prediction ------------------------------------------------------------

    def forward_batch(
        self,
        images: np.ndarray,
        check_stale: bool = True,
        ctx: ExecutionContext | None = None,
    ) -> np.ndarray:
        """Logits for one NCHW batch.

        The returned array is a scratch buffer owned by the context, valid
        until that context's next batch — copy it to keep it.  ``ctx``
        defaults to the engine's own single-threaded context; concurrent
        callers (e.g. micro-batcher workers) must pass a private context
        from :meth:`make_context` instead.  ``check_stale`` here uses the
        cheap version-counter check only (no content fingerprints), to keep
        the hot path hot; the profiler is entered only when the engine
        profiles.
        """
        if check_stale:
            self.check_stale(fingerprint=False)
        if ctx is None:
            ctx = self._ctx
        if self.profiler is None:
            return self.plan.execute(images, ctx)
        with use_profiler(self.profiler):
            return self.plan.execute(images, ctx)

    def predict_logits(
        self,
        images: "np.ndarray | ArrayDataset",
        batch_size: int | None = None,
        workers: int = 1,
    ) -> np.ndarray:
        """Logits for a full dataset/array, in input order.

        Re-entrant: each call borrows private scratch contexts, so the same
        engine may serve overlapping calls from several threads.

        Args:
            images: NCHW array or :class:`ArrayDataset`.
            batch_size: Per-batch size (defaults to the engine's).
            workers: Threads to shard batches across.  1 runs serially in
                this thread; N > 1 runs the batches on a thread pool, each
                task borrowing a context from the engine's pool.  Batch
                ``i`` always lands at rows ``i*batch_size...``, so the
                result is byte-identical to ``workers=1``.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if isinstance(images, ArrayDataset):
            images = images.images
        self.check_stale()
        # Every shard runs this one plan, even if a refresh swaps in a new
        # one mid-call.
        plan = self.plan
        # One up-front cast to the plan's compute dtype, so per-batch
        # execute() sees its native precision and converts nothing.
        images = np.asarray(images, dtype=plan.dtype)
        batch_size = batch_size or self.batch_size
        slices = shard_slices(len(images), batch_size)
        if not slices:
            raise ConfigurationError("cannot run inference on an empty image array")

        def run(sl: slice) -> np.ndarray:
            ctx = self._borrow_context()
            try:
                return plan.execute(images[sl], ctx).copy()
            finally:
                # The rows were copied out, so the context's scratch buffers
                # are free to recycle for the next batch or call.
                self._ctx_pool.put(ctx)

        if workers == 1:
            # The profiler keeps one phase stack, so only the serial path
            # is timed.
            with use_profiler(self.profiler):
                parts = [run(sl) for sl in slices]
        else:
            # Never spawn more threads than there are shards.
            with ThreadPoolExecutor(max_workers=min(workers, len(slices))) as pool:
                parts = list(pool.map(run, slices))
        return np.concatenate(parts)

    def predict(self, images: "np.ndarray | ArrayDataset", **kwargs) -> np.ndarray:
        """Predicted class indices (argmax of :meth:`predict_logits`)."""
        return np.argmax(self.predict_logits(images, **kwargs), axis=1)

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        dataset: ArrayDataset,
        batch_size: int | None = None,
        workers: int = 1,
    ) -> dict[str, float]:
        """Loss / top-1 / top-5 on ``dataset`` — drop-in for eager evaluation.

        Matches :meth:`repro.train.trainer.Trainer.evaluate` output exactly
        (same mean cross-entropy, same accuracy definitions).
        """
        logits = self.predict_logits(dataset, batch_size=batch_size, workers=workers)
        labels = dataset.labels
        log_probs = _log_softmax_data(logits)
        loss = float(-log_probs[np.arange(len(labels)), labels].mean())
        k5 = min(5, dataset.num_classes)
        return {
            "loss": loss,
            "accuracy": accuracy(logits, labels),
            "top5": topk_accuracy(logits, labels, k5),
        }
