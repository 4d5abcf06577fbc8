"""Per-layer kernel autotuning: measure, don't guess — and measure once.

Whether a shift-plane sum beats one dense GEMM depends on the BLAS kernel
shapes, the k histogram and how many rows each plane retains — a heuristic
over those would be wrong somewhere.  Instead, plan compilation executes the
op list once on a synthetic batch of the model's declared input shape and,
at each candidate op, times the kernel *variants the traced executor will
actually run*: the generated, shape-specialized kernels from
:mod:`repro.infer.kernels` (``bind_standalone_producer``), bound over the
calibration activations with warm private buffers, best-of-``reps`` wall
time per variant.

Decisions persist in :data:`repro.infer.kernels.AUTOTUNE_CACHE`, keyed by
the full shape signature of the timing problem — op kind, input shape,
weight shape, conv geometry, shift-plane structure, dtype, reps.  A plan
rebuild whose layers are shape-identical (the common hot-weight-refresh
case: new values, same structure) reuses the previous measurement instead
of re-timing every layer; a rebuild whose dead-filter structure drifted
gets a different signature and re-measures.  Cached decisions carry
``"cached": True`` in the report.

The pass runs only when ``PlanConfig.kernel == "auto"`` finds candidates —
layers still carrying dead rows after pruning — so models without sparsity
pay no calibration cost at all.
"""

from __future__ import annotations

import time

import numpy as np

from repro.infer.kernels import AUTOTUNE_CACHE, autotune_key, bind_standalone_producer
from repro.infer.plan import ExecutionContext

__all__ = ["autotune_ops"]

_IMPLS = ("dense", "shift_plane")


def _native_available() -> bool:
    try:
        from repro.infer.native import binding

        return binding.available()
    except Exception:
        return False


def _time_variant(op, x: np.ndarray, impl: str, dtype: np.dtype, reps: int) -> float:
    """Best-of-``reps`` wall time of the generated ``impl`` kernel on ``x``."""
    thunk, _ = bind_standalone_producer(op, x, impl, dtype)
    best = float("inf")
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def _time_native_variant(op, x: np.ndarray, impl: str, dtype: np.dtype, reps: int) -> float:
    """Best-of-``reps`` wall time of the native ``impl`` kernel, or inf.

    The warm-up call pays the compile and the first-call parity check; a
    variant that declined or failed its bitwise check reports inf so it can
    never win the tournament.
    """
    record: dict = {}
    try:
        thunk, _ = bind_standalone_producer(op, x, impl, dtype, backend="native", record=record)
        thunk()
    except Exception:
        return float("inf")
    if record.get("backend") != "native":
        return float("inf")
    best = float("inf")
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def autotune_ops(
    ops: list,
    candidates: list[int],
    input_shape: tuple[int, int, int, int],
    dtype: np.dtype,
    reps: int = 3,
    backend: str = "auto",
) -> dict[int, dict]:
    """Pick the fastest generated kernel per candidate op; set each winner.

    With ``backend`` "auto" or "native" and a working toolchain, the
    tournament widens to the native C variants of the same kernels: the
    numpy winner is chosen exactly as before, then a native variant that
    beat it flips the op to ``backend="native"``.  Native timings ride the
    same persistent cache entry (keys grow a ``"native"`` marker so
    toolchain-free hosts never reuse a native-informed decision).

    Args:
        ops: The compiled (post-pruning, post-plane-attachment) op list.
        candidates: ``op.index`` values with planes attached and an
            undecided kernel.
        input_shape: NCHW shape of the synthetic calibration batch.
        dtype: Plan compute dtype.
        reps: Timing repetitions per kernel; minimum wins.
        backend: The plan's ``PlanConfig.backend`` knob.

    Returns:
        ``{op_index: {"chosen", "dense_s", "shift_plane_s", "backend",
        "cached", ...}}`` — timings come from the persistent cache when the
        layer's shape signature was measured before (``cached=True``).
    """
    time_native = backend in ("auto", "native") and _native_available()
    ctx = ExecutionContext()
    ctx.slots[0] = np.zeros(input_shape, dtype)
    pending = set(candidates)
    report: dict[int, dict] = {}
    for op in ops:
        if op.index not in pending:
            op.run(ctx)
            continue
        x = ctx.slots[op.src]
        key = autotune_key(op, x.shape, dtype, reps)
        if time_native:
            key = key + ("native",)
        entry = AUTOTUNE_CACHE.get(key)
        if entry is None:
            timings = {impl: _time_variant(op, x, impl, dtype, reps) for impl in _IMPLS}
            chosen = "shift_plane" if timings["shift_plane"] <= timings["dense"] else "dense"
            entry = {
                "chosen": chosen,
                "dense_s": timings["dense"],
                "shift_plane_s": timings["shift_plane"],
                "backend": "numpy",
                "cached": False,
            }
            if time_native:
                native = {
                    impl: _time_native_variant(op, x, impl, dtype, reps) for impl in _IMPLS
                }
                entry["native_dense_s"] = native["dense"]
                entry["native_shift_plane_s"] = native["shift_plane"]
                native_best = (
                    "shift_plane" if native["shift_plane"] <= native["dense"] else "dense"
                )
                if native[native_best] < timings[chosen]:
                    entry["chosen"] = native_best
                    entry["backend"] = "native"
            AUTOTUNE_CACHE.put(key, {**entry, "cached": True})
        op.impl = entry["chosen"]
        op.backend = entry.get("backend", "numpy")
        op.run(ctx)
        report[op.index] = entry
    return report
