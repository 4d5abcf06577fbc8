"""Per-layer kernel autotuning: measure, don't guess — and measure once.

Whether a shift-plane sum beats one dense GEMM depends on the kernel
shapes, the k histogram and how many rows each plane retains — a heuristic
over those would be wrong somewhere.  Instead, plan compilation executes the
op list once on a synthetic batch of the model's declared input shape and,
at each candidate op, times the two kernel variants *the traced executor
will actually run*: the generated, shape-specialized kernels from
:mod:`repro.infer.kernels` (``bind_standalone_producer``) on the backend
the traced program binds — native C whenever a toolchain is present and
the config does not ask for numpy — over the calibration activations with
warm private buffers, best-of-three wall time per variant.  Every
uncached candidate's variants are bound in one interpreter pass before any
is timed, so their native compiles run concurrently instead of one after
another.

Decisions persist in :data:`repro.infer.kernels.AUTOTUNE_CACHE`, keyed by
the full shape signature of the timing problem — op kind, input shape,
weight shape, conv geometry, shift-plane structure, dtype, backend.  A plan
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
from repro.infer.native.binding import bound_backend
from repro.infer.plan import ExecutionContext

__all__ = ["autotune_ops"]

#: Timing repetitions per kernel variant; the minimum wins.
_REPS = 3

_IMPLS = ("dense", "shift_plane")


def _best_time(thunk, record: dict) -> tuple[float, str]:
    """(best-of-``_REPS`` wall time, bound backend) of one warmed variant.

    A native kernel that declined or failed its first-call parity check is
    timed as the numpy kernel it falls back to, and reported as such.
    """
    best = float("inf")
    for _ in range(_REPS):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best, record.get("backend", "numpy")


def autotune_ops(
    ops: list,
    candidates: list[int],
    input_shape: tuple[int, int, int, int],
    dtype: np.dtype,
    backend: str = "auto",
) -> dict[int, dict]:
    """Pick the faster generated kernel per candidate op; set each winner.

    Args:
        ops: The compiled (post-pruning, post-plane-attachment) op list.
        candidates: ``op.index`` values with planes attached and an
            undecided kernel.
        input_shape: NCHW shape of the synthetic calibration batch.
        dtype: Plan compute dtype.
        backend: The plan's ``PlanConfig.backend``; both variants are timed
            on the backend the traced program will bind
            (:func:`~repro.infer.native.binding.bound_backend`).

    Returns:
        ``{op_index: {"chosen", "dense_s", "shift_plane_s", "backend",
        "cached"}}`` — timings come from the persistent cache when the
        layer's shape signature was measured before (``cached=True``).
    """
    backend = bound_backend(backend)
    ctx = ExecutionContext()
    ctx.slots[0] = np.zeros(input_shape, dtype)
    pending = set(candidates)
    report: dict[int, dict] = {}
    # Pass 1: one interpreter run that binds both variants of every
    # uncached candidate over a copy of its input; native binds start their
    # compiles without waiting.  The variants give identical bytes, so the
    # activations do not depend on which one each candidate runs here.
    # Candidates sharing a key share one measurement, as a cache hit would.
    unmeasured: dict[tuple, tuple[dict, list]] = {}
    for op in ops:
        if op.index in pending:
            x = ctx.slots[op.src]
            key = autotune_key(op, x.shape, dtype, backend)
            entry = AUTOTUNE_CACHE.get(key)
            if entry is not None:
                op.impl = entry["chosen"]
                report[op.index] = entry
            elif key in unmeasured:
                unmeasured[key][1].append(op)
            else:
                x = x.copy()
                bound = {}
                for impl in _IMPLS:
                    record: dict = {}
                    thunk, _ = bind_standalone_producer(op, x, impl, dtype, backend, record)
                    bound[impl] = (thunk, record)
                unmeasured[key] = (bound, [op])
        op.run(ctx)
    # Warm every variant — its first call waits for its compile and pays the
    # parity check — so no compiler competes with the timing pass.
    for bound, _ in unmeasured.values():
        for thunk, _ in bound.values():
            thunk()
    for key, (bound, same_key_ops) in unmeasured.items():
        timed = {impl: _best_time(*bound[impl]) for impl in _IMPLS}
        chosen = "shift_plane" if timed["shift_plane"][0] <= timed["dense"][0] else "dense"
        entry = {
            "chosen": chosen,
            "dense_s": timed["dense"][0],
            "shift_plane_s": timed["shift_plane"][0],
            "backend": timed[chosen][1],
            "cached": False,
        }
        AUTOTUNE_CACHE.put(key, {**entry, "cached": True})
        for i, op in enumerate(same_key_ops):
            op.impl = chosen
            report[op.index] = entry if i == 0 else {**entry, "cached": True}
    return report
