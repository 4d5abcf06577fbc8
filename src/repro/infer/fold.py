"""Conv + BatchNorm folding for the compiled inference engine.

In eval mode batch-norm is the fixed affine map

    y_c = gamma_c / sqrt(var_c + eps) * x_c + (beta_c - mean_c * gamma_c / sqrt(var_c + eps))

per channel ``c``.  Because convolution is linear, the multiplicative part
folds into the preceding convolution's weights (scaling each filter's row of
the im2col matmul) and the additive part becomes a per-filter bias — batch
norm then disappears from the execution plan entirely.

Folding happens on the *effective* (already quantized) weights the engine
caches, never on the master copies, so the model's training-time behaviour
and the quantized-value semantics are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.norm import BatchNorm2d

__all__ = [
    "bn_eval_affine",
    "fold_scale_into_weight",
    "bn_fingerprint",
    "dead_filter_rows",
    "slim_filter_rows",
]


def bn_eval_affine(bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    """Return the per-channel ``(scale, shift)`` of ``bn`` in eval mode."""
    std = np.sqrt(bn.running_var + bn.eps)
    scale = bn.gamma.data / std
    shift = bn.beta.data - bn.running_mean * scale
    return scale, shift


def fold_scale_into_weight(weight2d: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Scale each filter row of a flattened ``(F, C*kh*kw)`` weight matrix."""
    return weight2d * scale[:, None]


def dead_filter_rows(weight2d: np.ndarray) -> np.ndarray:
    """Indices of all-zero rows of a flattened ``(F, ...)`` weight matrix.

    After BN-scale folding these are exactly the filters whose output is a
    constant (their folded bias) everywhere — the targets of plan-time
    dead-filter elimination.  Zero weights contribute nothing through any
    padding, so the constant holds at the borders too.
    """
    w = np.asarray(weight2d)
    return np.flatnonzero(~w.any(axis=1))


def slim_filter_rows(
    weight2d: np.ndarray, bias: np.ndarray | None, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Drop pruned filter rows from a folded ``(weight2d, bias)`` pair."""
    w = np.ascontiguousarray(weight2d[live])
    return w, None if bias is None else np.ascontiguousarray(bias[live])


def bn_fingerprint(bn: BatchNorm2d) -> tuple:
    """Content fingerprint of ``bn``'s running statistics, by value.

    Every repo code path that writes the statistics (training-mode
    forwards, ``load_state_dict``) bumps ``bn.buffers_version``, and the
    engine's per-batch stale check reads only that counter.  This
    fingerprint is the slower second net, read by the full check
    (``refresh()``, ``predict_logits``, ``check_stale()``): it catches raw
    in-place edits of the statistics that never bumped the counter.
    """
    return (
        float(bn.running_mean.sum()),
        float(np.abs(bn.running_mean).sum()),
        float(bn.running_var.sum()),
    )
