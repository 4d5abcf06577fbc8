"""Plan-time dead-filter elimination with exact output parity.

A quantized filter with ``k_i = 0`` has an all-zero weight row: after BN
folding its output channel is the folded bias, a *constant* at every spatial
position (zero weights see nothing through padding either).  Removing the
filter therefore cannot change the network's output as long as that constant
keeps flowing downstream.  This pass makes the plan physically smaller:

1. per producer conv/linear op, find the dead rows of the folded weights;
2. walk the consumer graph pushing each dead channel's constant through the
   elementwise/pool ops in between, *replicating each op's exact arithmetic*
   on the constants (LeakyReLU's two-ufunc max, ActQuant's rint/clip chain,
   AvgPool's sequential accumulation) so parity is preserved to the same
   summation-order tolerance as the rest of the engine;
3. at each consuming conv/linear, split off the weight columns that read the
   dead channels: for a linear, their contribution ``consts @ W_dead`` is a
   fixed vector folded into the bias; for a conv with padding the
   contribution varies near the borders, so the removed columns and the
   constants are kept on the op, which materializes the resulting per-filter
   bias *map* lazily per input size (:meth:`ConvOp._dead_bias_map`);
4. slim the producer's rows, bias, and any standalone affine on the path.

A producer is left untouched ("blocked") when a dead channel reaches the
plan output, a residual :class:`AddOp`, a :class:`FallbackOp`, or a shape
the walk cannot reason about — correctness first, pruning second.  Rows
whose live columns are all zero but whose *removed* columns are not stay
unpruned too: their output is a bias map, not a single constant.
"""

from __future__ import annotations

import numpy as np

from repro.infer.fold import dead_filter_rows, slim_filter_rows
from repro.infer.plan import (
    ActQuantOp,
    AffineOp,
    AvgPoolOp,
    ConvOp,
    FlattenOp,
    GlobalAvgPoolOp,
    LeakyReluOp,
    LinearOp,
    MaxPoolOp,
)

__all__ = ["prune_plan"]


def _propagate_constants(op, consts: np.ndarray) -> np.ndarray:
    """Push per-channel constants through one elementwise/pool op.

    Mirrors the op's run() arithmetic operation-for-operation so constant
    folding rounds exactly like execution would have.
    """
    if isinstance(op, LeakyReluOp):
        if op.slope == 0.0:
            return np.maximum(consts, 0.0)
        return np.maximum(consts, np.multiply(consts, op.slope))
    if isinstance(op, ActQuantOp):
        out = np.multiply(consts, 1.0 / op.step)
        np.rint(out, out=out)
        np.clip(out, -op.half, op.half - 1, out=out)
        out *= op.step
        return out
    if isinstance(op, AvgPoolOp):
        # run() accumulates the k*k equal window values sequentially, then
        # scales — replay the same chain for identical rounding.
        total = consts.copy()
        for _ in range(op.kernel * op.kernel - 1):
            total = total + consts
        total *= 1.0 / (op.kernel * op.kernel)
        return total
    # MaxPool: max of equal constants; GlobalAvgPool: mean of equal values
    # (~1 ulp from pairwise summation, inside the engine's parity budget);
    # Flatten: pure reshape.
    return consts


def _trace(producer, out_slot: int, consumers: dict, dead: np.ndarray, consts0: np.ndarray):
    """Follow the dead channels downstream.

    Returns ``(affine_ops, terminals)`` — standalone affines to slim and
    ``(op, consts_at_input)`` conv/linear endpoints — or a string reason
    when pruning must be skipped.
    """
    affines: list[AffineOp] = []
    terminals: list[tuple[object, np.ndarray]] = []
    stack: list[tuple[int, np.ndarray]] = [(producer.dst, consts0)]
    while stack:
        slot, consts = stack.pop()
        if slot == out_slot:
            return "feeds the plan output"
        for op in consumers.get(slot, ()):
            if isinstance(op, (ConvOp, LinearOp)):
                terminals.append((op, consts))
            elif isinstance(op, AffineOp):
                new = np.multiply(consts, op.scale[dead])
                new += op.shift[dead]
                affines.append(op)
                stack.append((op.dst, new))
            elif isinstance(
                op, (LeakyReluOp, ActQuantOp, MaxPoolOp, AvgPoolOp, GlobalAvgPoolOp, FlattenOp)
            ):
                stack.append((op.dst, _propagate_constants(op, consts)))
            else:
                return f"consumed by {type(op).__name__}"
    return affines, terminals


def _slim_conv_input(op: ConvOp, channels: int, dead: np.ndarray, keep: np.ndarray,
                     consts: np.ndarray, dtype: np.dtype) -> None:
    """Drop the dead input-channel blocks from a consuming conv."""
    kk = op.kernel * op.kernel
    filters = op.weight2d.shape[0]
    w3 = op.weight2d.reshape(filters, channels, kk)
    dead_w = np.ascontiguousarray(w3[:, dead].reshape(filters, dead.size * kk))
    op.weight2d = np.ascontiguousarray(w3[:, keep].reshape(filters, keep.size * kk))
    op.in_live_cols = (keep[:, None] * kk + np.arange(kk)).ravel()
    if dead_w.any() and consts.any():
        op.dead_in_weight2d = dead_w.astype(dtype, copy=False)
        op.dead_in_consts = consts.astype(dtype, copy=False)
        op.dead_maps = {}


def _slim_linear_input(op: LinearOp, channels: int, dead: np.ndarray, keep: np.ndarray,
                       consts: np.ndarray, dtype: np.dtype) -> None:
    """Fold dead-feature contributions into the bias and drop the rows."""
    features, out_features = op.weight_t.shape
    hw = features // channels
    w3 = op.weight_t.reshape(channels, hw, out_features)
    dead_w = w3[dead].reshape(dead.size * hw, out_features)
    if dead_w.any() and consts.any():
        # Spatially uniform: every one of the hw positions of a dead
        # channel carries the same constant.
        contribution = np.repeat(consts, hw) @ dead_w
        if op.bias is None:
            op.bias = contribution.astype(dtype, copy=False)
        else:
            op.bias = (op.bias + contribution).astype(dtype, copy=False)
    op.weight_t = np.ascontiguousarray(w3[keep].reshape(keep.size * hw, out_features))
    op.in_live_cols = (keep[:, None] * hw + np.arange(hw)).ravel()


def prune_plan(ops: list, bindings: list, out_slot: int, dtype: np.dtype) -> dict:
    """Eliminate dead filters from a freshly emitted op list, in place.

    Processes producers in emission (topological) order, so a conv both
    slimmed on its inputs by an upstream producer and pruned on its own
    rows sees each edit exactly once.  Returns a report with per-op-index
    ``{"dead_at_build", "pruned", "blocked"}`` entries and the total
    ``pruned_filters`` count.
    """
    consumers: dict[int, list] = {}
    for op in ops:
        consumers.setdefault(op.src, []).append(op)
        src2 = getattr(op, "src2", None)
        if src2 is not None:
            consumers.setdefault(src2, []).append(op)
    report: dict = {"pruned_filters": 0, "layers": {}}
    for binding in bindings:
        producer = ops[binding.op_index]
        if isinstance(producer, ConvOp):
            w = producer.weight2d
        elif isinstance(producer, LinearOp):
            w = producer.weight_t.T
        else:
            continue
        dead_mask = np.zeros(w.shape[0], dtype=bool)
        dead_mask[dead_filter_rows(w)] = True
        if isinstance(producer, ConvOp) and producer.dead_in_weight2d is not None:
            # A row that kept no live weight but reads pruned channels
            # outputs a spatially-varying bias map, not a constant.
            dead_mask &= ~producer.dead_in_weight2d.any(axis=1)
        dead = np.flatnonzero(dead_mask)
        entry = {"dead_at_build": int(dead.size), "pruned": 0, "blocked": None}
        report["layers"][binding.op_index] = entry
        if dead.size == 0:
            continue
        channels = int(w.shape[0])
        if dead.size == channels:
            entry["blocked"] = "all filters dead (kept as constant layer)"
            continue
        bias = producer.bias
        consts0 = (
            np.zeros(dead.size, dtype=dtype) if bias is None else bias[dead].astype(dtype)
        )
        traced = _trace(producer, out_slot, consumers, dead, consts0)
        if isinstance(traced, str):
            entry["blocked"] = traced
            continue
        affines, terminals = traced
        keep = np.flatnonzero(~dead_mask)
        for terminal, consts in terminals:
            if isinstance(terminal, ConvOp):
                in_channels = terminal.weight2d.shape[1] // (terminal.kernel * terminal.kernel)
                if in_channels != channels:
                    entry["blocked"] = "consumer channel count mismatch"
                    break
                if terminal.in_live_cols is not None:
                    entry["blocked"] = "consumer input already slimmed"
                    break
            else:
                if terminal.weight_t.shape[0] % channels != 0:
                    entry["blocked"] = "flattened features not divisible by channel count"
                    break
                if terminal.in_live_cols is not None:
                    entry["blocked"] = "consumer input already slimmed"
                    break
        if entry["blocked"] is not None:
            continue
        # Point of no return: apply every edit of this producer's pruning.
        if isinstance(producer, ConvOp):
            producer.weight2d, producer.bias = slim_filter_rows(
                producer.weight2d, producer.bias, keep
            )
            if producer.dead_in_weight2d is not None:
                producer.dead_in_weight2d = np.ascontiguousarray(
                    producer.dead_in_weight2d[keep]
                )
                producer.dead_maps = {}
        else:
            producer.weight_t = np.ascontiguousarray(producer.weight_t[:, keep])
            if producer.bias is not None:
                producer.bias = np.ascontiguousarray(producer.bias[keep])
        producer.live_rows = keep
        for affine in affines:
            affine.scale = np.ascontiguousarray(affine.scale[keep])
            affine.shift = np.ascontiguousarray(affine.shift[keep])
        for terminal, consts in terminals:
            if isinstance(terminal, ConvOp):
                _slim_conv_input(terminal, channels, dead, keep, consts, dtype)
            else:
                _slim_linear_input(terminal, channels, dead, keep, consts, dtype)
        entry["pruned"] = int(dead.size)
        report["pruned_filters"] += int(dead.size)
    return report
