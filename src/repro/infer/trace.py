"""Symbolic tracing: one recorded pass of an :class:`ExecutionPlan` into IR.

:func:`trace_plan` executes the plan's op list *symbolically* for one input
shape: instead of arrays, values flow as :class:`Val` records (static full-
batch shape + producer + readers), and each plan op lowers to one
:class:`IRNode` — a typed instruction whose sources and destination are val
ids.  The result is a linear program with explicit dataflow, which is what
the optimizer in :mod:`repro.infer.fuse` needs to reason about epilogue
fusion legality (single-reader intermediates), buffer lifetimes (liveness
intervals over node positions) and batch-blocking legality (every node kind
recorded here except ``linear``/``fallback`` is per-sample independent).

Tracing is *total or nothing*: any op the lowering doesn't understand, any
shape that doesn't propagate cleanly (and any exception at all — tracing
must never take execution down) returns ``None``, and the plan keeps
running through the op-by-op interpreter for that input shape.  A
``FallbackOp`` is traceable — its output shape is learned by probing the
wrapped module on a single zero sample — but pins itself and everything
after it to full-batch execution.

:func:`trace_intq` lowers an int8 plan's integer program into the same IR
(values then carry integer dtypes).  It has no interpreter behind it, so
it raises instead of returning ``None``.

Shapes recorded here mirror each op's ``run()`` arithmetic exactly (same
floor-division output sizes, same im2col column counts), so a program built
from this IR computes the same ufunc calls on the same shapes as the
interpreter — the foundation of the fused path's bitwise parity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from repro.infer.plan import (
    ActQuantOp,
    AddOp,
    AffineOp,
    AvgPoolOp,
    ConvOp,
    ExecutionPlan,
    FallbackOp,
    FlattenOp,
    GlobalAvgPoolOp,
    LeakyReluOp,
    LinearOp,
    MaxPoolOp,
)
from repro.errors import CompileError
from repro.infer.intq.build import (
    IntAddOp,
    IntAffineOp,
    IntConvOp,
    IntDequantizeOp,
    IntFlattenOp,
    IntGapSumOp,
    IntLinearOp,
    IntMaxPoolOp,
    IntQuantizeOp,
    IntStepOp,
    IntSumPoolOp,
)
from repro.nn.tensor import Tensor, no_grad
from repro.utils.logging import get_logger

__all__ = ["Val", "IRNode", "IRProgram", "trace_plan", "trace_intq", "build_traced_program"]

logger = get_logger("infer.trace")


@dataclass
class Val:
    """One SSA value: a full-batch intermediate with static shape and dtype.

    ``alias_of`` marks pure reshapes (flatten) that share the root value's
    storage; passes always resolve reads to the root.  ``producer`` and
    ``readers`` hold :class:`IRNode` objects (stable across node removal).
    """

    id: int
    shape: tuple
    dtype: np.dtype
    producer: "IRNode | None" = None
    alias_of: "int | None" = None
    readers: list = field(default_factory=list)


@dataclass
class IRNode:
    """One typed instruction: base computation + fused elementwise epilogue.

    ``kind`` is one of ``conv | linear | eltwise | maxpool | avgpool | gap |
    add | flatten | fallback``.  ``op`` is the originating plan op (arrays
    and geometry are read from it at bind time).
    ``head`` (eltwise only) is the node's own elementwise step; ``epilogue``
    holds steps fused in behind the base computation by the optimizer.

    An int8 program's nodes reuse the kinds: its sum-pool is ``avgpool``,
    its GAP sum ``gap``, and the input quantize, LeakyReLU and rescale
    steps, affine and output dequantize are ``eltwise`` heads
    (``("quantize",)``, a step tuple of
    :data:`~repro.infer.intq.kernels.STEP_ARGS`, ``("affine",)``,
    ``("dequantize",)``); ``op`` is the int op.
    """

    index: int  # originating plan-op index (phase names, diagnostics)
    kind: str
    op: object
    srcs: tuple
    dst: int
    head: "tuple | None" = None
    epilogue: list = field(default_factory=list)


@dataclass
class IRProgram:
    """A traced plan: linear node list over a val table, for one input shape.

    ``intq`` marks a traced int8 program (integer nodes between a float64
    input and float64 logits).
    """

    nodes: list
    vals: list
    out_val: int
    input_shape: tuple
    intq: bool = False


class _Recorder:
    """Slot -> value bookkeeping while lowering an op list."""

    def __init__(self, input_shape: tuple, dtype) -> None:
        self.vals: list[Val] = [Val(0, input_shape, np.dtype(dtype))]
        self.slot_val: dict[int, int] = {0: 0}
        self.nodes: list[IRNode] = []

    def emit(self, op, kind: str, srcs: tuple, shape: tuple, dtype, head=None) -> None:
        node = IRNode(op.index, kind, op, srcs, -1, head=head)
        self.vals.append(
            Val(len(self.vals), tuple(int(s) for s in shape), np.dtype(dtype), producer=node)
        )
        node.dst = self.vals[-1].id
        for s in srcs:
            self.vals[s].readers.append(node)
        self.nodes.append(node)
        self.slot_val[op.dst] = node.dst


def _conv_out_shape(op: ConvOp, src: tuple) -> "tuple | None":
    if len(src) != 4:
        return None
    n, c, h, w = src
    k, s, p = op.kernel, op.stride, op.padding
    if op.weight2d.shape[1] != c * k * k:
        return None  # channel layout drifted from the traced input
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        return None
    return (n, op.weight2d.shape[0], oh, ow)


def _pool_out_shape(op, src: tuple) -> "tuple | None":
    if len(src) != 4:
        return None
    oh = (src[2] - op.kernel) // op.stride + 1
    ow = (src[3] - op.kernel) // op.stride + 1
    if oh < 1 or ow < 1:
        return None
    return (src[0], src[1], oh, ow)


def _fallback_out_shape(op: FallbackOp, src: tuple, dtype: np.dtype) -> "tuple | None":
    """Learn the module's output shape by probing one zero sample."""
    try:
        with no_grad():
            out = op.module(Tensor(np.zeros((1,) + src[1:], dtype))).data
    except Exception:
        return None
    return (src[0],) + tuple(out.shape[1:])


def trace_plan(plan: ExecutionPlan, input_shape: tuple) -> "IRProgram | None":
    """Record ``plan`` as an :class:`IRProgram` for ``input_shape``.

    Returns ``None`` whenever any op fails to lower — callers fall back to
    the op-by-op interpreter, never error.
    """
    input_shape = tuple(int(s) for s in input_shape)
    if len(input_shape) != 4:
        return None
    rec = _Recorder(input_shape, plan.dtype)
    vals, slot_val = rec.vals, rec.slot_val

    def emit(op, kind: str, srcs: tuple, shape: tuple, head=None) -> None:
        rec.emit(op, kind, srcs, shape, plan.dtype, head)

    for op in plan.ops:
        src = slot_val.get(op.src)
        if src is None:
            return None
        shape = vals[src].shape
        if isinstance(op, ConvOp):
            out = _conv_out_shape(op, shape)
            if out is None:
                return None
            emit(op, "conv", (src,), out)
        elif isinstance(op, LinearOp):
            if len(shape) != 2 or shape[1] != op.weight_t.shape[0]:
                return None
            emit(op, "linear", (src,), (shape[0], op.weight_t.shape[1]))
        elif isinstance(op, LeakyReluOp):
            emit(op, "eltwise", (src,), shape, head=("lrelu", float(op.slope)))
        elif isinstance(op, ActQuantOp):
            emit(op, "eltwise", (src,), shape, head=("aq", float(op.step), float(op.half)))
        elif isinstance(op, AffineOp):
            if len(shape) != 4 or shape[1] != op.scale.size:
                return None
            emit(op, "eltwise", (src,), shape, head=("affine", op.scale, op.shift))
        elif isinstance(op, MaxPoolOp) or isinstance(op, AvgPoolOp):
            out = _pool_out_shape(op, shape)
            if out is None:
                return None
            emit(op, "maxpool" if isinstance(op, MaxPoolOp) else "avgpool", (src,), out)
        elif isinstance(op, GlobalAvgPoolOp):
            if len(shape) != 4:
                return None
            emit(op, "gap", (src,), shape[:2])
        elif isinstance(op, AddOp):
            src2 = slot_val.get(op.src2)
            if src2 is None or vals[src2].shape != shape:
                return None
            emit(op, "add", (src, src2), shape)
        elif isinstance(op, FlattenOp):
            emit(op, "flatten", (src,), (shape[0], prod(shape[1:])))
        elif isinstance(op, FallbackOp):
            out = _fallback_out_shape(op, shape, plan.dtype)
            if out is None:
                return None
            emit(op, "fallback", (src,), out)
        else:
            return None  # unknown op type: stay on the interpreter
    out_val = slot_val.get(plan.out_slot)
    if out_val is None or out_val == 0:
        return None
    return IRProgram(rec.nodes, vals, out_val, input_shape)


def _intq_node(op, shape: tuple, dtype: np.dtype):
    """``(kind, output shape, output dtype, head)`` of one int op, or
    ``None`` when it does not fit ``shape``."""
    if isinstance(op, IntQuantizeOp):
        return "eltwise", shape, np.int32, ("quantize",)
    if isinstance(op, IntDequantizeOp):
        return "eltwise", shape, np.float64, ("dequantize",)
    if isinstance(op, IntStepOp):
        return "eltwise", shape, dtype if op.step[0].startswith("lrelu") else np.int32, op.step
    if isinstance(op, IntAffineOp):
        if len(shape) != 4 or shape[1] != op.m0.shape[0]:
            return None
        return "eltwise", shape, op.out_dtype, ("affine",)
    if isinstance(op, IntConvOp):
        if len(shape) != 4 or op.consts["W"].shape[1] != shape[1] * op.kernel**2:
            return None
        oh = (shape[2] + 2 * op.padding - op.kernel) // op.stride + 1
        ow = (shape[3] + 2 * op.padding - op.kernel) // op.stride + 1
        if oh < 1 or ow < 1:
            return None
        return "conv", (shape[0], op.filters, oh, ow), op.out_dtype, None
    if isinstance(op, IntLinearOp):
        if len(shape) != 2 or op.consts["W"].shape[0] != shape[1]:
            return None
        return "linear", (shape[0], op.filters), op.out_dtype, None
    if isinstance(op, (IntMaxPoolOp, IntSumPoolOp)):
        out = _pool_out_shape(op, shape)
        if out is None:
            return None
        if isinstance(op, IntMaxPoolOp):
            return "maxpool", out, dtype, None
        return "avgpool", out, op.out_dtype, None
    if isinstance(op, IntGapSumOp):
        return ("gap", shape[:2], op.out_dtype, None) if len(shape) == 4 else None
    if isinstance(op, IntAddOp):
        return "add", shape, op.out_dtype, None
    if isinstance(op, IntFlattenOp):
        return "flatten", (shape[0], prod(shape[1:])), dtype, None
    return None


def trace_intq(intq, input_shape: tuple) -> IRProgram:
    """Record an int8 plan's integer program for one NCHW ``input_shape``.

    The same IR as a float plan, with per-value dtypes: float64 input,
    integer codes, float64 logits.  Unlike :func:`trace_plan` this raises
    :class:`~repro.errors.CompileError` on an op or shape it cannot lower,
    since an int8 plan has no interpreter to fall back to.
    """
    input_shape = tuple(int(s) for s in input_shape)
    rec = _Recorder(input_shape, np.float64)
    for op in intq.ops:
        src = rec.slot_val[op.src]
        shape, dtype = rec.vals[src].shape, rec.vals[src].dtype
        lowered = _intq_node(op, shape, dtype)
        srcs = (src,)
        if isinstance(op, IntAddOp):
            srcs = (src, rec.slot_val[op.src2])
            if rec.vals[srcs[1]].shape != shape:
                lowered = None
        if lowered is None:
            raise CompileError(
                f"int8 op {op.index} ({type(op).__name__}) cannot run on input shape "
                f"{shape} traced from {input_shape}"
            )
        kind, out_shape, out_dtype, head = lowered
        rec.emit(op, kind, srcs, out_shape, out_dtype, head)
    return IRProgram(rec.nodes, rec.vals, rec.slot_val[intq.out_slot], input_shape, intq=True)


def build_traced_program(plan: ExecutionPlan, input_shape: tuple):
    """Trace + optimize ``plan`` for one input shape.

    For a float plan the traced path is an accelerator, never a correctness
    dependency: any failure in tracing or optimization is logged and
    swallowed (``None``), and the plan keeps executing through the
    interpreter for that shape.  An int8 plan runs only traced, so its
    failures raise.
    """
    from repro.infer.fuse import optimize

    if plan.intq is not None:
        return optimize(trace_intq(plan.intq, input_shape), plan)
    try:
        ir = trace_plan(plan, input_shape)
        if ir is None:
            return None
        return optimize(ir, plan)
    except Exception:  # pragma: no cover - defensive, interpreter fallback
        logger.warning(
            "tracing failed for input shape %s; using op-by-op execution",
            tuple(input_shape),
            exc_info=True,
        )
        return None
