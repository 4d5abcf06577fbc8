"""Symbolic tracing: one recorded pass of an :class:`ExecutionPlan` into IR.

:func:`trace_plan` executes the plan's op list *symbolically* for one input
shape: instead of arrays, values flow as :class:`Val` records (static full-
batch shape + producer + readers), and each plan op lowers to one
:class:`IRNode` — a typed instruction whose sources and destination are val
ids.  The result is a linear program with explicit dataflow, which is what
the optimizer in :mod:`repro.infer.fuse` needs to reason about epilogue
fusion legality (single-reader intermediates), buffer lifetimes (liveness
intervals over node positions) and batch-blocking legality (every node kind
recorded here except ``linear`` is per-sample independent).

One recorder loop lowers both dtypes: a float plan's ops through
:func:`_float_node`, an int8 plan's integer program through
:func:`_intq_node` (values then carry integer dtypes).  Tracing is the only
way a plan runs a batch (short of ``PlanConfig(trace=False)``), so it is
total or it raises: an op whose input shape it cannot take raises
:class:`~repro.errors.ShapeError` naming the op and the shape, and nothing
is memoized for that input shape.

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
    FlattenOp,
    GlobalAvgPoolOp,
    LeakyReluOp,
    LinearOp,
    MaxPoolOp,
)
from repro.errors import ShapeError
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

__all__ = ["Val", "IRNode", "IRProgram", "trace_plan", "build_traced_program"]


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
    add | flatten``.  ``op`` is the originating plan op (arrays and geometry
    are read from it at bind time).
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


def _pool_out_shape(op, src: tuple) -> "tuple | None":
    if len(src) != 4:
        return None
    oh = (src[2] - op.kernel) // op.stride + 1
    ow = (src[3] - op.kernel) // op.stride + 1
    if oh < 1 or ow < 1:
        return None
    return (src[0], src[1], oh, ow)


def _conv_out_shape(op, src: tuple, weight2d: np.ndarray) -> "tuple | None":
    """A conv's NCHW output shape, or ``None`` when ``src`` does not match
    the columns of its ``(filters, C*k*k)`` weight matrix or leaves no
    output pixel."""
    if len(src) != 4 or weight2d.shape[1] != src[1] * op.kernel**2:
        return None
    oh = (src[2] + 2 * op.padding - op.kernel) // op.stride + 1
    ow = (src[3] + 2 * op.padding - op.kernel) // op.stride + 1
    if oh < 1 or ow < 1:
        return None
    return (src[0], weight2d.shape[0], oh, ow)


def _float_node(op, shape: tuple, dtype: np.dtype):
    """``(kind, output shape, output dtype, head)`` of one float plan op,
    or ``None`` when it does not fit ``shape``."""
    if isinstance(op, ConvOp):
        out = _conv_out_shape(op, shape, op.weight2d)
        return None if out is None else ("conv", out, dtype, None)
    if isinstance(op, LinearOp):
        if len(shape) != 2 or shape[1] != op.weight_t.shape[0]:
            return None
        return "linear", (shape[0], op.weight_t.shape[1]), dtype, None
    if isinstance(op, LeakyReluOp):
        return "eltwise", shape, dtype, ("lrelu", float(op.slope))
    if isinstance(op, ActQuantOp):
        return "eltwise", shape, dtype, ("aq", float(op.step), float(op.half))
    if isinstance(op, AffineOp):
        if len(shape) != 4 or shape[1] != op.scale.size:
            return None
        return "eltwise", shape, dtype, ("affine", op.scale, op.shift)
    if isinstance(op, (MaxPoolOp, AvgPoolOp)):
        out = _pool_out_shape(op, shape)
        if out is None:
            return None
        return ("maxpool" if isinstance(op, MaxPoolOp) else "avgpool"), out, dtype, None
    if isinstance(op, GlobalAvgPoolOp):
        return ("gap", shape[:2], dtype, None) if len(shape) == 4 else None
    if isinstance(op, AddOp):
        return "add", shape, dtype, None
    if isinstance(op, FlattenOp):
        return "flatten", (shape[0], prod(shape[1:])), dtype, None
    return None


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
        out = _conv_out_shape(op, shape, op.consts["W"])
        return None if out is None else ("conv", out, op.out_dtype, None)
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


def trace_plan(plan, input_shape: tuple) -> IRProgram:
    """Record ``plan`` as an :class:`IRProgram` for one NCHW ``input_shape``.

    ``plan`` is an :class:`~repro.infer.plan.ExecutionPlan`, whose int8
    program is traced when it has one, or an
    :class:`~repro.infer.intq.IntQProgram` itself.  A float plan's values
    carry its compute dtype; an int8 program's carry per-value dtypes
    (float64 input, integer codes, float64 logits).

    Raises:
        ShapeError: If an op cannot run on the shape that reaches it.
    """
    intq = plan.intq if isinstance(plan, ExecutionPlan) else plan
    if intq is None:
        ops, out_slot, dtype, lower = plan.ops, plan.out_slot, plan.dtype, _float_node
    else:
        ops, out_slot, dtype, lower = intq.ops, intq.out_slot, np.float64, _intq_node
    input_shape = tuple(int(s) for s in input_shape)
    if len(input_shape) != 4:
        raise ShapeError(f"plan input must be NCHW, got shape {input_shape}")
    rec = _Recorder(input_shape, dtype)
    for op in ops:
        srcs = (rec.slot_val[op.src],)
        if isinstance(op, (AddOp, IntAddOp)):
            srcs += (rec.slot_val[op.src2],)
        shape = rec.vals[srcs[0]].shape
        lowered = lower(op, shape, rec.vals[srcs[0]].dtype)
        if lowered is None or any(rec.vals[s].shape != shape for s in srcs[1:]):
            raise ShapeError(
                f"op {op.index} ({type(op).__name__}) cannot run on shape {shape} "
                f"traced from input shape {input_shape}"
            )
        kind, out_shape, out_dtype, head = lowered
        rec.emit(op, kind, srcs, out_shape, out_dtype, head)
    return IRProgram(
        rec.nodes, rec.vals, rec.slot_val[out_slot], input_shape, intq=intq is not None
    )


def build_traced_program(plan: ExecutionPlan, input_shape: tuple):
    """Trace + optimize ``plan`` for one input shape.

    Raises:
        ShapeError: If the plan cannot run on ``input_shape``.
    """
    from repro.infer.fuse import optimize

    return optimize(trace_plan(plan, input_shape), plan)
