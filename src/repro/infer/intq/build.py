"""Compiling a float execution plan into an integer-only program.

:func:`build_intq_program` takes a compiled
:class:`~repro.infer.plan.ExecutionPlan` and produces an
:class:`IntQProgram` — a parallel op list that computes the same network
end-to-end in integer arithmetic:

* a **calibration pass** runs a deterministic batch through the float ops
  and records every slot's magnitude range; each weighted layer's output
  gets a per-layer power-of-two fixed-point grid (scale chosen via
  :func:`repro.quant.calibration.fixed_point_format_for`, zero-point 0)
  with :data:`MID_BITS` bits of resolution;
* **weights** are bit-packed (:mod:`repro.infer.intq.pack`) and the plan's
  BN-folded scales are absorbed into per-channel requantization constants
  (:mod:`repro.infer.intq.requant`), verified at build time to reproduce
  the float plan's folded weight matrices exactly;
* **activation ops** (LeakyReLU, max/avg/global pooling, residual adds,
  activation quantizers) are lowered to integer equivalents on those
  grids: pools become integer max/sum (the averaging divisor folds into
  the next layer's requant scale), quantizers become shifts or
  multiplier+shift rescales with saturation, LeakyReLU becomes a
  multiplier+shift on the negative branch;
* **overflow is checked statically**: every slot carries a guaranteed
  bound on its integer codes, accumulators use int32 when the worst-case
  MAC sum fits and int64 otherwise, and a layer whose requantization
  product could exceed int64 fails compilation rather than wrapping.

Floats appear exactly twice: quantizing the network input onto its first
grid and dequantizing the final logits — everything in between, including
every conv/linear inner loop, is integer shifts, adds and multiplies.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import CompileError, ShapeError
from repro.infer.fold import bn_eval_affine
from repro.infer.intq.kernels import STEP_ARGS, bind_int_kernel, step_struct
from repro.infer.intq.pack import PackedWeights, pack_weights
from repro.infer.intq.requant import quantize_multiplier, quantize_multiplier_array
from repro.infer.kernels import AUTOTUNE_CACHE
from repro.infer.plan import (
    ActQuantOp,
    AddOp,
    AffineOp,
    AvgPoolOp,
    ConvOp,
    ExecutionContext,
    FallbackOp,
    FlattenOp,
    GlobalAvgPoolOp,
    LeakyReluOp,
    LinearOp,
    MaxPoolOp,
    _pool_views,
)
from repro.quant.calibration import fixed_point_format_for
from repro.utils.profiler import active_profiler

__all__ = ["GridSpec", "IntQProgram", "build_intq_program"]

#: Resolution of the calibrated per-layer intermediate grids.  24 bits keeps
#: the requantization round-off ~2**-16 below an 8-bit activation step, so
#: code flips against the float interpreter happen only at exact rounding
#: ties.
MID_BITS = 24

#: Mantissa budget for requantization multipliers; reduced per layer when
#: the static accumulator bound needs the int64 headroom.
RQ_BITS_MAX = 24

#: Buffer-key offset so intq ops never collide with float plan ops sharing
#: an :class:`ExecutionContext`.
_INDEX_BASE = 10_000

_INT32_LIMIT = 2**31
_INT64_GUARD = 2**62

logger = logging.getLogger("repro.infer.intq")
_native_warned = False


def _native_int(ctx, op, kind: str, x: np.ndarray, out: np.ndarray, numpy_run) -> bool:
    """Try the native C integer kernel; ``False`` → caller runs the numpy path.

    Any failure in the native ladder (missing package, compiler, BLAS, or a
    runtime error) is logged once and degrades to numpy — inference never
    crashes because a toolchain is absent.
    """
    global _native_warned
    if op.backend == "numpy":
        return False
    try:
        from repro.infer.native import binding

        return binding.run_int_op(ctx, op, kind, x, out, numpy_run)
    except Exception as err:
        if not _native_warned:
            _native_warned = True
            logger.warning("native integer backend disabled: %s", err)
        return False


def _native_available() -> bool:
    try:
        from repro.infer.native import binding

        return binding.available()
    except Exception:
        return False


@dataclass(frozen=True)
class GridSpec:
    """Static description of one integer slot: a symmetric fixed-point grid.

    ``value = step * code`` with ``|code| <= bound`` guaranteed (not merely
    observed), zero-point 0 by construction.
    """

    step: float
    bound: int

    @property
    def dtype(self) -> np.dtype:
        """Narrowest storage dtype the static bound permits."""
        return np.dtype(np.int32 if self.bound < _INT32_LIMIT else np.int64)


def _is_pow2(x: float) -> bool:
    if x <= 0 or not np.isfinite(x):
        return False
    mant, _ = math.frexp(x)
    return mant == 0.5


# -- integer ops ---------------------------------------------------------------


@dataclass
class IntQuantizeOp:
    """Float input -> integer codes: ``clip(rint(x / step))`` (exact vs float)."""

    index: int
    src: int
    dst: int
    inv_step: float
    lo: int
    hi: int
    backend: str = "auto"

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", x.shape, np.int32)

        def run_numpy() -> None:
            tmp = ctx.buffer(self.index, "tmp", x.shape, np.float64)
            np.multiply(x, self.inv_step, out=tmp)
            np.rint(tmp, out=tmp)
            np.clip(tmp, self.lo, self.hi, out=tmp)
            np.copyto(out, tmp, casting="unsafe")

        if not _native_int(ctx, self, "quantize", x, out, run_numpy):
            run_numpy()
        ctx.slots[self.dst] = out


@dataclass
class IntDequantizeOp:
    """Integer codes -> float values (the single output-boundary multiply)."""

    index: int
    src: int
    dst: int
    step: float

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", x.shape, np.float64)
        np.multiply(x, self.step, out=out)
        ctx.slots[self.dst] = out


@dataclass
class IntRescaleOp:
    """Grid-to-grid move with saturation (an ActQuant in the integer domain).

    ``mode`` is ``"lshift"`` (coarser -> finer grid, exact), ``"rshift"``
    (power-of-two downscale with round-half-up) or ``"requant"``
    (multiplier+shift for arbitrary step ratios).
    """

    index: int
    src: int
    dst: int
    mode: str
    amount: int
    m0: int
    rnd: int
    lo: int
    hi: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        # Widen to int64 FIRST: a ufunc with an int32 array and a Python-int
        # scalar computes in int32 (and would wrap) even with an int64 out.
        t = ctx.buffer(self.index, "t", x.shape, np.int64)
        np.copyto(t, x)
        if self.mode == "lshift":
            np.left_shift(t, self.amount, out=t)
        elif self.mode == "rshift":
            np.add(t, self.rnd, out=t)
            np.right_shift(t, self.amount, out=t)
        else:
            np.multiply(t, self.m0, out=t)
            np.add(t, self.rnd, out=t)
            np.right_shift(t, self.amount, out=t)
        np.clip(t, self.lo, self.hi, out=t)
        out = ctx.buffer(self.index, "out", x.shape, np.int32)
        np.copyto(out, t)
        ctx.slots[self.dst] = out


@dataclass
class IntLeakyOp:
    """LeakyReLU on a grid: negative branch via multiplier+shift.

    Uses the interpreter's ``max(x, slope*x)`` trick: the requantized
    ``(x * m0 + rnd) >> sh`` is below ``x`` for positive codes and above it
    for negative ones, so one integer max selects the right branch.
    """

    index: int
    src: int
    dst: int
    m0: int
    rnd: int
    sh: int
    zero_slope: bool

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", x.shape, x.dtype)
        if self.zero_slope:
            np.maximum(x, 0, out=out)
        else:
            # Widen before the multiply — int32 * Python int stays int32.
            t = ctx.buffer(self.index, "t", x.shape, np.int64)
            np.copyto(t, x)
            np.multiply(t, self.m0, out=t)
            np.add(t, self.rnd, out=t)
            np.right_shift(t, self.sh, out=t)
            np.maximum(x, t, out=out, casting="unsafe")
        ctx.slots[self.dst] = out


@dataclass
class IntMaxPoolOp:
    index: int
    src: int
    dst: int
    kernel: int
    stride: int
    backend: str = "auto"

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        views, oh, ow = _pool_views(x, self.kernel, self.stride)
        out = ctx.buffer(self.index, "out", x.shape[:2] + (oh, ow), x.dtype)

        def run_numpy() -> None:
            out[...] = views[0]
            for v in views[1:]:
                np.maximum(out, v, out=out)

        if not _native_int(ctx, self, "maxpool", x, out, run_numpy):
            run_numpy()
        ctx.slots[self.dst] = out


@dataclass
class IntSumPoolOp:
    """Average pooling as an exact integer window *sum*.

    The ``1/k**2`` divisor is folded into the output grid's step, so the
    op itself stays integer and lossless.
    """

    index: int
    src: int
    dst: int
    kernel: int
    stride: int
    out_dtype: str

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        views, oh, ow = _pool_views(x, self.kernel, self.stride)
        out = ctx.buffer(self.index, "out", x.shape[:2] + (oh, ow), np.dtype(self.out_dtype))
        out[...] = views[0]
        for v in views[1:]:
            np.add(out, v, out=out, casting="unsafe")
        ctx.slots[self.dst] = out


@dataclass
class IntGapSumOp:
    """Global average pooling as an exact integer spatial sum."""

    index: int
    src: int
    dst: int
    out_dtype: str

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", x.shape[:2], np.dtype(self.out_dtype))
        np.sum(x, axis=(2, 3), out=out)
        ctx.slots[self.dst] = out


@dataclass
class IntAddOp:
    """Residual add after aligning both operands onto the finer grid.

    Each operand transform is ``("id" | "lshift" | "requant", ...)``;
    power-of-two step ratios (the structural case) align with exact left
    shifts.
    """

    index: int
    src: int
    src2: int
    dst: int
    tf1: tuple
    tf2: tuple
    out_dtype: str

    def _apply(self, x: np.ndarray, tf: tuple, t: np.ndarray) -> np.ndarray:
        mode = tf[0]
        if mode == "id":
            return x
        np.copyto(t, x)  # widen to int64 before shifting/multiplying
        if mode == "lshift":
            np.left_shift(t, tf[1], out=t)
            return t
        _, m0, rnd, sh = tf
        np.multiply(t, m0, out=t)
        np.add(t, rnd, out=t)
        np.right_shift(t, sh, out=t)
        return t

    def run(self, ctx: ExecutionContext) -> None:
        a, b = ctx.slots[self.src], ctx.slots[self.src2]
        ta = ctx.buffer(self.index, "ta", a.shape, np.int64)
        tb = ctx.buffer(self.index, "tb", b.shape, np.int64)
        av = self._apply(a, self.tf1, ta)
        bv = self._apply(b, self.tf2, tb)
        out = ctx.buffer(self.index, "out", a.shape, np.dtype(self.out_dtype))
        np.add(av, bv, out=out, casting="unsafe")
        ctx.slots[self.dst] = out


@dataclass
class IntFlattenOp:
    index: int
    src: int
    dst: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        ctx.slots[self.dst] = x.reshape(x.shape[0], -1)


@dataclass
class IntAffineOp:
    """Standalone per-channel scale/shift as a requant onto a calibrated grid."""

    index: int
    src: int
    dst: int
    m0: np.ndarray  # (C, 1, 1) int64
    rnd: np.ndarray
    sh: np.ndarray
    bg: np.ndarray  # (C, 1, 1) int64 — shift in output-grid units
    out_dtype: str

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        t = ctx.buffer(self.index, "t", x.shape, np.int64)
        np.multiply(x, self.m0, out=t, casting="unsafe")
        np.add(t, self.rnd, out=t)
        np.right_shift(t, self.sh, out=t)
        np.add(t, self.bg, out=t)
        out = ctx.buffer(self.index, "out", x.shape, np.dtype(self.out_dtype))
        np.copyto(out, t)
        ctx.slots[self.dst] = out


def standalone_step_op(step: tuple, index: int, src: int, dst: int):
    """The standalone op computing one epilogue step (see
    :data:`~repro.infer.intq.kernels.STEP_ARGS`) from ``src`` into ``dst``."""
    kind, args = step[0], dict(zip(STEP_ARGS[step[0]], step[1:]))
    if kind == "lrelu0":
        return IntLeakyOp(index, src, dst, 0, 0, 1, True)
    if kind == "lrelu":
        return IntLeakyOp(index, src, dst, args["m0"], args["rnd"], args["sh"], False)
    return IntRescaleOp(
        index, src, dst, kind, args["amount"], args.get("m0", 0), args.get("rnd", 0),
        args["lo"], args["hi"],
    )


def _lrelu_scratch(ctx: ExecutionContext, op, shape: tuple) -> np.ndarray | None:
    """The int64 scratch a fused ``lrelu`` step needs (None without one)."""
    if "lrelu" not in step_struct(op.fused):
        return None
    return ctx.buffer(op.index, "tmp", shape, np.int64)


@dataclass
class IntConvOp:
    """Integer convolution: im2col + shift-accumulate/GEMM + requant epilogue."""

    index: int
    src: int
    dst: int
    kernel: int
    stride: int
    padding: int
    filters: int
    impl: str
    acc_dtype: str
    out_dtype: str
    flags: tuple
    group_shifts: tuple
    consts: dict = field(repr=False)
    backend: str = "auto"
    #: LeakyReLU/rescale steps folded into the requant epilogue (see
    #: :data:`repro.infer.intq.kernels.STEP_ARGS`).
    fused: tuple = ()

    def _im2col(self, ctx: ExecutionContext, x: np.ndarray, oh: int, ow: int) -> np.ndarray:
        """The numpy path's pad + im2col columns, in the accumulator dtype."""
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        mat_dt = np.dtype(self.acc_dtype)
        if k == 1 and s == 1 and p == 0 and x.dtype == mat_dt:
            return x.reshape(n, c, h * w)
        if p:
            xp = ctx.buffer(self.index, "pad", (n, c, h + 2 * p, w + 2 * p), x.dtype, zero=True)
            xp[:, :, p:-p, p:-p] = x
            x = xp
        sn, sc, sh_, sw = x.strides
        windows = as_strided(
            x,
            shape=(n, c, k, k, oh, ow),
            strides=(sn, sc, sh_, sw, sh_ * s, sw * s),
            writeable=False,
        )
        cols = ctx.buffer(self.index, "cols", (n, c * k * k, oh * ow), mat_dt)
        cols.reshape(n, c, k, k, oh, ow)[...] = windows
        return cols

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        n, _, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        f = self.filters
        out = ctx.buffer(self.index, "out", (n, f, oh * ow), np.dtype(self.out_dtype))

        def run_numpy() -> None:
            # The reference path; the native kernel pads and unrolls in C.
            cols = self._im2col(ctx, x, oh, ow)
            mat_dt = np.dtype(self.acc_dtype)
            acc = ctx.buffer(self.index, "acc", (n, f, oh * ow), mat_dt)
            acc64 = (
                acc if mat_dt == np.int64 else ctx.buffer(self.index, "acc64", acc.shape, np.int64)
            )
            tmp = _lrelu_scratch(ctx, self, acc.shape)
            kernel = bind_int_kernel(
                "conv", self.impl, (n, f, cols.shape[1], oh * ow),
                mat_dt, self.flags, self.group_shifts, self.consts, self.fused,
            )
            if self.impl == "intq_shift":
                shifted = ctx.buffer(self.index, "shifted", cols.shape, mat_dt)
                part = ctx.buffer(self.index, "part", acc.shape, mat_dt)
                kernel(cols, shifted, part, acc, acc64, out, tmp)
            else:
                kernel(cols, acc, acc64, out, tmp)

        if not _native_int(ctx, self, "conv", x, out, run_numpy):
            run_numpy()
        ctx.slots[self.dst] = out.reshape(n, f, oh, ow)


@dataclass
class IntLinearOp:
    """Integer affine map: shift-accumulate/GEMM + requant epilogue."""

    index: int
    src: int
    dst: int
    filters: int
    impl: str
    acc_dtype: str
    out_dtype: str
    flags: tuple
    group_shifts: tuple
    consts: dict = field(repr=False)
    backend: str = "auto"
    #: LeakyReLU/rescale steps folded into the requant epilogue.
    fused: tuple = ()

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        mat_dt = np.dtype(self.acc_dtype)
        if x.dtype != mat_dt:
            xb = ctx.buffer(self.index, "xin", x.shape, mat_dt)
            np.copyto(xb, x)
            x = xb
        n, f = x.shape[0], self.filters
        out = ctx.buffer(self.index, "out", (n, f), np.dtype(self.out_dtype))
        xin = x

        def run_numpy() -> None:
            acc = ctx.buffer(self.index, "acc", (n, f), mat_dt)
            acc64 = (
                acc if mat_dt == np.int64 else ctx.buffer(self.index, "acc64", acc.shape, np.int64)
            )
            tmp = _lrelu_scratch(ctx, self, acc.shape)
            kernel = bind_int_kernel(
                "linear", self.impl, (n, f, xin.shape[1]),
                mat_dt, self.flags, self.group_shifts, self.consts, self.fused,
            )
            if self.impl == "intq_shift":
                shifted = ctx.buffer(self.index, "shifted", xin.shape, mat_dt)
                part = ctx.buffer(self.index, "part", acc.shape, mat_dt)
                kernel(xin, shifted, part, acc, acc64, out, tmp)
            else:
                kernel(xin, acc, acc64, out, tmp)

        if not _native_int(ctx, self, "linear", xin, out, run_numpy):
            run_numpy()
        ctx.slots[self.dst] = out


# -- the program ---------------------------------------------------------------


class IntQProgram:
    """A plan's integer-only twin: op list, grids and measured op counts.

    Built by :func:`build_intq_program`; executed by
    :meth:`~repro.infer.plan.ExecutionPlan.execute` when the plan was
    compiled with ``PlanConfig(dtype="int8")``.  The program is bound to
    the input spatial shape it was calibrated on (per-layer grids and
    dead-input maps are shape-specific); batch size is free.
    """

    def __init__(
        self,
        ops: list,
        out_slot: int,
        input_chw: tuple[int, int, int],
        layers: list[dict],
        calibration: dict,
        calibration_images: np.ndarray,
    ) -> None:
        self.ops = ops
        self.out_slot = out_slot
        self.input_chw = input_chw
        #: Per weighted layer: impl, accumulator dtype, measured shift/add/
        #: multiply counts per image, in/out scales (see ``summary_block``).
        self.layers = layers
        self.calibration = calibration
        #: Retained so a hot weight refresh can rebuild the packed state
        #: against the exact same calibration batch.
        self.calibration_images = calibration_images

    def run(self, x: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        """Execute one NCHW batch; returns float64 logits (context-owned)."""
        shape = tuple(np.shape(x))
        if len(shape) != 4 or shape[1:] != self.input_chw:
            raise ShapeError(
                f"int8 plan was calibrated for inputs of shape (N, {', '.join(map(str, self.input_chw))}); "
                f"got {shape} — rebuild the plan for this input size"
            )
        ctx.slots[0] = np.asarray(x, dtype=np.float64)
        profiler = active_profiler()
        if profiler is None:
            for op in self.ops:
                op.run(ctx)
        else:
            for op in self.ops:
                with profiler.phase(f"intq{op.index - _INDEX_BASE}:{type(op).__name__}"):
                    op.run(ctx)
        return ctx.slots[self.out_slot]

    def summary_block(self) -> dict:
        """The ``"intq"`` section of ``ExecutionPlan.summary()``."""
        totals = {"shift_ops": 0, "add_ops": 0, "int_mult_ops": 0, "requant_mult_ops": 0}
        for layer in self.layers:
            for key in totals:
                totals[key] += layer[key]
        return {
            "enabled": True,
            "mid_bits": MID_BITS,
            "ops": len(self.ops),
            "layers": self.layers,
            "totals_per_image": totals,
            "calibration": self.calibration,
        }


# -- building ------------------------------------------------------------------


class _IntQBuilder:
    def __init__(self, plan, images: np.ndarray) -> None:
        self.plan = plan
        self.images = np.asarray(images, dtype=np.float64)
        self.config = plan.config
        self.spec: dict[int, GridSpec] = {}
        self.stats: dict[int, dict] = {}
        self.ops: list = []
        self.layers: list[dict] = []
        self.bindings = {b.op_index: b for b in plan.bindings}
        #: Plan ops reading each slot, and the ops folded into a producer.
        self.readers: dict[int, list] = {}
        self.consumed: set[int] = set()
        #: Backend of the max-pool and quantize ops: native whenever it can
        #: be (its first-call parity check still guards it), no tournament.
        self.pool_quant_backend = (
            "native" if self.config.backend != "numpy" and _native_available() else "numpy"
        )

    def _next_index(self) -> int:
        return _INDEX_BASE + len(self.ops)

    def calibrate(self) -> None:
        """Run the float ops once, recording every slot's shape and range."""
        ctx = ExecutionContext()
        ctx.slots[0] = self.images
        self._record(0, self.images)
        for op in self.plan.ops:
            op.run(ctx)
            self._record(op.dst, ctx.slots[op.dst])

    def _record(self, slot: int, values: np.ndarray) -> None:
        self.stats[slot] = {
            "shape": tuple(values.shape),
            "max_abs": float(np.abs(values).max(initial=0.0)),
        }

    def _mid_step(self, slot: int) -> float:
        return fixed_point_format_for([self.stats[slot]["max_abs"]], bits=MID_BITS).step

    def _grid_input(self, src: int) -> GridSpec:
        """The grid spec of ``src``, quantizing a float slot on demand."""
        spec = self.spec.get(src)
        if spec is not None:
            return spec
        # A float slot feeding an integer op without an ActQuant in between —
        # most commonly the raw network input into the first conv.  This is
        # not a paper quantization point, so use the full intermediate-grid
        # resolution rather than 8 bits.
        fmt = fixed_point_format_for([self.stats[src]["max_abs"]], bits=MID_BITS)
        half = 2 ** (fmt.bits - 1)
        self.ops.append(
            IntQuantizeOp(
                self._next_index(), src, src, 1.0 / fmt.step, -half, half - 1,
                self.pool_quant_backend,
            )
        )
        spec = GridSpec(fmt.step, half)
        self.spec[src] = spec
        return spec

    # -- per-op lowering -------------------------------------------------------

    def lower(self) -> None:
        for op in self.plan.ops:
            for slot in (op.src, getattr(op, "src2", None)):
                if slot is not None:
                    self.readers.setdefault(slot, []).append(op)
        for op in self.plan.ops:
            if id(op) in self.consumed:
                continue
            if isinstance(op, ConvOp):
                self._lower_matmul(op, linear=False)
            elif isinstance(op, LinearOp):
                self._lower_matmul(op, linear=True)
            elif isinstance(op, ActQuantOp):
                self._lower_actquant(op)
            elif isinstance(op, LeakyReluOp):
                self._lower_leaky(op)
            elif isinstance(op, MaxPoolOp):
                spec = self._grid_input(op.src)
                self.ops.append(
                    IntMaxPoolOp(
                        self._next_index(), op.src, op.dst, op.kernel, op.stride,
                        self.pool_quant_backend,
                    )
                )
                self.spec[op.dst] = spec
            elif isinstance(op, AvgPoolOp):
                spec = self._grid_input(op.src)
                k2 = op.kernel * op.kernel
                out = GridSpec(spec.step / k2, spec.bound * k2)
                self.ops.append(
                    IntSumPoolOp(
                        self._next_index(), op.src, op.dst, op.kernel, op.stride,
                        str(out.dtype),
                    )
                )
                self.spec[op.dst] = out
            elif isinstance(op, GlobalAvgPoolOp):
                spec = self._grid_input(op.src)
                h, w = self.stats[op.src]["shape"][2:]
                out = GridSpec(spec.step / (h * w), spec.bound * h * w)
                self.ops.append(
                    IntGapSumOp(self._next_index(), op.src, op.dst, str(out.dtype))
                )
                self.spec[op.dst] = out
            elif isinstance(op, AddOp):
                self._lower_add(op)
            elif isinstance(op, FlattenOp):
                self.spec[op.dst] = self._grid_input(op.src)
                self.ops.append(IntFlattenOp(self._next_index(), op.src, op.dst))
            elif isinstance(op, AffineOp):
                self._lower_affine(op)
            elif isinstance(op, FallbackOp):
                raise CompileError(
                    f"int8 plan cannot lower FallbackOp for {type(op.module).__name__}; "
                    "integer-only execution supports the compiled layer catalogue only"
                )
            else:  # pragma: no cover - future op kinds fail loudly
                raise CompileError(f"int8 plan has no lowering for {type(op).__name__}")
        # Output boundary: one float multiply back to logits.
        out_spec = self._grid_input(self.plan.out_slot)
        self.ops.append(
            IntDequantizeOp(
                self._next_index(), self.plan.out_slot, self.plan.out_slot, out_spec.step
            )
        )

    def _lower_actquant(self, op: ActQuantOp) -> None:
        if op.src not in self.spec:
            # The canonical network input quantizer: bit-exact vs the float
            # interpreter's rint/clip.
            half = int(op.half)
            self.ops.append(
                IntQuantizeOp(
                    self._next_index(), op.src, op.dst, 1.0 / op.step, -half, half - 1,
                    self.pool_quant_backend,
                )
            )
            self.spec[op.dst] = GridSpec(op.step, half)
            return
        step, self.spec[op.dst] = self._rescale_step(op, self.spec[op.src])
        self.ops.append(standalone_step_op(step, self._next_index(), op.src, op.dst))

    def _lower_leaky(self, op: LeakyReluOp) -> None:
        self.spec[op.dst] = self._grid_input(op.src)
        self.ops.append(
            standalone_step_op(self._leaky_step(op), self._next_index(), op.src, op.dst)
        )

    @staticmethod
    def _rescale_step(op: ActQuantOp, spec: GridSpec) -> tuple[tuple, GridSpec]:
        """An ActQuant on a grid as one rescale step, plus its output grid."""
        half = int(op.half)
        lo, hi = -half, half - 1
        ratio = spec.step / op.step
        if _is_pow2(ratio) and ratio >= 1.0:
            step = ("lshift", int(round(math.log2(ratio))), lo, hi)
        elif _is_pow2(1.0 / ratio):
            amount = int(round(math.log2(1.0 / ratio)))
            step = ("rshift", amount, 1 << max(amount - 1, 0), lo, hi)
        else:
            m0, amount = quantize_multiplier(ratio, RQ_BITS_MAX)
            step = ("requant", int(m0), 1 << (amount - 1), int(amount), lo, hi)
        return step, GridSpec(op.step, half)

    @staticmethod
    def _leaky_step(op: LeakyReluOp) -> tuple:
        """A LeakyReLU as one step; it keeps its input's grid."""
        if op.slope == 0.0:
            return ("lrelu0",)
        m0, sh = quantize_multiplier(float(op.slope), RQ_BITS_MAX)
        return ("lrelu", int(m0), 1 << (sh - 1), int(sh))

    def _fuse_chain(self, slot: int, spec: GridSpec) -> tuple[tuple, int, GridSpec]:
        """Fold the LeakyReLU/ActQuant ops reading ``slot`` into its producer.

        A step folds only when the slot it reads has exactly one reader and
        is not the plan output, so the skipped intermediate is never needed.
        Each folded step's ops are marked consumed, so :meth:`lower` skips
        them.  Returns the steps, the slot the producer now writes, and that
        slot's grid.
        """
        self.spec[slot] = spec
        steps: list[tuple] = []
        while slot != self.plan.out_slot and len(self.readers.get(slot, ())) == 1:
            reader = self.readers[slot][0]
            if isinstance(reader, LeakyReluOp) and abs(reader.slope) <= 1.0:
                # |slope| <= 1 keeps the negative branch inside the input
                # bound, which the standalone op's narrowing store relies on.
                steps.append(self._leaky_step(reader))
            elif isinstance(reader, ActQuantOp):
                step, spec = self._rescale_step(reader, spec)
                steps.append(step)
            else:
                break
            self.consumed.add(id(reader))
            slot = reader.dst
            self.spec[slot] = spec
        return tuple(steps), slot, spec

    def _lower_add(self, op: AddOp) -> None:
        s1, s2 = self._grid_input(op.src), self._grid_input(op.src2)
        target = min(s1.step, s2.step)

        def transform(spec: GridSpec) -> tuple[tuple, int]:
            ratio = spec.step / target
            if ratio == 1.0:
                return ("id",), spec.bound
            if _is_pow2(ratio):
                d = int(round(math.log2(ratio)))
                return ("lshift", d), spec.bound << d
            m0, sh = quantize_multiplier(ratio, RQ_BITS_MAX)
            return ("requant", m0, 1 << (sh - 1), sh), int(math.ceil(spec.bound * ratio)) + 1

        tf1, b1 = transform(s1)
        tf2, b2 = transform(s2)
        out = GridSpec(target, b1 + b2)
        self.ops.append(
            IntAddOp(self._next_index(), op.src, op.src2, op.dst, tf1, tf2, str(out.dtype))
        )
        self.spec[op.dst] = out

    def _lower_affine(self, op: AffineOp) -> None:
        spec = self._grid_input(op.src)
        step_out = self._mid_step(op.dst)
        m = spec.step * np.asarray(op.scale, dtype=np.float64) / step_out
        m0, sh, rnd = quantize_multiplier_array(m, RQ_BITS_MAX)
        bg = np.rint(np.asarray(op.shift, dtype=np.float64) / step_out).astype(np.int64)
        bound = int(math.ceil(spec.bound * float(np.abs(m).max(initial=0.0))))
        bound += int(np.abs(bg).max(initial=0)) + 1
        out = GridSpec(step_out, bound)
        self.ops.append(
            IntAffineOp(
                self._next_index(), op.src, op.dst,
                m0[:, None, None], rnd[:, None, None], sh[:, None, None],
                bg[:, None, None], str(out.dtype),
            )
        )
        self.spec[op.dst] = out

    # -- conv/linear -----------------------------------------------------------

    def _lower_matmul(self, op, linear: bool) -> None:
        spec_in = self._grid_input(op.src)
        binding = self.bindings.get(op.index)
        if binding is None:  # pragma: no cover - plans always bind weighted ops
            raise CompileError(f"op {op.index} has no weight binding")
        packed = pack_weights(binding.layer, op.live_rows, op.in_live_cols)
        weight2d = op.weight_t.T if linear else op.weight2d
        f = weight2d.shape[0]
        scale = np.ones(f, dtype=np.float64)
        if binding.bn is not None:
            s, _ = bn_eval_affine(binding.bn)
            scale = s[op.live_rows] if op.live_rows is not None else s
        recon = packed.w_int * packed.weight_scale * scale[:, None]
        if not np.allclose(recon, weight2d, rtol=1e-9, atol=1e-12):
            raise CompileError(
                f"int8 packing failed verification on op {op.index}: decoded integer "
                "weights do not reproduce the plan's folded weight matrix"
            )
        # Accumulator scale per channel: one accumulator unit represents
        # input_step * weight_scale * bn_scale.  The bias and the dead-input
        # map are NOT added in the accumulator domain — its grid can be
        # coarse (~2**-11 for an 8-bit input feeding shift weights), so they
        # are rounded once onto the *output* grid (one LSB there is
        # 2**(1 - MID_BITS) of the layer range) and added post-requant.
        s_acc = spec_in.step * packed.weight_scale * scale  # (f,)
        step_out = self._mid_step(op.dst)
        zero = s_acc == 0.0
        w_int = packed.w_int.copy()
        w_int[zero] = 0
        bias = np.zeros(f) if op.bias is None else np.asarray(op.bias, dtype=np.float64)
        gb = np.rint(bias / step_out).astype(np.int64)

        in_shape = self.stats[op.src]["shape"]
        out_shape = self.stats[op.dst]["shape"]
        dmap = None
        if not linear and op.dead_in_weight2d is not None:
            fmap = np.asarray(op._dead_bias_map(in_shape[2], in_shape[3]), dtype=np.float64)
            dmap = np.rint(fmap / step_out).astype(np.int64)

        row_bound = np.abs(w_int).sum(axis=1) * spec_in.bound
        mac_bound = bound_acc = int(row_bound.max(initial=0))
        rq_bits = min(RQ_BITS_MAX, 61 - max(bound_acc, 1).bit_length())
        if rq_bits < 8:
            raise CompileError(
                f"op {op.index}: worst-case integer accumulator ({bound_acc}) leaves "
                "no headroom for requantization — int64 would overflow"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(zero, 0.0, s_acc / step_out)
        m0, sh, rnd = quantize_multiplier_array(m, rq_bits)
        if bound_acc * int(np.abs(m0).max(initial=0)) >= _INT64_GUARD:
            raise CompileError(
                f"op {op.index}: requantization product exceeds the int64 guard"
            )

        group_shifts = tuple(d for d, _ in packed.groups) if packed.groups else ()
        max_shift = max(group_shifts, default=0)
        acc32 = mac_bound < _INT32_LIMIT and (spec_in.bound << max_shift) < _INT32_LIMIT
        acc_dt = np.dtype(np.int32 if acc32 else np.int64)
        m_abs_max = float(np.abs(m).max(initial=0.0))
        bound_out = int(math.ceil(bound_acc * m_abs_max)) + int(np.abs(gb).max(initial=0)) + 1
        if dmap is not None:
            bound_out += int(np.abs(dmap).max(initial=0))
        fused, dst, out_spec = self._fuse_chain(op.dst, GridSpec(step_out, bound_out))

        flags = []
        if dmap is not None:
            flags.append("dead")
        if np.any(gb != 0):
            flags.append("gb")
        flags = tuple(flags)

        def chan(a: np.ndarray) -> np.ndarray:
            return a if linear else a[:, None]

        consts = {
            "M0": chan(m0),
            "RND": chan(rnd),
            "SH": chan(sh),
        }
        if dmap is not None:
            consts["DMAP"] = dmap
        if "gb" in flags:
            consts["GB"] = chan(gb)
        w_mat = w_int.astype(acc_dt)
        consts["W"] = np.ascontiguousarray(w_mat.T) if linear else w_mat
        if packed.groups:
            for i, (_, s_mat) in enumerate(packed.groups):
                s_cast = s_mat.astype(acc_dt)
                consts[f"S{i}"] = np.ascontiguousarray(s_cast.T) if linear else s_cast

        index = self._next_index()
        if linear:
            int_op = IntLinearOp(
                index, op.src, dst, f, "intq_gemm", str(acc_dt), str(out_spec.dtype),
                flags, group_shifts, consts, fused=fused,
            )
            out_positions = 1
        else:
            int_op = IntConvOp(
                index, op.src, dst, op.kernel, op.stride, op.padding, f,
                "intq_gemm", str(acc_dt), str(out_spec.dtype), flags, group_shifts, consts,
                fused=fused,
            )
            out_positions = int(out_shape[2] * out_shape[3])
        # Impl timing must stay numpy-pure — native compiles would pollute it;
        # the backend chooser below makes the final numpy/native call.
        int_op.backend = "numpy"
        autotune = self._choose_impl(int_op, spec_in, in_shape)
        autotune_backend = self._choose_backend(int_op, spec_in, in_shape)
        self.ops.append(int_op)

        nnz = packed.nonzero_terms
        record = {
            "op_index": op.index,
            "type": "linear" if linear else "conv",
            "impl": int_op.impl,
            "accum_dtype": str(acc_dt),
            "planes": packed.k_max,
            "nonzero_terms": nnz,
            "out_positions": out_positions,
            "shift_ops": (nnz * out_positions) if packed.groups else 0,
            "add_ops": (nnz + f) * out_positions,
            "int_mult_ops": (nnz * out_positions) if int_op.impl == "intq_gemm" else 0,
            "requant_mult_ops": f * out_positions,
            "requant_bits": rq_bits,
            "scale_in": spec_in.step,
            "scale_out": step_out,
            "zero_point": 0,
            "backend": int_op.backend,
            "fused": list(step_struct(fused)),
        }
        if autotune is not None:
            record["autotune"] = autotune
        if autotune_backend is not None:
            record["autotune_backend"] = autotune_backend
        self.layers.append(record)

    def _choose_impl(self, int_op, spec_in: GridSpec, in_shape: tuple) -> dict | None:
        """Apply the config's kernel policy; time both variants under "auto"."""
        cfg = self.config
        if not int_op.group_shifts:
            return None
        if cfg.kernel == "shift_plane":
            int_op.impl = "intq_shift"
            return None
        if cfg.kernel == "dense":
            return None
        key = (
            "intq", type(int_op).__name__, tuple(in_shape),
            tuple(int_op.consts["W"].shape), int_op.group_shifts,
            int_op.acc_dtype, int_op.fused, cfg.autotune_reps,
        )
        entry = AUTOTUNE_CACHE.get(key)
        if entry is None:
            ctx = ExecutionContext()
            ctx.slots[int_op.src] = np.zeros(in_shape, dtype=spec_in.dtype)
            timings = {}
            for impl in ("intq_gemm", "intq_shift"):
                int_op.impl = impl
                best = float("inf")
                for _ in range(max(1, cfg.autotune_reps)):
                    start = time.perf_counter()
                    int_op.run(ctx)
                    best = min(best, time.perf_counter() - start)
                timings[impl] = best
            chosen = "intq_shift" if timings["intq_shift"] <= timings["intq_gemm"] else "intq_gemm"
            entry = {
                "chosen": chosen,
                "intq_gemm_s": timings["intq_gemm"],
                "intq_shift_s": timings["intq_shift"],
                "cached": False,
            }
            AUTOTUNE_CACHE.put(key, {**entry, "cached": True})
        int_op.impl = entry["chosen"]
        return entry

    def _choose_backend(self, int_op, spec_in: GridSpec, in_shape: tuple) -> dict | None:
        """Resolve the op's numpy/native backend; time both under "auto".

        Runs after :meth:`_choose_impl` so the tournament measures the impl
        the op will actually execute.  Forced "native" still degrades at run
        time through the first-call parity ladder.
        """
        cfg = self.config
        choice = cfg.backend
        if choice == "numpy" or not _native_available():
            int_op.backend = "numpy"
            return None
        if choice == "native":
            int_op.backend = "native"
            return None
        key = (
            "intq-native", type(int_op).__name__, tuple(in_shape),
            tuple(int_op.consts["W"].shape), int_op.impl, int_op.group_shifts,
            int_op.acc_dtype, int_op.fused, cfg.autotune_reps,
        )
        entry = AUTOTUNE_CACHE.get(key)
        if entry is None:
            timings = {}
            for backend in ("numpy", "native"):
                int_op.backend = backend
                ctx = ExecutionContext()
                ctx.slots[int_op.src] = np.zeros(in_shape, dtype=spec_in.dtype)
                int_op.run(ctx)  # warm-up pays the compile + parity check
                best = float("inf")
                for _ in range(max(1, cfg.autotune_reps)):
                    start = time.perf_counter()
                    int_op.run(ctx)
                    best = min(best, time.perf_counter() - start)
                timings[backend] = best
            entry = {
                "backend": "native" if timings["native"] < timings["numpy"] else "numpy",
                "native_s": timings["native"],
                "numpy_s": timings["numpy"],
                "cached": False,
            }
            AUTOTUNE_CACHE.put(key, {**entry, "cached": True})
        int_op.backend = entry["backend"]
        return entry


def build_intq_program(
    plan,
    calibration_shape: tuple[int, int, int, int] | None = None,
    calibration_images: np.ndarray | None = None,
) -> IntQProgram:
    """Build the integer-only twin of a compiled float plan.

    Args:
        plan: A compiled :class:`~repro.infer.plan.ExecutionPlan` (any
            float dtype); its ops, bindings and config drive the build.
        calibration_shape: NCHW shape for the synthetic (deterministic,
            seeded) calibration batch when no images are given.
        calibration_images: Explicit calibration batch; takes precedence.

    Raises:
        CompileError: If a layer's weights are not exactly representable in
            integer form, an op has no integer lowering, or a static
            overflow bound cannot be met.
    """
    if calibration_images is None:
        if calibration_shape is None:
            raise CompileError(
                "int8 plan build needs a calibration batch: pass calibration_images "
                "or a calibration_shape (models declaring in_channels/image_size "
                "get one automatically)"
            )
        rng = np.random.Generator(np.random.PCG64(0))
        calibration_images = rng.normal(0.0, 1.0, calibration_shape)
    images = np.asarray(calibration_images, dtype=np.float64)
    if images.ndim != 4:
        raise CompileError(f"calibration batch must be NCHW, got shape {images.shape}")
    builder = _IntQBuilder(plan, images)
    builder.calibrate()
    builder.lower()
    return IntQProgram(
        ops=builder.ops,
        out_slot=plan.out_slot,
        input_chw=tuple(images.shape[1:]),
        layers=builder.layers,
        calibration={
            "batch_shape": tuple(images.shape),
            "mid_bits": MID_BITS,
            "zero_point": 0,
        },
        calibration_images=images,
    )
