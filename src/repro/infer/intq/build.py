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

The ops are plain data, one per float op (plus the input quantize and
output dequantize); each LeakyReLU and ActQuant becomes a standalone
:class:`IntStepOp`.  Executing the program is the traced compiler's job:
:func:`repro.infer.trace.trace_plan` lowers it into the float plans' IR,
whose epilogue-fusion pass folds the steps into the conv/linear that
feeds them, and :mod:`repro.infer.intq.kernels` binds each node.

Floats appear exactly twice: quantizing the network input onto its first
grid and dequantizing the final logits — everything in between, including
every conv/linear inner loop, is integer shifts, adds and multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompileError
from repro.infer.fold import bn_eval_affine
from repro.infer.intq.kernels import step_struct
from repro.infer.intq.pack import pack_weights
from repro.infer.intq.requant import quantize_multiplier, quantize_multiplier_array
from repro.infer.native.binding import bound_backend
from repro.infer.plan import (
    ActQuantOp,
    AddOp,
    AffineOp,
    AvgPoolOp,
    ConvOp,
    ExecutionContext,
    FlattenOp,
    GlobalAvgPoolOp,
    LeakyReluOp,
    LinearOp,
    MaxPoolOp,
)
from repro.quant.calibration import fixed_point_format_for

__all__ = ["GridSpec", "IntQProgram", "build_intq_program"]

#: Resolution of the calibrated per-layer intermediate grids.  24 bits keeps
#: the requantization round-off ~2**-16 below an 8-bit activation step, so
#: code flips against the float interpreter happen only at exact rounding
#: ties.
MID_BITS = 24

#: Mantissa budget for requantization multipliers; reduced per layer when
#: the static accumulator bound needs the int64 headroom.
RQ_BITS_MAX = 24

_INT32_LIMIT = 2**31
_INT64_GUARD = 2**62


def _int_dtype(bound: int) -> np.dtype:
    """Narrowest integer dtype holding every value in ``[-bound, bound]``."""
    return np.dtype(np.int32 if bound < _INT32_LIMIT else np.int64)


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
        return _int_dtype(self.bound)


def _is_pow2(x: float) -> bool:
    if x <= 0 or not np.isfinite(x):
        return False
    mant, _ = math.frexp(x)
    return mant == 0.5


# -- integer ops ---------------------------------------------------------------


@dataclass
class IntQuantizeOp:
    """Float input -> int32 codes: ``clip(rint(x / step))`` (exact vs float)."""

    index: int
    src: int
    dst: int
    inv_step: float
    lo: int
    hi: int


@dataclass
class IntDequantizeOp:
    """Integer codes -> float values (the single output-boundary multiply)."""

    index: int
    src: int
    dst: int
    step: float


@dataclass
class IntStepOp:
    """One standalone epilogue step (see
    :data:`~repro.infer.intq.kernels.STEP_ARGS`) from ``src`` into ``dst``.

    A LeakyReLU step (``max(x, slope*x)`` with the slope as multiplier+shift)
    keeps its input's grid and dtype; a rescale step (an ActQuant in the
    integer domain: ``lshift``, ``rshift`` or ``requant``) saturates onto its
    grid and stores int32.  ``slope`` is a LeakyReLU's float slope (0 for
    rescales); the epilogue-fusion pass reads it.
    """

    index: int
    src: int
    dst: int
    step: tuple
    slope: float = 0.0


@dataclass
class IntMaxPoolOp:
    index: int
    src: int
    dst: int
    kernel: int
    stride: int


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


@dataclass
class IntGapSumOp:
    """Global average pooling as an exact integer spatial sum."""

    index: int
    src: int
    dst: int
    out_dtype: str


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


@dataclass
class IntFlattenOp:
    index: int
    src: int
    dst: int


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


def _acc_dtype(op) -> str:
    """The conv/linear accumulator dtype: int32 while ``op.acc_bound``
    fits, else int64."""
    return str(_int_dtype(op.acc_bound))


@dataclass
class IntConvOp:
    """Integer convolution: im2col + integer GEMM + requant epilogue.

    ``acc_bound`` is the static bound on ``|accumulator|`` (the largest
    row of ``|W|`` sums times the input grid's code bound); the
    accumulator dtype (:func:`_acc_dtype`) and the native kernel's GEMM
    (:func:`repro.infer.native.binding.int_gemm`) follow from it.
    """

    impl = "intq_gemm"  # the kernel tag in phase names and backend records

    index: int
    src: int
    dst: int
    kernel: int
    stride: int
    padding: int
    filters: int
    acc_bound: int
    out_dtype: str
    flags: tuple
    consts: dict = field(repr=False)
    #: The native kernels' copies of ``consts`` (see
    #: :func:`repro.infer.native.binding.make_int_producer`), made once and
    #: shared by every context and batch size; a benign race like
    #: ``ConvOp.dead_maps``.
    native_consts: dict = field(default_factory=dict, repr=False)

    acc_dtype = property(_acc_dtype)


@dataclass
class IntLinearOp:
    """Integer affine map: integer GEMM + requant epilogue (``acc_bound``
    as on :class:`IntConvOp`)."""

    impl = "intq_gemm"

    index: int
    src: int
    dst: int
    filters: int
    acc_bound: int
    out_dtype: str
    flags: tuple
    consts: dict = field(repr=False)
    native_consts: dict = field(default_factory=dict, repr=False)

    acc_dtype = property(_acc_dtype)


# -- the program ---------------------------------------------------------------


class IntQProgram:
    """A plan's integer-only twin: op list, grids and measured op counts.

    Built by :func:`build_intq_program`.  When the plan was compiled with
    ``PlanConfig(dtype="int8")``, :meth:`~repro.infer.plan.ExecutionPlan.execute`
    traces ``ops`` into the same IR as a float plan and runs the optimized
    program (:mod:`repro.infer.trace` / :mod:`repro.infer.fuse`).  The
    program is bound to the input spatial shape it was calibrated on
    (per-layer grids and dead-input maps are shape-specific); batch size is
    free.
    """

    def __init__(
        self,
        ops: list,
        out_slot: int,
        input_chw: tuple[int, int, int],
        layers: list[dict],
        calibration: dict,
    ) -> None:
        self.ops = ops
        self.out_slot = out_slot
        self.input_chw = input_chw
        #: Per weighted layer: impl, accumulator dtype and bound bits,
        #: measured shift/add/multiply counts per image, in/out scales (see
        #: ``summary_block``).
        self.layers = layers
        self.calibration = calibration

    def summary_block(self) -> dict:
        """The ``"intq"`` section of ``ExecutionPlan.summary()``."""
        totals = {"shift_ops": 0, "add_ops": 0, "int_mult_ops": 0, "requant_mult_ops": 0}
        for layer in self.layers:
            for key in totals:
                totals[key] += layer[key]
        return {
            "enabled": True,
            "mid_bits": MID_BITS,
            "ops": len(self.ops),  # as lowered, before epilogue fusion
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
        #: Backend every int conv/linear binds: native whenever a toolchain
        #: is present, unless the config asks for numpy.  Each kernel's
        #: first-call byte check against the numpy path still guards it.
        self.backend = bound_backend(self.config.backend)

    def _next_index(self) -> int:
        return len(self.ops)

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
            IntQuantizeOp(self._next_index(), src, src, 1.0 / fmt.step, -half, half - 1)
        )
        spec = GridSpec(fmt.step, half)
        self.spec[src] = spec
        return spec

    # -- per-op lowering -------------------------------------------------------

    def lower(self) -> None:
        for op in self.plan.ops:
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
                    IntMaxPoolOp(self._next_index(), op.src, op.dst, op.kernel, op.stride)
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
                IntQuantizeOp(self._next_index(), op.src, op.dst, 1.0 / op.step, -half, half - 1)
            )
            self.spec[op.dst] = GridSpec(op.step, half)
            return
        step, self.spec[op.dst] = self._rescale_step(op, self.spec[op.src])
        self.ops.append(IntStepOp(self._next_index(), op.src, op.dst, step))

    def _lower_leaky(self, op: LeakyReluOp) -> None:
        self.spec[op.dst] = self._grid_input(op.src)
        self.ops.append(
            IntStepOp(self._next_index(), op.src, op.dst, self._leaky_step(op), float(op.slope))
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
        bound_acc = int(row_bound.max(initial=0))
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

        acc_dt = _int_dtype(bound_acc)
        m_abs_max = float(np.abs(m).max(initial=0.0))
        bound_out = int(math.ceil(bound_acc * m_abs_max)) + int(np.abs(gb).max(initial=0)) + 1
        if dmap is not None:
            bound_out += int(np.abs(dmap).max(initial=0))
        out_spec = GridSpec(step_out, bound_out)
        self.spec[op.dst] = out_spec

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

        index = self._next_index()
        if linear:
            int_op = IntLinearOp(
                index, op.src, op.dst, f, bound_acc, str(out_spec.dtype), flags, consts
            )
            out_positions = 1
        else:
            int_op = IntConvOp(
                index, op.src, op.dst, op.kernel, op.stride, op.padding, f, bound_acc,
                str(out_spec.dtype), flags, consts,
            )
            out_positions = int(out_shape[2] * out_shape[3])
        self.ops.append(int_op)

        nnz = packed.nonzero_terms
        record = {
            "op_index": op.index,
            "type": "linear" if linear else "conv",
            "impl": "intq_gemm",
            "accum_dtype": str(acc_dt),
            "acc_bound_bits": bound_acc.bit_length(),
            "planes": packed.k_max,
            "nonzero_terms": nnz,
            "out_positions": out_positions,
            "shift_ops": (nnz * out_positions) if packed.groups else 0,
            "add_ops": (nnz + f) * out_positions,
            "int_mult_ops": nnz * out_positions,
            "requant_mult_ops": f * out_positions,
            "requant_bits": rq_bits,
            "scale_in": spec_in.step,
            "scale_out": step_out,
            "zero_point": 0,
            "backend": self.backend,
            "fused": [],  # filled from the epilogue-fusion pass, see build_intq_program
        }
        self.layers.append(record)


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
    program = IntQProgram(
        ops=builder.ops,
        out_slot=plan.out_slot,
        input_chw=tuple(images.shape[1:]),
        layers=builder.layers,
        calibration={
            "batch_shape": tuple(images.shape),
            "mid_bits": MID_BITS,
            "zero_point": 0,
        },
    )
    # Report the steps the shared IR pass folds into each conv/linear (the
    # fold is structural, so any traced input shape gives the same answer).
    from repro.infer.fuse import fused_steps

    fused = fused_steps(program)
    matmuls = [op for op in program.ops if isinstance(op, (IntConvOp, IntLinearOp))]
    for layer, op in zip(builder.layers, matmuls):
        layer["fused"] = list(step_struct(fused.get(op.index, ())))
    return program
