"""Flat execution plans: compiling a model into grad-free ndarray ops.

:func:`compile_network` walks a module tree once and emits a flat list of
slot-addressed ops — a tiny SSA-style program.  Slot 0 holds the batch input;
every op reads one or two slots and writes one.  Compilation is where all the
inference-time work that eager evaluation repeats per batch happens exactly
once:

* quantized weights are pulled from the layer's version-keyed cache
  (:meth:`~repro.quant.qlayers.QuantizedLayer.quantized_weight`) and
  pre-flattened for the im2col matmul;
* eval-mode batch-norm is folded into the preceding convolution's effective
  per-filter scale and bias (see :mod:`repro.infer.fold`), so BN ops vanish;
* elementwise ops (Leaky ReLU, activation quantizers) are marked in-place
  wherever their input buffer has no other reader;
* with :class:`PlanConfig` (the default), dead quantized filters
  (``k_i = 0`` — all-zero rows) are physically eliminated and the channel
  slimming propagated downstream (:mod:`repro.infer.prune`), shift-plane
  kernels are attached where the quantized structure supports them
  (:mod:`repro.infer.shift_plane`), and a small calibration pass picks the
  faster kernel per layer (:mod:`repro.infer.autotune`).

Execution uses an :class:`ExecutionContext` of preallocated scratch buffers
(im2col columns, padded inputs, matmul outputs) that are reused across
batches, so steady-state inference performs no large allocations and builds
no autograd graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import CompileError, ConfigurationError, ShapeError
from repro.infer.fold import (
    bn_eval_affine,
    bn_fingerprint,
    dead_filter_rows,
    fold_scale_into_weight,
)
from repro.nn.layers.activation import LeakyReLU, ReLU
from repro.nn.layers.container import Flatten, Identity, Sequential
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.module import Module
from repro.quant.activations import QuantizedActivation
from repro.quant.qlayers import QConv2d, QLinear
from repro.utils.profiler import active_profiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.infer.shift_plane import ShiftPlaneSet

__all__ = [
    "ExecutionContext",
    "ExecutionPlan",
    "PlanConfig",
    "compile_network",
    "declared_image_shape",
    "execute_ops",
    "plan_dtype",
]

_KERNELS = ("auto", "dense", "shift_plane")
_COMPUTE_DTYPES = ("float", "int8")
_BACKENDS = ("auto", "numpy")

#: Batch size of the synthetic calibration input: the float autotune times
#: its kernel candidates on it, and the int8 build calibrates its grids on it.
_CALIBRATION_BATCH = 16


@dataclass(frozen=True)
class PlanConfig:
    """Knobs for the sparsity-aware compilation passes.

    Attributes:
        prune: Eliminate dead filters (``k_i = 0`` / all-zero quantized
            rows) at plan time and propagate the channel slimming through
            downstream ops.  Output parity with eager is preserved exactly
            (the dead filters' constant contributions are folded into
            downstream biases).  A layer whose filters are *all* dead stays
            in place as a constant producer.
        kernel: Per-layer compute kernel: ``"dense"`` forces the plain
            im2col GEMM everywhere, ``"shift_plane"`` forces the
            power-of-two plane decomposition wherever the quantizer
            supports it, and ``"auto"`` (default) builds shift planes for
            layers that still carry dead rows after pruning and lets the
            calibration pass pick the faster kernel per layer, timed on the
            backend the plan runs on.  Float plans only: int8 conv/linear
            ops always run one integer GEMM.
        trace: Execute through shape-specialized traced programs
            (:mod:`repro.infer.trace` / :mod:`repro.infer.fuse`): the plan
            is recorded once per input shape into generated fused kernels
            with pre-bound buffers, epilogue fusion, liveness-based register
            reuse and cache-sized batch blocking.  Bitwise-identical to the
            op-by-op interpreter.  A batch shape the plan cannot run raises
            :class:`~repro.errors.ShapeError`.  ``trace=False`` runs a float
            plan op by op (the byte reference); an int8 plan always runs
            traced.
        dtype: Compute domain.  ``"float"`` (default) runs the plan in its
            floating-point dtype; ``"int8"`` lowers the compiled plan into
            an integer-only program (:mod:`repro.infer.intq`): bit-packed
            shift-code weights, calibrated fixed-point activation grids and
            multiplier+shift requantization — zero float multiplies inside
            conv/linear kernels.  Requires the model to declare
            ``in_channels``/``image_size`` (or an explicit calibration
            batch via :func:`repro.infer.intq.build_intq_program`).
        backend: Kernel execution backend.  ``"auto"`` (default) uses the
            C backend (:mod:`repro.infer.native`) wherever it applies,
            falling back per kernel where it cannot; ``"numpy"`` forces the
            numpy codegen everywhere.  Native kernels self-verify bitwise
            against the numpy codegen on first call, so both settings
            produce identical results — on hosts without a C toolchain
            ``"auto"`` behaves like ``"numpy"`` (logged once).
    """

    prune: bool = True
    kernel: str = "auto"
    trace: bool = True
    dtype: str = "float"
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ConfigurationError(f"unknown kernel {self.kernel!r}; use one of {_KERNELS}")
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; use one of {_BACKENDS}"
            )
        if self.dtype not in _COMPUTE_DTYPES:
            raise ConfigurationError(
                f"unknown compute dtype {self.dtype!r}; use one of {_COMPUTE_DTYPES}"
            )


class ExecutionContext:
    """Per-worker slot table and scratch-buffer pool.

    Buffers are keyed by ``(op_index, role)`` and reallocated only when the
    requested shape or dtype changes (e.g. the final partial batch); a
    context must never be shared between concurrently executing workers.
    """

    def __init__(self) -> None:
        self.slots: dict[int, np.ndarray] = {}
        self._buffers: dict[tuple[int, str], np.ndarray] = {}
        # Bound traced-program states (registers + prebound kernel thunks),
        # keyed by TracedProgram.uid; see repro.infer.fuse.TracedProgram.run.
        self._traced: dict[int, Any] = {}
        #: The int8 native kernels' byte-check verdicts in this context,
        #: ``op.index -> (op, passed)``: each int op is checked once per
        #: context, whatever batch sizes its programs bind (see
        #: :func:`repro.infer.native.binding._checked`).
        self.verdicts: dict[int, tuple] = {}

    def buffer(
        self,
        op_index: int,
        role: str,
        shape: tuple[int, ...],
        dtype: np.dtype = np.float64,
        zero: bool = False,
    ) -> np.ndarray:
        """Return a reusable buffer of ``shape``/``dtype`` for one op."""
        key = (op_index, role)
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
            self._buffers[key] = buf
        return buf


# -- ops ---------------------------------------------------------------------


def _im2col_single(x: np.ndarray, k: int, s: int, p: int) -> tuple[np.ndarray, int, int]:
    """One-off im2col (allocating, no context) — same layout as ConvOp.run.

    Used to materialize the dead-input bias maps at first execution; the hot
    path keeps using the buffer-pooled version inside :meth:`ConvOp.run`.
    """
    n, c, h, w = x.shape
    if k == 1 and s == 1 and p == 0:
        return x.reshape(n, c, h * w), h, w
    if p:
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
        xp[:, :, p:-p, p:-p] = x
        x = xp
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(n, c, k, k, oh, ow),
        strides=(sn, sc, sh, sw, sh * s, sw * s),
        writeable=False,
    )
    cols = np.empty((n, c * k * k, oh * ow), x.dtype)
    cols.reshape(n, c, k, k, oh, ow)[...] = windows
    return cols, oh, ow


@dataclass
class ConvOp:
    """Fused convolution: im2col matmul + folded BN scale/shift epilogue.

    Sparsity-aware extensions (set by the compilation passes, all optional):

    * ``impl`` selects the compute kernel — ``"dense"`` (one GEMM) or
      ``"shift_plane"`` (sum of per-level plane GEMMs over ``shift``);
    * ``live_rows`` / ``in_live_cols`` record which original filter rows /
      weight columns survived dead-filter pruning (``None`` = all);
    * ``dead_in_weight2d`` / ``dead_in_consts`` hold the removed input
      columns and the constant channel values feeding them: their product
      is a spatially-varying per-filter bias map (padding makes border
      pixels see fewer constant taps), materialized lazily per input
      spatial size and cached in ``dead_maps``.
    """

    index: int
    src: int
    dst: int
    weight2d: np.ndarray  # (F, C*kh*kw), quantized and BN-scale-folded
    bias: np.ndarray | None  # (F,) — conv bias and/or folded BN shift
    kernel: int
    stride: int
    padding: int
    impl: str = "dense"
    shift: "ShiftPlaneSet | None" = None
    live_rows: np.ndarray | None = None
    in_live_cols: np.ndarray | None = None
    dead_in_weight2d: np.ndarray | None = None
    dead_in_consts: np.ndarray | None = None
    dead_maps: dict = field(default_factory=dict, repr=False)

    def _dead_bias_map(self, h: int, w: int) -> np.ndarray:
        """(F, oh*ow) constant contribution of the pruned input channels."""
        cached = self.dead_maps.get((h, w))
        if cached is None:
            c_dead = self.dead_in_consts.shape[0]
            plane = np.empty((1, c_dead, h, w), self.dead_in_weight2d.dtype)
            plane[0] = self.dead_in_consts[:, None, None]
            cols, _, _ = _im2col_single(plane, self.kernel, self.stride, self.padding)
            cached = np.matmul(self.dead_in_weight2d, cols[0])
            # Benign race under concurrent contexts: idempotent value, and
            # plain dict assignment keeps the op picklable for the shared-
            # memory publish to cluster workers (no locks on ops).
            self.dead_maps[(h, w)] = cached
        return cached

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        f = self.weight2d.shape[0]
        if k == 1 and s == 1 and p == 0:
            cols, oh, ow = x.reshape(n, c, h * w), h, w
        else:
            if p:
                xp = ctx.buffer(self.index, "pad", (n, c, h + 2 * p, w + 2 * p), x.dtype, zero=True)
                xp[:, :, p:-p, p:-p] = x
                x = xp
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            sn, sc, sh, sw = x.strides
            windows = as_strided(
                x,
                shape=(n, c, k, k, oh, ow),
                strides=(sn, sc, sh, sw, sh * s, sw * s),
                writeable=False,
            )
            cols = ctx.buffer(self.index, "cols", (n, c * k * k, oh * ow), x.dtype)
            cols.reshape(n, c, k, k, oh, ow)[...] = windows
        out = ctx.buffer(self.index, "out", (n, f, oh * ow), x.dtype)
        if self.impl == "shift_plane" and self.shift is not None:
            out[...] = 0.0
            for level, plane in enumerate(self.shift.planes):
                if plane.col_index is None:
                    sel = cols
                else:
                    sel = ctx.buffer(
                        self.index, f"cols{level}", (n, plane.col_index.size, oh * ow), x.dtype
                    )
                    np.take(cols, plane.col_index, axis=1, out=sel)
                if plane.rows is None:
                    part = ctx.buffer(self.index, f"part{level}", (n, f, oh * ow), x.dtype)
                    np.matmul(plane.weight, sel, out=part)
                    out += part
                else:
                    part = ctx.buffer(
                        self.index, f"part{level}", (n, plane.rows.size, oh * ow), x.dtype
                    )
                    np.matmul(plane.weight, sel, out=part)
                    out[:, plane.rows, :] += part
        else:
            np.matmul(self.weight2d, cols, out=out)
        if self.bias is not None:
            out += self.bias[:, None]
        if self.dead_in_weight2d is not None:
            out += self._dead_bias_map(h, w)
        ctx.slots[self.dst] = out.reshape(n, f, oh, ow)


@dataclass
class LinearOp:
    """Affine map ``x @ W.T + b`` with the quantized weight cached.

    Carries the same sparsity extensions as :class:`ConvOp` (``impl``,
    ``shift``, ``live_rows``, ``in_live_cols``); pruned input features need
    no bias *map* here — their constant contribution is spatially uniform
    and is folded straight into ``bias`` at prune time.
    """

    index: int
    src: int
    dst: int
    weight_t: np.ndarray  # (in, out) — pre-transposed quantized weight
    bias: np.ndarray | None
    impl: str = "dense"
    shift: "ShiftPlaneSet | None" = None
    live_rows: np.ndarray | None = None
    in_live_cols: np.ndarray | None = None

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", (x.shape[0], self.weight_t.shape[1]), x.dtype)
        if self.impl == "shift_plane" and self.shift is not None:
            out[...] = 0.0
            for level, plane in enumerate(self.shift.planes):
                if plane.col_index is None:
                    sel = x
                else:
                    sel = ctx.buffer(
                        self.index, f"in{level}", (x.shape[0], plane.col_index.size), x.dtype
                    )
                    np.take(x, plane.col_index, axis=1, out=sel)
                if plane.rows is None:
                    part = ctx.buffer(
                        self.index, f"part{level}", (x.shape[0], out.shape[1]), x.dtype
                    )
                    np.matmul(sel, plane.weight, out=part)
                    out += part
                else:
                    part = ctx.buffer(
                        self.index, f"part{level}", (x.shape[0], plane.rows.size), x.dtype
                    )
                    np.matmul(sel, plane.weight, out=part)
                    out[:, plane.rows] += part
        else:
            np.matmul(x, self.weight_t, out=out)
        if self.bias is not None:
            out += self.bias
        ctx.slots[self.dst] = out


@dataclass
class LeakyReluOp:
    """Leaky ReLU (slope 0 gives plain ReLU); in-place when safe.

    Uses ``max(x, slope*x)``, valid for ``0 <= slope < 1``, which runs as
    two allocation-free ufunc passes instead of a boolean-mask select.
    """

    index: int
    src: int
    dst: int
    slope: float
    inplace: bool = False

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        if self.slope == 0.0:
            out = x if self.inplace else ctx.buffer(self.index, "out", x.shape, x.dtype)
            np.maximum(x, 0.0, out=out)
        else:
            tmp = ctx.buffer(self.index, "out", x.shape, x.dtype)
            np.multiply(x, self.slope, out=tmp)
            out = x if self.inplace else tmp
            np.maximum(x, tmp, out=out)
        ctx.slots[self.dst] = out


@dataclass
class ActQuantOp:
    """Symmetric fixed-point activation quantization (rint + saturate)."""

    index: int
    src: int
    dst: int
    step: float
    half: float  # 2**(bits-1)
    inplace: bool = False

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = x if self.inplace else ctx.buffer(self.index, "out", x.shape, x.dtype)
        np.multiply(x, 1.0 / self.step, out=out)
        np.rint(out, out=out)
        np.clip(out, -self.half, self.half - 1, out=out)
        out *= self.step
        ctx.slots[self.dst] = out


@dataclass
class AffineOp:
    """Standalone per-channel scale/shift (a BN with no conv to fold into)."""

    index: int
    src: int
    dst: int
    scale: np.ndarray  # (C,)
    shift: np.ndarray  # (C,)
    inplace: bool = False

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = x if self.inplace else ctx.buffer(self.index, "out", x.shape, x.dtype)
        np.multiply(x, self.scale[:, None, None], out=out)
        out += self.shift[:, None, None]
        ctx.slots[self.dst] = out


def _pool_views(x: np.ndarray, kernel: int, stride: int):
    """The ``kernel**2`` shifted strided views covering each pool window.

    Reducing across k*k same-shaped views with binary ufuncs is much faster
    than one ``np.max``/``np.mean`` over an ``as_strided`` 6-D window array,
    whose non-contiguous reduction axes defeat vectorization.
    """
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    views = [
        x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
        for i in range(kernel)
        for j in range(kernel)
    ]
    return views, oh, ow


@dataclass
class MaxPoolOp:
    index: int
    src: int
    dst: int
    kernel: int
    stride: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        views, oh, ow = _pool_views(x, self.kernel, self.stride)
        out = ctx.buffer(self.index, "out", x.shape[:2] + (oh, ow), x.dtype)
        out[...] = views[0]
        for v in views[1:]:
            np.maximum(out, v, out=out)
        ctx.slots[self.dst] = out


@dataclass
class AvgPoolOp:
    index: int
    src: int
    dst: int
    kernel: int
    stride: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        views, oh, ow = _pool_views(x, self.kernel, self.stride)
        out = ctx.buffer(self.index, "out", x.shape[:2] + (oh, ow), x.dtype)
        out[...] = views[0]
        for v in views[1:]:
            out += v
        out *= 1.0 / (self.kernel * self.kernel)
        ctx.slots[self.dst] = out


@dataclass
class GlobalAvgPoolOp:
    index: int
    src: int
    dst: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        out = ctx.buffer(self.index, "out", x.shape[:2], x.dtype)
        np.mean(x, axis=(2, 3), out=out)
        ctx.slots[self.dst] = out


@dataclass
class AddOp:
    """Residual addition of two slots."""

    index: int
    src: int
    src2: int
    dst: int

    def run(self, ctx: ExecutionContext) -> None:
        a, b = ctx.slots[self.src], ctx.slots[self.src2]
        out = ctx.buffer(self.index, "out", a.shape, a.dtype)
        np.add(a, b, out=out)
        ctx.slots[self.dst] = out


@dataclass
class FlattenOp:
    index: int
    src: int
    dst: int

    def run(self, ctx: ExecutionContext) -> None:
        x = ctx.slots[self.src]
        ctx.slots[self.dst] = x.reshape(x.shape[0], -1)


def execute_ops(
    ops: list, x: np.ndarray, ctx: ExecutionContext, out_slot: int, dtype: np.dtype = np.float64
) -> np.ndarray:
    """Run a compiled op list on one batch; returns the output slot's buffer.

    The returned array is owned by ``ctx`` and only valid until the next
    call with the same context — callers that keep results across batches
    must copy.
    """
    ctx.slots[0] = np.asarray(x, dtype=dtype)
    profiler = active_profiler()
    if profiler is None:
        for op in ops:
            op.run(ctx)
    else:
        for op in ops:
            with profiler.phase(f"op{op.index}:{type(op).__name__}"):
                op.run(ctx)
    return ctx.slots[out_slot]


# -- weight bindings (cache invalidation) ------------------------------------


@dataclass
class WeightBinding:
    """Link from one plan op back to the layer (+BN) its arrays came from."""

    op_index: int
    layer: Module  # QConv2d / QLinear / Conv2d / Linear
    bn: BatchNorm2d | None
    built_key: tuple = ()
    built_fp: tuple = ()
    #: Every version-counted tensor the op's arrays derive from: the
    #: weight, thresholds, bias and BN affine parameters that exist.
    tensors: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sources = [getattr(self.layer, name, None) for name in ("weight", "thresholds", "bias")]
        if self.bn is not None:
            sources += [self.bn.gamma, self.bn.beta]
        self.tensors = tuple(t for t in sources if t is not None)

    def current_key(self) -> tuple:
        """Version vector of every tensor the op's arrays derive from, and
        of the BN running statistics."""
        key = tuple([t.version for t in self.tensors])
        return key if self.bn is None else key + (self.bn.buffers_version,)

    def current_fp(self) -> tuple:
        """Content fingerprint catching raw ``.data`` and BN-statistics
        mutations that bypass the version counters: a sum and an absolute
        sum of every tensor in :attr:`tensors`, plus the BN running
        statistics.  Covers the thresholds too: for FLightNN a raw threshold
        edit changes the quantized weights (and possibly the dead-filter
        structure) without touching the master weight."""
        fp: list[float] = []
        for t in self.tensors:
            fp += [float(t.data.sum()), float(np.abs(t.data).sum())]
        if self.bn is not None:
            fp.extend(bn_fingerprint(self.bn))
        return tuple(fp)


class ExecutionPlan:
    """A compiled model: flat op program + weight bindings + output slot.

    ``dtype`` is the compute precision of the whole plan.  The default is
    float64, which reproduces the eager forward bit-for-bit up to GEMM
    summation order (logits agree to ~1e-13); :func:`plan_dtype` describes
    the opt-in float32 deployment mode for quantized networks, which halves
    memory traffic at the cost of occasional one-LSB activation rounding
    flips.

    A plan is immutable once :func:`compile_network` returns: nothing
    rewrites its ops or weight arrays, so a batch that started on a plan
    finishes on it.  New weights mean a new plan (the engine recompiles on
    every refresh); only the lazy per-shape caches (traced programs, conv
    ``dead_maps``) fill in.
    """

    def __init__(
        self,
        ops: list,
        out_slot: int,
        bindings: list[WeightBinding],
        dtype: np.dtype = np.float64,
        config: PlanConfig | None = None,
        layer_info: list[dict] | None = None,
        pruned: bool = False,
    ) -> None:
        self.ops = ops
        self.out_slot = out_slot
        self.bindings = bindings
        self.dtype = np.dtype(dtype)
        self.config = config or PlanConfig()
        #: Per weighted layer: kernel choice, k histogram, pruned counts…
        #: (see :func:`_collect_layer_info`); surfaced through
        #: :meth:`summary` into ``/metrics``.
        self.layer_info = layer_info or []
        #: Whether dead-filter elimination removed anything.
        self.pruned = pruned
        #: Traced programs per input shape (lazy; see :meth:`execute`).
        self._traced: dict[tuple, Any] = {}
        #: Integer-only twin program (:mod:`repro.infer.intq`), attached by
        #: :func:`compile_network` when ``config.dtype == "int8"``; when
        #: set, :meth:`execute` routes batches through it.
        self.intq: Any = None

    def __len__(self) -> int:
        return len(self.ops)

    def summary(self) -> dict:
        """Plan metadata: kernel choices, k histograms, pruning counts."""
        kernels: dict[str, int] = {}
        k_hist: list[int] = []
        filters_total = pruned_total = dead_remaining = 0
        for entry in self.layer_info:
            kernels[entry["kernel"]] = kernels.get(entry["kernel"], 0) + 1
            filters_total += entry["filters"]
            pruned_total += entry["pruned_filters"]
            dead_remaining += entry["dead_remaining"]
            hist = entry.get("k_hist")
            if hist:
                if len(hist) > len(k_hist):
                    k_hist.extend([0] * (len(hist) - len(k_hist)))
                for k, count in enumerate(hist):
                    k_hist[k] += count
        programs = [
            {**p.stats, "backends": p.backend_counts()} for p in self._traced.values()
        ]
        from repro.infer.kernels import cache_stats

        try:
            from repro.infer.native import binding as _native_binding

            native_status = _native_binding.status()
        except Exception:  # pragma: no cover - defensive
            native_status = {"available": False, "reason": "native package unavailable"}
        return {
            "dtype": str(self.dtype),
            "compute_dtype": "int8" if self.intq is not None else str(self.dtype),
            "intq": self.intq.summary_block() if self.intq is not None else {"enabled": False},
            "ops": len(self.ops),
            "pruned": self.pruned,
            "filters_total": filters_total,
            "pruned_filters_total": pruned_total,
            "dead_filters_remaining": dead_remaining,
            "kernels": kernels,
            "k_hist": k_hist,
            "config": {
                "prune": self.config.prune,
                "kernel": self.config.kernel,
                "trace": self.config.trace,
                "dtype": self.config.dtype,
                "backend": self.config.backend,
            },
            "native": native_status,
            "trace": {
                "enabled": self.config.trace or self.intq is not None,
                "programs": programs,
                "fused_elementwise_total": sum(p["fused_elementwise"] for p in programs),
                "eliminated_buffers_total": sum(p["eliminated_buffers"] for p in programs),
                "peak_intermediate_bytes": max(
                    (p["peak_intermediate_bytes"] for p in programs), default=0
                ),
                "cache": cache_stats(),
            },
            "layers": self.layer_info,
        }

    def payload(self) -> dict:
        """The picklable program a remote worker needs to execute this plan.

        Op dataclasses hold only arrays and scalars (plus the integer twin
        program when compiled with ``dtype="int8"``), so the payload can be
        published into shared memory (:mod:`repro.utils.shm`) for cluster
        workers, with the weight arrays hoisted out of the pickle stream.
        Cluster workers run a float plan's ops through :func:`execute_ops`
        (the interpreter, which needs no native compile at worker start),
        and an int8 plan through :meth:`execute` on a plan rebuilt from the
        payload (so its traced programs, like the engine's), against their
        own :class:`ExecutionContext` — plan and context stay separate.
        """
        return {
            "ops": self.ops,
            "out_slot": self.out_slot,
            "dtype": self.dtype,
            "config": self.config,
            "intq": self.intq,
        }

    def execute(self, x: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        """Run one batch through the plan.

        With ``config.trace`` (the default) the batch executes through a
        shape-specialized traced program — generated fused kernels with
        pre-bound buffers (:mod:`repro.infer.fuse`), compiled lazily on the
        first batch of each input shape and bitwise-identical to the
        interpreter.  ``trace=False`` float plans run op by op via
        :func:`execute_ops`.  An int8 plan always runs its integer program
        traced; it returns float64 logits.

        Raises:
            ShapeError: If ``x`` is not NCHW, or is a shape the plan cannot
                run (a channel count its first conv does not take, an image
                too small for its pools, another size than an int8 plan was
                calibrated on).
        """
        shape = np.shape(x)
        if len(shape) != 4:
            raise ShapeError(f"plan input must be NCHW, got shape {shape}")
        intq = self.intq
        if intq is not None and shape[1:] != tuple(intq.input_chw):
            raise ShapeError(
                f"int8 plan was calibrated for inputs of shape (N, "
                f"{', '.join(map(str, intq.input_chw))}); got {shape} — rebuild the plan "
                "for this input size"
            )
        if intq is None and not self.config.trace:
            return execute_ops(self.ops, x, ctx, self.out_slot, self.dtype)
        program = self._traced.get(shape)
        if program is None:
            program = self.traced_program(shape)
        return program.run(x, ctx)

    def traced_program(self, input_shape: tuple):
        """The traced program for ``input_shape``, compiled on first use.

        Raises:
            ShapeError: If the plan cannot run on ``input_shape``; nothing
                is memoized for it.
        """
        shape = tuple(int(s) for s in input_shape)
        program = self._traced.get(shape)
        if program is None:
            from repro.infer.trace import build_traced_program

            program = self._traced[shape] = build_traced_program(self, shape)
        return program

    def stale_bindings(self, fingerprint: bool = True) -> list[WeightBinding]:
        """Bindings whose source tensors changed since the plan was built.

        Version counters catch every mutation made through repo code paths
        (optimizer steps, ``load_state_dict``, proximal shrinkage, BN
        training forwards); with ``fingerprint=True`` a content checksum
        additionally catches raw in-place edits of ``.data`` or of the BN
        running statistics that never bumped a version.
        """
        stale = []
        for b in self.bindings:
            if b.current_key() != b.built_key:
                stale.append(b)
            elif fingerprint and b.current_fp() != b.built_fp:
                stale.append(b)
        return stale


# -- compilation --------------------------------------------------------------


def _layer_weight(layer: Module) -> np.ndarray:
    """Deployed weight array of a (possibly quantized) conv/linear layer."""
    if isinstance(layer, (QConv2d, QLinear)):
        return layer.quantized_weight(use_cache=True)
    return layer.weight.data


def _conv_arrays(
    layer: Module, bn: BatchNorm2d | None, dtype: np.dtype = np.float64
) -> tuple[np.ndarray, np.ndarray | None]:
    wq = np.asarray(_layer_weight(layer), dtype=np.float64)
    f = wq.shape[0]
    weight2d = wq.reshape(f, -1)
    bias = getattr(layer, "bias", None)
    bias = None if bias is None else bias.data.copy()
    if bn is not None:
        # Folding happens in float64; only the finished arrays are cast to
        # the plan's compute dtype.
        scale, shift = bn_eval_affine(bn)
        weight2d = fold_scale_into_weight(weight2d, scale)
        bias = shift if bias is None else bias * scale + shift
    else:
        # Detach from the layer's cached array (and, for full-precision
        # strategies, from the master weight itself) so plan ops never alias
        # model state.
        weight2d = weight2d.copy()
    weight2d = np.ascontiguousarray(weight2d, dtype=dtype)
    return weight2d, None if bias is None else bias.astype(dtype)


def _linear_arrays(
    layer: Module, dtype: np.dtype = np.float64
) -> tuple[np.ndarray, np.ndarray | None]:
    w = np.asarray(_layer_weight(layer), dtype=np.float64)
    bias = getattr(layer, "bias", None)
    return (
        np.ascontiguousarray(w.T, dtype=dtype),
        None if bias is None else bias.data.astype(dtype),
    )


class _Compiler:
    def __init__(self, dtype: np.dtype = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self.ops: list = []
        self.bindings: list[WeightBinding] = []
        self._next_slot = 1  # slot 0 is the batch input

    def _new_slot(self) -> int:
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _push(self, op) -> int:
        self.ops.append(op)
        return op.dst

    def emit(self, module: Module, src: int) -> int:
        """Emit ops for ``module`` reading slot ``src``; returns output slot."""
        if isinstance(module, Sequential):
            return self.emit_sequence(list(module), src)
        if isinstance(module, (Identity, Dropout)):
            return src
        if isinstance(module, (QConv2d, Conv2d)):
            return self.emit_conv(module, None, src)
        if isinstance(module, BatchNorm2d):
            scale, shift = bn_eval_affine(module)
            return self._push(
                AffineOp(
                    len(self.ops), src, self._new_slot(),
                    scale.astype(self.dtype), shift.astype(self.dtype),
                )
            )
        if isinstance(module, LeakyReLU):
            return self._push(
                LeakyReluOp(len(self.ops), src, self._new_slot(), module.negative_slope)
            )
        if isinstance(module, ReLU):
            return self._push(LeakyReluOp(len(self.ops), src, self._new_slot(), 0.0))
        if isinstance(module, QuantizedActivation):
            return self.emit_actquant(module, src)
        if isinstance(module, MaxPool2d):
            return self._push(
                MaxPoolOp(len(self.ops), src, self._new_slot(), module.kernel, module.stride)
            )
        if isinstance(module, AvgPool2d):
            return self._push(
                AvgPoolOp(len(self.ops), src, self._new_slot(), module.kernel, module.stride)
            )
        if isinstance(module, GlobalAvgPool2d):
            return self._push(GlobalAvgPoolOp(len(self.ops), src, self._new_slot()))
        if isinstance(module, Flatten):
            return self._push(FlattenOp(len(self.ops), src, self._new_slot()))
        if isinstance(module, (QLinear, Linear)):
            weight_t, bias = _linear_arrays(module, self.dtype)
            op = LinearOp(len(self.ops), src, self._new_slot(), weight_t, bias)
            self._bind(op.index, module, None)
            return self._push(op)
        # Avoid a hard dependency cycle: BasicBlock lives in repro.models.
        if type(module).__name__ == "BasicBlock" and hasattr(module, "shortcut"):
            return self.emit_basic_block(module, src)
        raise CompileError(
            f"cannot compile module of type {type(module).__name__}; "
            "add a lowering rule in repro.infer.plan"
        )

    def emit_sequence(self, mods: list[Module], src: int) -> int:
        i = 0
        while i < len(mods):
            module = mods[i]
            if (
                isinstance(module, (QConv2d, Conv2d))
                and i + 1 < len(mods)
                and isinstance(mods[i + 1], BatchNorm2d)
            ):
                src = self.emit_conv(module, mods[i + 1], src)
                i += 2
            else:
                src = self.emit(module, src)
                i += 1
        return src

    def emit_conv(self, layer: Module, bn: BatchNorm2d | None, src: int) -> int:
        weight2d, bias = _conv_arrays(layer, bn, self.dtype)
        op = ConvOp(
            len(self.ops), src, self._new_slot(), weight2d, bias,
            layer.kernel_size, layer.stride, layer.padding,
        )
        self._bind(op.index, layer, bn)
        return self._push(op)

    def emit_actquant(self, module: QuantizedActivation, src: int) -> int:
        if not module.enabled:
            return src
        cfg = module.config
        return self._push(
            ActQuantOp(
                len(self.ops), src, self._new_slot(), cfg.step, 2.0 ** (cfg.bits - 1)
            )
        )

    def emit_basic_block(self, block: Module, src: int) -> int:
        out = self.emit_conv(block.conv1, block.bn1, src)
        out = self._push(
            LeakyReluOp(len(self.ops), out, self._new_slot(), block.act.negative_slope)
        )
        out = self.emit_actquant(block.act_quant1, out)
        out = self.emit_conv(block.conv2, block.bn2, out)
        shortcut = self.emit(block.shortcut, src)
        out = self._push(AddOp(len(self.ops), out, shortcut, self._new_slot()))
        out = self._push(
            LeakyReluOp(len(self.ops), out, self._new_slot(), block.act.negative_slope)
        )
        return self.emit_actquant(block.act_quant2, out)

    def _bind(self, op_index: int, layer: Module, bn: BatchNorm2d | None) -> None:
        binding = WeightBinding(op_index, layer, bn)
        binding.built_key = binding.current_key()
        binding.built_fp = binding.current_fp()
        self.bindings.append(binding)

    def mark_inplace(self) -> None:
        """Allow elementwise ops to overwrite inputs nobody else reads.

        Slot 0 is caller-owned and never overwritten; a slot feeding a
        residual shortcut has two readers and stays protected.
        """
        # Flatten emits a view of its input buffer, so reads are counted
        # against the aliased root slot.
        alias: dict[int, int] = {}
        for op in self.ops:
            if isinstance(op, FlattenOp):
                alias[op.dst] = alias.get(op.src, op.src)

        def root(slot: int) -> int:
            return alias.get(slot, slot)

        reads: dict[int, int] = {}
        for op in self.ops:
            reads[root(op.src)] = reads.get(root(op.src), 0) + 1
            src2 = getattr(op, "src2", None)
            if src2 is not None:
                reads[root(src2)] = reads.get(root(src2), 0) + 1
        for op in self.ops:
            if isinstance(op, (LeakyReluOp, ActQuantOp, AffineOp)):
                r = root(op.src)
                if r != 0 and reads.get(r, 0) == 1:
                    op.inplace = True


def plan_dtype(model: Module) -> np.dtype:
    """Recommended *deployment* precision: float32 when quantization makes
    it numerically safe, else float64.

    Single precision is structurally safe when the network re-quantizes its
    activations: every fixed-point grid value and every quantized weight
    (powers of two, 4-bit fixed point) is exactly representable in float32,
    and each :class:`~repro.quant.activations.QuantizedActivation` snaps the
    ~1e-7 relative accumulation error back onto the grid.  The one caveat —
    and the reason float32 is opt-in rather than the default — is rounding
    ties: an activation landing within a float32 ulp of a code boundary can
    round to the adjacent code, so float32 logits match float64 only to
    about one activation LSB (~3e-2), not to 1e-5.  Top-1/top-5 metrics are
    unaffected in practice; pass ``dtype=plan_dtype(model)`` to
    :class:`~repro.infer.engine.InferenceEngine` to accept that trade for
    ~2x less memory traffic.
    """
    for m in model.modules():
        if isinstance(m, QuantizedActivation) and m.enabled:
            return np.dtype(np.float32)
    return np.dtype(np.float64)


def declared_image_shape(model: Module) -> tuple[int, int, int] | None:
    """The CHW input shape ``model`` declares through its ``in_channels``
    and ``image_size``, or ``None`` when it declares none.

    The plan compiler calibrates at this shape and the serving layer
    refuses request images of any other.
    """
    channels = getattr(model, "in_channels", None)
    size = getattr(model, "image_size", None)
    if not isinstance(channels, int) or not isinstance(size, int):
        return None
    return (channels, size, size)


def _calibration_shape(model: Module) -> tuple[int, int, int, int] | None:
    """NCHW shape of the synthetic calibration batch, if the model declares it."""
    chw = declared_image_shape(model)
    return None if chw is None else (_CALIBRATION_BATCH, *chw)


def _collect_layer_info(
    ops: list,
    bindings: list[WeightBinding],
    prune_report: dict,
    autotune_report: dict,
) -> list[dict]:
    """Per-layer plan metadata: kernel choice, k histogram, pruned counts."""
    layers = []
    prune_layers = prune_report.get("layers", {})
    for b in bindings:
        op = ops[b.op_index]
        is_linear = isinstance(op, LinearOp)
        w = op.weight_t.T if is_linear else op.weight2d
        built_rows = int(np.asarray(b.layer.weight.data).shape[0])
        built_cols = int(np.prod(np.asarray(b.layer.weight.data).shape[1:]))
        entry: dict[str, Any] = {
            "op_index": b.op_index,
            "type": "linear" if is_linear else "conv",
            "filters": built_rows,
            "pruned_filters": built_rows - int(w.shape[0]),
            "pruned_inputs": built_cols - int(w.shape[1]),
            "dead_remaining": int(dead_filter_rows(w).size),
            "kernel": op.impl,
            "planes": 0 if op.shift is None else len(op.shift.planes),
        }
        if hasattr(b.layer, "filter_k"):
            k = np.asarray(b.layer.filter_k())
            entry["k_hist"] = np.bincount(k, minlength=int(k.max(initial=0)) + 1).tolist()
        pruned = prune_layers.get(b.op_index)
        if pruned is not None and pruned.get("blocked"):
            entry["blocked"] = pruned["blocked"]
        tuned = autotune_report.get(b.op_index)
        if tuned is not None:
            entry["autotune"] = tuned
        layers.append(entry)
    return layers


def compile_network(
    model: Module,
    dtype: "np.dtype | None" = None,
    config: PlanConfig | None = None,
) -> ExecutionPlan:
    """Compile ``model`` into a flat, grad-free :class:`ExecutionPlan`.

    Works on any module tree built from the repo's layer catalogue; a
    :class:`~repro.models.network.QuantizedNetwork` compiles as its feature
    trunk followed by its classifier.  Raises
    :class:`~repro.errors.CompileError` for module types with no lowering
    rule.  ``dtype`` defaults to float64, which reproduces eager logits to
    ~1e-13; see :func:`plan_dtype` for the float32 deployment mode.

    After lowering, the sparsity passes run under ``config`` (defaults to
    :class:`PlanConfig`): dead-filter elimination, shift-plane attachment
    and — when ``kernel="auto"`` finds candidates — per-layer kernel
    autotuning on a synthetic calibration batch.  On models with no dead
    filters all three passes are no-ops and compilation cost is unchanged.
    An int8 plan skips the last two: its integer program never runs the
    float kernels they choose between.
    """
    cfg = config or PlanConfig()
    compiler = _Compiler(np.float64 if dtype is None else np.dtype(dtype))
    if hasattr(model, "features") and hasattr(model, "classifier"):
        out = compiler.emit(model.features, 0)
        out = compiler.emit(model.classifier, out)
    else:
        out = compiler.emit(model, 0)
    if not compiler.ops:
        raise CompileError("model compiled to an empty plan")
    prune_report: dict = {}
    if cfg.prune:
        from repro.infer.prune import prune_plan

        prune_report = prune_plan(compiler.ops, compiler.bindings, out, compiler.dtype)
    candidates: list[int] = []
    if cfg.dtype != "int8":
        from repro.infer.shift_plane import attach_shift_planes

        candidates = attach_shift_planes(compiler.ops, compiler.bindings, compiler.dtype, cfg)
    compiler.mark_inplace()
    autotune_report: dict = {}
    if cfg.kernel == "auto" and candidates:
        shape = _calibration_shape(model)
        if shape is not None:
            from repro.infer.autotune import autotune_ops

            autotune_report = autotune_ops(
                compiler.ops, candidates, shape, compiler.dtype, cfg.backend
            )
    layer_info = _collect_layer_info(
        compiler.ops, compiler.bindings, prune_report, autotune_report
    )
    plan = ExecutionPlan(
        compiler.ops,
        out,
        compiler.bindings,
        compiler.dtype,
        config=cfg,
        layer_info=layer_info,
        pruned=prune_report.get("pruned_filters", 0) > 0,
    )
    if cfg.dtype == "int8":
        shape = _calibration_shape(model)
        if shape is None:
            raise CompileError(
                "PlanConfig(dtype='int8') needs a calibration batch shape; the model "
                "does not declare in_channels/image_size — build the integer program "
                "explicitly via repro.infer.intq.build_intq_program(plan, "
                "calibration_images=...)"
            )
        from repro.infer.intq import build_intq_program

        plan.intq = build_intq_program(plan, calibration_shape=shape)
    return plan
