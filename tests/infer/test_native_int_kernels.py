"""The int8 program's C kernels against their numpy references, byte for byte.

The integer conv pads and unrolls the NCHW activation codes itself, the
max-pool reduces the codes with the float pool's emitter, and the input
quantize replays numpy's multiply/rint/clip/cast.  Each is run here on
shapes, strides, dtypes and values chosen to hit the edges (odd sizes,
channel counts off the tile sizes, ragged batches, int64 accumulators,
rounding ties, clip bounds, infinities and NaN) and must match the
``backend="numpy"`` op exactly.  Without a toolchain both sides run numpy;
the "native actually ran" assertions are gated on :func:`binding.available`.

The float kernels' C sources share those emitters, so a digest of the
sources for a fixed set of specs pins them: a change there would recompile
every float ``.so`` and could move float outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig
from repro.infer.intq.build import IntConvOp, IntMaxPoolOp, IntQuantizeOp
from repro.infer.intq.requant import quantize_multiplier_array
from repro.infer.native import binding, codegen
from repro.infer.plan import ExecutionContext

from tests.infer.conftest import build_small_network, sample_images

NATIVE_OK = binding.available()


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(op, x: np.ndarray, calls: int = 1) -> tuple[np.ndarray, ExecutionContext]:
    ctx = ExecutionContext()
    ctx.slots[op.src] = x
    for _ in range(calls):
        op.run(ctx)
    return ctx.slots[op.dst].copy(), ctx


def _native_mode(ctx: ExecutionContext, op):
    return ctx.__dict__.get("_native_int", {}).get(op.index, {}).get("mode")


def _roles(ctx: ExecutionContext, op) -> dict:
    return {role: buf.dtype for (index, role), buf in ctx._buffers.items() if index == op.index}


# -- conv ------------------------------------------------------------------------

C_IN, FILTERS, H, W = 5, 7, 7, 9

#: (accumulator, input codes): the int64 cases exceed int32 sums.
ACC_CASES = [("int32", "int32"), ("int64", "int32"), ("int64", "int64")]


def _conv_op(k: int, s: int, p: int, acc: str, backend: str) -> IntConvOp:
    rng = np.random.default_rng(k * 100 + s * 10 + p)
    ckk = C_IN * k * k
    oh, ow = (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1
    weights = rng.integers(-8, 9, (FILTERS, ckk))
    weights[rng.random(weights.shape) < 0.3] = 0
    # Keep accumulator * M0 inside int64, as the builder's guard does.
    m0, sh, rnd = quantize_multiplier_array(
        rng.uniform(1e-4, 0.05, FILTERS), 24 if acc == "int32" else 12
    )
    consts = {
        "W": weights.astype(acc),
        "M0": m0[:, None], "RND": rnd[:, None], "SH": sh[:, None],
        "GB": rng.integers(-50, 50, FILTERS)[:, None],
        "DMAP": rng.integers(-50, 50, (FILTERS, oh * ow)),
    }
    return IntConvOp(7, 0, 1, k, s, p, FILTERS, acc, "int64", ("dead", "gb"), consts, backend)


def _codes(shape: tuple, dtype: str, bound: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).integers(-bound, bound, shape, endpoint=True)
    flat = x.reshape(-1)
    flat[:4] = [bound, -bound, 0, -1]
    return x.astype(dtype)


class TestIntConv:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("acc,xdt", ACC_CASES)
    @pytest.mark.parametrize("k,s,p", list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2))))
    def test_matches_numpy(self, k, s, p, acc, xdt, batch):
        bound = {"int32": 2**20, "int64": 2**30}[acc] if xdt == "int32" else 2**33
        x = _codes((batch, C_IN, H, W), xdt, bound, seed=batch + k)
        want, _ = _run(_conv_op(k, s, p, acc, "numpy"), x)
        op = _conv_op(k, s, p, acc, "native")
        got, ctx = _run(op, x, calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert _native_mode(ctx, op) == "native"
            # After its check the native path holds no numpy pad/im2col
            # scratch; its own pad and cols are one sample, not int32 codes.
            roles = _roles(ctx, op)
            assert not set(roles) & set(binding.NUMPY_SCRATCH), roles
            assert roles["natpad"] != np.int32 or acc == "int32"
            assert roles["natcols"] == roles["natpad"]

    def test_batch_changes_rebuild_the_call(self):
        """The packed C call is reused while the batch (and so every array
        it points at) is steady, and rebuilt when a ragged batch
        reallocates the output buffer."""
        op = _conv_op(3, 1, 1, "int32", "native")
        ref = _conv_op(3, 1, 1, "int32", "numpy")
        ctx, ref_ctx = ExecutionContext(), ExecutionContext()
        inputs = {b: _codes((b, C_IN, H, W), "int32", 2**20, seed=b) for b in (3, 4)}
        calls = []
        for batch in (4, 4, 3, 4, 4):
            ctx.slots[0] = ref_ctx.slots[0] = inputs[batch]
            op.run(ctx)
            ref.run(ref_ctx)
            assert _bitwise_equal(ctx.slots[1], ref_ctx.slots[1])
            if NATIVE_OK:
                calls.append(ctx.__dict__["_native_int"][op.index]["call"][1])
        if NATIVE_OK:
            assert calls[1] is calls[0]
            assert calls[2] is not calls[1] and calls[3] is not calls[2]
            assert calls[4] is calls[3]


# -- max-pool ----------------------------------------------------------------------


class TestIntMaxPool:
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    @pytest.mark.parametrize("h,w", [(7, 9), (8, 11)])
    @pytest.mark.parametrize("k,s", list(itertools.product((2, 3), (1, 2))))
    def test_matches_numpy(self, k, s, h, w, dtype):
        info = np.iinfo(dtype)
        x = _codes((3, 5, h, w), dtype, 2**20, seed=k + s + h)
        x.reshape(-1)[5:9] = [info.min, info.max, info.min + 1, info.max - 1]
        want, _ = _run(IntMaxPoolOp(3, 0, 1, k, s, "numpy"), x)
        op = IntMaxPoolOp(3, 0, 1, k, s, "native")
        got, ctx = _run(op, x, calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert _native_mode(ctx, op) == "native"


# -- input quantize ----------------------------------------------------------------

LO, HI = -128, 127


def _quantize_inputs(inv_step: float) -> np.ndarray:
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 40.0, (3, 3, 7, 9)) / inv_step
    step = 1.0 / inv_step
    specials = [
        # exact .5 ties, both signs, even and odd neighbours
        0.5 * step, 1.5 * step, 2.5 * step, -0.5 * step, -1.5 * step, -2.5 * step,
        # the clip edges and just beyond them
        LO * step, HI * step, (LO - 0.5) * step, (HI + 0.5) * step,
        (LO - 1) * step, (HI + 1) * step, (HI + 0.49) * step, 1e300, -1e300,
        np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324,
    ]
    flat = x.reshape(-1)
    # Spread the specials over vector lanes and the scalar tail.
    at = np.linspace(0, flat.size - 1, len(specials)).astype(int)
    flat[at] = specials
    flat[-len(specials):] = specials
    return x


class TestIntQuantize:
    @pytest.mark.parametrize("inv_step", [4.0, 1.0 / 0.3, 2.0**-3])
    def test_matches_numpy(self, inv_step):
        x = _quantize_inputs(inv_step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's NaN cast
            want, _ = _run(IntQuantizeOp(2, 0, 1, inv_step, LO, HI, "numpy"), x)
            op = IntQuantizeOp(2, 0, 1, inv_step, LO, HI, "native")
            got, ctx = _run(op, x, calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert _native_mode(ctx, op) == "native"
            assert "tmp" not in _roles(ctx, op)

    def test_non_contiguous_input_runs_numpy(self):
        x = _quantize_inputs(4.0)[:, :, :, ::2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want, _ = _run(IntQuantizeOp(2, 0, 1, 4.0, LO, HI, "numpy"), x)
            got, _ = _run(IntQuantizeOp(2, 0, 1, 4.0, LO, HI, "native"), x)
        assert _bitwise_equal(got, want)


# -- whole program ------------------------------------------------------------------


def test_program_keeps_no_numpy_conv_scratch():
    """Net 4's int8 program, native: after the first-call checks every
    conv, pool and quantize runs in C, and no conv keeps an im2col buffer
    of the numpy path."""
    engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
    images = sample_images(5, seed=3)
    ctx = ExecutionContext()
    first = engine.plan.intq.run(images, ctx).copy()
    again = engine.plan.intq.run(images, ctx)
    ref = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8", backend="numpy"))
    assert _bitwise_equal(first, ref.predict_logits(images))
    assert _bitwise_equal(again, first)
    if NATIVE_OK:
        ops = [op for op in engine.plan.intq.ops
               if isinstance(op, (IntConvOp, IntMaxPoolOp, IntQuantizeOp))]
        assert {type(op) for op in ops} == {IntConvOp, IntMaxPoolOp, IntQuantizeOp}
        for op in ops:
            assert _native_mode(ctx, op) == "native", op
            assert not set(_roles(ctx, op)) & set(binding.NUMPY_SCRATCH)


# -- float sources ------------------------------------------------------------------

_CONSTS = {"C": 5, "H": 9, "W": 7, "K": 3, "S": 2, "P": 1, "F": 6, "CKK": 45,
           "L": 20, "OH": 5, "OW": 4, "IN": 33, "HW": 63}
_EPIS = ((), ("lrelu",), ("lrelu0", "aq"))

#: sha256 of each family's sources below, NUL-joined, as first committed
#: with the integer kernels sharing these emitters.
FLOAT_SOURCE_DIGESTS = {
    "conv": "2704be9d36440fb0be1d8012c00794743d33e8c509ef3ed78a9ed787b6033524",
    "linear": "8b591e5b1c25b724be84345283b8335f381f219fed8a128819730faef2074e51",
    "pool": "6beb4c396d78c230f424e5a7b2e962dbbf9cc2165472778890c6f0e40bbffcff",
    "other": "014598c8ee1e9e7ffbc3d0b2a03f39bf1d7ae655012836f08af489fc20998613",
}


def _float_sources() -> dict:
    out = {"conv": [], "linear": [], "pool": [], "other": []}
    for impl, epi, ilp64, (haspad, onebyone), hb, hd, consts in itertools.product(
        ("dense", "shift_plane"), _EPIS, (True, False),
        ((True, False), (False, False), (False, True)), (True, False), (True, False),
        (None, _CONSTS),
    ):
        out["conv"].append(
            codegen.conv_source(impl, epi, ilp64, haspad, onebyone, hb, hd, consts)
        )
    for impl, epi, ilp64, hb, consts in itertools.product(
        ("dense", "shift_plane"), _EPIS, (True, False), (True, False), (None, _CONSTS)
    ):
        out["linear"].append(codegen.linear_source(impl, epi, ilp64, hb, consts))
    for epi, kernel, is_avg, consts in itertools.product(
        _EPIS, (0, 2, 3, 4, 5), (False, True), (None, _CONSTS)
    ):
        out["pool"].append(codegen.pool_source(epi, kernel, is_avg, consts))
    for epi in _EPIS:
        out["other"] += [codegen.gap_source(epi), codegen.gap_source(epi, _CONSTS),
                         codegen.add_source(epi), codegen.eltwise_source(epi)]
    return out


def test_float_sources_unchanged():
    digests = {
        family: hashlib.sha256("\x00".join(sources).encode()).hexdigest()
        for family, sources in _float_sources().items()
    }
    assert digests == FLOAT_SOURCE_DIGESTS
