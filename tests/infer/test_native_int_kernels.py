"""The int8 program's C kernels against their numpy references, byte for byte.

The integer conv pads and unrolls the NCHW activation codes itself, the
max-pool reduces the codes with the float pool's emitter, and the input
quantize replays numpy's multiply/rint/clip/cast.  Each runs here as a
traced program (the same binding, registers and first-call byte check an
int8 plan uses) on shapes, strides, dtypes and values chosen to hit the
edges (odd sizes, channel counts off the tile sizes, ragged batches, int64
accumulators, rounding ties, clip bounds, infinities and NaN) and must
match the ``backend="numpy"`` program exactly.  Without a toolchain both
sides run numpy; the "native actually ran" assertions (read from
``program.node_backends``) are gated on :func:`binding.available`.

The conv and linear run in whichever GEMM their static accumulator bound
selects (sgemm below 2**24, C loops above), and both are covered; the
selection itself is tested at its edge, and on nets 1–8 the observed
accumulators are checked against the bound sgemm's exactness rests on.

The float kernels' C sources share those emitters, so a digest of the
sources for a fixed set of specs pins them: a change there would recompile
every float ``.so`` and could move float outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig
from repro.infer.intq import kernels as int_kernels
from repro.infer.intq.build import IntConvOp, IntLinearOp, IntMaxPoolOp, IntQuantizeOp
from repro.infer.intq.requant import quantize_multiplier_array
from repro.infer.native import binding, blas, codegen
from repro.infer.plan import ExecutionContext

from tests.infer.conftest import build_small_network, sample_images, traced_int_chain

NATIVE_OK = binding.available()


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(x: np.ndarray, node: tuple, backend: str, calls: int = 1, ctx=None):
    """Run the one-node program ``node`` on ``x`` ``calls`` times; returns
    the output copy and the node's backend record."""
    program = traced_int_chain(x, [node], backend)
    ctx = ctx or ExecutionContext()
    for _ in range(calls):
        out = program.run(x, ctx)
    return out.copy(), program.node_backends[node[0].index]


# -- conv ------------------------------------------------------------------------

C_IN, FILTERS, H, W = 5, 7, 7, 9

#: (accumulator, input codes): the int64 cases exceed int32 sums.
ACC_CASES = [("int32", "int32"), ("int64", "int32"), ("int64", "int64")]

#: Input code bound per (accumulator, codes) case; ``"sgemm"`` is the
#: int32 accumulator on codes small enough that every sum stays below
#: 2**24.  The ±2**20 int32 cases run the C loops but for the 1x1
#: kernels, whose few taps keep them under 2**24 too.
CODE_BOUNDS = {
    ("int32", "int32"): 2**20,
    ("int64", "int32"): 2**30,
    ("int64", "int64"): 2**33,
    "sgemm": 2**13,
}

_BLAS = binding.status()["blas"] or {}
HAVE_BLAS, HAVE_SGEMM = "path" in _BLAS, bool(_BLAS.get("sgemm"))


def _expected_gemm(acc_bound: int) -> str:
    """The bound rule, restated: the GEMM a layer binds on this host."""
    return "sgemm" if acc_bound < 2**24 and HAVE_SGEMM else "loops"


def _conv(k: int, s: int, p: int, batch: int, bound: int = 2**20, acc_bound=None) -> tuple:
    """A conv node over codes in ``[-bound, bound]``.  Its accumulator
    bound, and with it the accumulator dtype, is the honest one unless
    ``acc_bound`` loosens it (a looser bound is still a bound)."""
    rng = np.random.default_rng(k * 100 + s * 10 + p)
    ckk = C_IN * k * k
    oh, ow = (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1
    weights = rng.integers(-8, 9, (FILTERS, ckk))
    weights[rng.random(weights.shape) < 0.3] = 0
    if acc_bound is None:
        acc_bound = int(np.abs(weights).sum(axis=1).max()) * bound
    op = IntConvOp(7, 0, 1, k, s, p, FILTERS, acc_bound, "int64", ("dead", "gb"), {})
    # Keep accumulator * M0 inside int64, as the builder's guard does.
    m0, sh, rnd = quantize_multiplier_array(
        rng.uniform(1e-4, 0.05, FILTERS), 24 if op.acc_dtype == "int32" else 12
    )
    op.consts.update(
        W=weights.astype(op.acc_dtype),
        M0=m0[:, None], RND=rnd[:, None], SH=sh[:, None],
        GB=rng.integers(-50, 50, FILTERS)[:, None],
        DMAP=rng.integers(-50, 50, (FILTERS, oh * ow)),
    )
    return op, "conv", None, (batch, FILTERS, oh, ow), "int64"


def _codes(shape: tuple, dtype: str, bound: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).integers(-bound, bound, shape, endpoint=True)
    flat = x.reshape(-1)
    flat[:4] = [bound, -bound, 0, -1]
    return x.astype(dtype)


GEOMETRIES = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2)))


class TestIntConv:
    @staticmethod
    def _check(k, s, p, acc, xdt, batch, case):
        bound = CODE_BOUNDS[case]
        x = _codes((batch, C_IN, H, W), xdt, bound, seed=batch + k)
        node = _conv(k, s, p, batch, bound)
        assert node[0].acc_dtype == acc
        want, _ = _run(x, node, "numpy")
        got, record = _run(x, _conv(k, s, p, batch, bound), "auto", calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record["backend"] == "native", record
            assert record["gemm"] == _expected_gemm(node[0].acc_bound), record

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("acc,xdt", ACC_CASES)
    @pytest.mark.parametrize("k,s,p", GEOMETRIES)
    def test_matches_numpy(self, k, s, p, acc, xdt, batch):
        self._check(k, s, p, acc, xdt, batch, (acc, xdt))

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("k,s,p", GEOMETRIES)
    def test_sgemm_matches_numpy(self, k, s, p, batch):
        self._check(k, s, p, "int32", "int32", batch, "sgemm")

    def test_second_batch_size_skips_the_reference(self, monkeypatch):
        """The native conv is byte-checked against its numpy reference once
        per (context, op): a program for another batch size in the same
        context binds it checked, a fresh context checks it again."""
        calls: Counter = Counter()
        real = int_kernels._thunk

        def counting(kind, *args):
            thunk = real(kind, *args)

            def counted() -> None:
                calls[kind] += 1
                thunk()

            return counted

        monkeypatch.setattr(int_kernels, "_thunk", counting)
        op = _conv(3, 1, 1, 4)[0]
        ctx = ExecutionContext()
        for batch in (4, 3, 4):
            x = _codes((batch, C_IN, H, W), "int32", 2**20, seed=batch)
            node = _conv(3, 1, 1, batch)
            want, _ = _run(x, node, "numpy")
            node = (op,) + node[1:]
            got, record = _run(x, node, "auto", ctx=ctx)
            assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record["backend"] == "native"
            # One reference run for the check plus one per numpy program.
            assert calls["conv"] == 1 + 3
            _run(x, node, "auto")
            assert calls["conv"] == 1 + 3 + 1


# -- linear ----------------------------------------------------------------------

IN_F, OUT_F = 37, 11


def _linear(batch: int, bound: int) -> tuple:
    """A linear node (W pre-transposed ``(IN, F)``) over codes in
    ``[-bound, bound]``, with its honest accumulator bound."""
    rng = np.random.default_rng(bound % 97)
    weights = rng.integers(-8, 9, (IN_F, OUT_F))
    weights[rng.random(weights.shape) < 0.3] = 0
    acc_bound = int(np.abs(weights).sum(axis=0).max()) * bound
    op = IntLinearOp(5, 0, 1, OUT_F, acc_bound, "int64", ("gb",), {})
    m0, sh, rnd = quantize_multiplier_array(
        rng.uniform(1e-4, 0.05, OUT_F), 24 if op.acc_dtype == "int32" else 12
    )
    op.consts.update(W=weights.astype(op.acc_dtype), M0=m0, RND=rnd, SH=sh,
                     GB=rng.integers(-50, 50, OUT_F))
    return op, "linear", None, (batch, OUT_F), "int64"


class TestIntLinear:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize(
        "acc,xdt,bound", [("int32", "int32", CODE_BOUNDS["sgemm"])]
        + [(*case, CODE_BOUNDS[case]) for case in ACC_CASES]
    )
    def test_matches_numpy(self, acc, xdt, bound, batch):
        x = _codes((batch, IN_F), xdt, bound, seed=batch)
        node = _linear(batch, bound)
        assert node[0].acc_dtype == acc
        want, _ = _run(x, node, "numpy")
        got, record = _run(x, _linear(batch, bound), "auto", calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record["backend"] == "native", record
            assert record["gemm"] == _expected_gemm(node[0].acc_bound), record


# -- GEMM selection ------------------------------------------------------------------


@pytest.mark.skipif(not (NATIVE_OK and HAVE_BLAS), reason="no C toolchain or BLAS")
class TestGemmSelection:
    """The native int conv's GEMM follows its static accumulator bound:
    sgemm below 2**24, C loops from there (int32 and int64 accumulators)."""

    @pytest.mark.parametrize(
        "acc_bound,gemm", [(2**24 - 1, "sgemm"), (2**24, "loops"), (2**31, "loops")]
    )
    def test_bound_picks_the_gemm(self, acc_bound, gemm):
        x = _codes((3, C_IN, H, W), "int32", 2**10, seed=1)
        want, _ = _run(x, _conv(3, 1, 1, 3, 2**10, acc_bound=acc_bound), "numpy")
        if not HAVE_SGEMM:
            gemm = "loops"
        assert binding.int_gemm(acc_bound) == gemm
        got, record = _run(x, _conv(3, 1, 1, 3, 2**10, acc_bound=acc_bound), "auto", calls=2)
        assert _bitwise_equal(got, want)
        assert (record["backend"], record["gemm"]) == ("native", gemm)

    def test_without_sgemm_binds_loops(self, monkeypatch):
        real = blas.blas_info
        monkeypatch.setattr(blas, "blas_info", lambda: {**real(), "sgemm_addr": None})
        x = _codes((3, C_IN, H, W), "int32", 2**10, seed=2)
        want, _ = _run(x, _conv(3, 1, 1, 3, 2**10), "numpy")
        got, record = _run(x, _conv(3, 1, 1, 3, 2**10), "auto", calls=2)
        assert binding.int_gemm(2**10) == "loops"
        assert _bitwise_equal(got, want)
        assert (record["backend"], record["gemm"]) == ("native", "loops")
        # The float producers keep their BLAS.
        assert binding._blas_slots() is not None

    def test_status_reports_sgemm(self):
        assert isinstance(binding.status()["blas"].get("sgemm"), bool)


# -- accumulator bounds ----------------------------------------------------------------


def _exact_accumulator(op, x: np.ndarray) -> np.ndarray:
    """``op``'s MAC sums on codes ``x`` in int64, by an independent im2col."""
    w = op.consts["W"].astype(np.int64)
    x = x.astype(np.int64)
    if isinstance(op, IntLinearOp):
        return x @ w
    k, s, p = op.kernel, op.stride, op.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    n, c, oh, ow = win.shape[:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    return w @ cols


@pytest.mark.parametrize("network_id", range(1, 9))
def test_accumulators_stay_inside_the_static_bound(network_id, monkeypatch):
    """Every int conv/linear's observed |accumulator| is at most its
    ``acc_bound``, on random images and on images that saturate every
    input code at its grid's edge: the exactness of the float GEMMs
    rests on this bound."""
    observed: dict = {}
    real = int_kernels._bind_matmul

    def spying(kind, op, x, *args):
        thunk = real(kind, op, x, *args)

        def run() -> None:
            peak = int(np.abs(_exact_accumulator(op, x)).max(initial=0))
            observed[op.index] = max(observed.get(op.index, 0), peak)
            thunk()

        return run

    monkeypatch.setattr(int_kernels, "_bind_matmul", spying)
    engine = InferenceEngine(
        build_small_network(network_id), config=PlanConfig(dtype="int8", backend="numpy")
    )
    rng = np.random.default_rng(network_id)
    signs = rng.choice([-1.0, 1.0], (6, 3, 16, 16))
    for images in (sample_images(6, seed=network_id), 1e6 * signs, -1e6 * signs):
        engine.plan.execute(images, ExecutionContext())
    matmuls = [op for op in engine.plan.intq.ops if isinstance(op, (IntConvOp, IntLinearOp))]
    assert matmuls and set(observed) == {op.index for op in matmuls}
    layers = engine.plan_summary()["intq"]["layers"]
    for op, layer in zip(matmuls, layers):
        assert 0 < observed[op.index] <= op.acc_bound, (op.index, observed[op.index])
        assert layer["acc_bound_bits"] == op.acc_bound.bit_length()


# -- max-pool ----------------------------------------------------------------------


class TestIntMaxPool:
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    @pytest.mark.parametrize("h,w", [(7, 9), (8, 11)])
    @pytest.mark.parametrize("k,s", list(itertools.product((2, 3), (1, 2))))
    def test_matches_numpy(self, k, s, h, w, dtype):
        info = np.iinfo(dtype)
        x = _codes((3, 5, h, w), dtype, 2**20, seed=k + s + h)
        x.reshape(-1)[5:9] = [info.min, info.max, info.min + 1, info.max - 1]
        out_shape = (3, 5, (h - k) // s + 1, (w - k) // s + 1)
        node = (IntMaxPoolOp(3, 0, 1, k, s), "maxpool", None, out_shape, dtype)
        want, _ = _run(x, node, "numpy")
        got, record = _run(x, node, "auto", calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record["backend"] == "native", record


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


def _quantize(inv_step: float, shape: tuple) -> tuple:
    op = IntQuantizeOp(2, 0, 1, inv_step, LO, HI)
    return op, "eltwise", ("quantize",), shape, "int32"


class TestIntQuantize:
    @pytest.mark.parametrize("inv_step", [4.0, 1.0 / 0.3, 2.0**-3])
    def test_matches_numpy(self, inv_step):
        x = _quantize_inputs(inv_step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's NaN cast
            want, _ = _run(x, _quantize(inv_step, x.shape), "numpy")
            got, record = _run(x, _quantize(inv_step, x.shape), "auto", calls=2)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record["backend"] == "native", record

    def test_non_contiguous_input_runs_numpy(self):
        """A strided view is copied into the program's contiguous input, and
        the C quantize itself declines a view it cannot stream."""
        x = _quantize_inputs(4.0)[:, :, :, ::2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want, _ = _run(x, _quantize(4.0, x.shape), "numpy")
            got, _ = _run(x, _quantize(4.0, x.shape), "auto")
        assert _bitwise_equal(got, want)
        out = np.empty(x.shape, np.int32)
        op = _quantize(4.0, x.shape)[0]
        assert binding.make_int_quantize(op, x, out, lambda: None, {}, {}) is None


# -- whole program ------------------------------------------------------------------


def test_program_binds_every_kernel_native():
    """Net 4's int8 program, native: after the first-call checks every
    conv, max-pool and quantize node runs in C, and the logits equal the
    numpy program's."""
    engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
    images = sample_images(5, seed=3)
    ctx = ExecutionContext()
    first = engine.plan.execute(images, ctx).copy()
    again = engine.plan.execute(images, ctx)
    ref = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8", backend="numpy"))
    assert _bitwise_equal(first, ref.predict_logits(images))
    assert _bitwise_equal(again, first)
    program = engine.plan.traced_program(images.shape)
    kernels = {
        p.node.index: p.node
        for p in program.node_plans
        if p.node.kind in ("conv", "maxpool") or p.node.head == ("quantize",)
    }
    assert {type(node.op) for node in kernels.values()} == {IntConvOp, IntMaxPoolOp, IntQuantizeOp}
    if NATIVE_OK:
        for index, node in kernels.items():
            assert program.node_backends[index]["backend"] == "native", node


def test_blocked_program_checks_each_op_once(monkeypatch):
    """A program run in 6 batch blocks binds every block before any runs;
    the first block's byte check pins the rest, so each native op runs its
    numpy reference once on the first forward, not once per block."""
    from repro.infer import fuse

    reference_runs: Counter = Counter()
    checked = binding._checked

    def counting(link, numpy_thunk, out, inputs, record, key, memo=None):
        op = memo[1]

        def counted() -> None:
            reference_runs[op.index] += 1
            numpy_thunk()

        return checked(link, counted, out, inputs, record, key, memo)

    monkeypatch.setattr(binding, "_checked", counting)
    monkeypatch.setattr(fuse, "_BLOCK_TARGET_BYTES", 1)  # blocks of _BLOCK_MIN
    images = sample_images(6 * fuse._BLOCK_MIN, seed=4)
    engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
    ctx = ExecutionContext()
    got = engine.plan.execute(images, ctx).copy()
    assert engine.plan.traced_program(images.shape).stats["blocks"] == 6
    ref = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8", backend="numpy"))
    assert _bitwise_equal(got, ref.predict_logits(images, batch_size=len(images)))
    assert _bitwise_equal(engine.plan.execute(images, ctx), got)
    if NATIVE_OK:
        assert reference_runs and set(reference_runs.values()) == {1}, reference_runs


# -- float sources ------------------------------------------------------------------

_CONSTS = {"C": 5, "H": 9, "W": 7, "K": 3, "S": 2, "P": 1, "F": 6, "CKK": 45,
           "L": 20, "OH": 5, "OW": 4, "IN": 33, "HW": 63, "R": 4}
_EPIS = ((), ("lrelu",), ("lrelu0", "aq"))

#: sha256 of each family's sources below, NUL-joined, as first committed
#: with the integer kernels sharing these emitters.
FLOAT_SOURCE_DIGESTS = {
    "conv": "3d52e00c2781e43694229ce08f5bd7be87ada374e7688482f3cbc1f83b4bf01d",
    "linear": "5c60f6e7211f94bec68d62ee0ce8d956168c95f0e29a184c767393e24868b2bb",
    "pool": "6beb4c396d78c230f424e5a7b2e962dbbf9cc2165472778890c6f0e40bbffcff",
    "other": "014598c8ee1e9e7ffbc3d0b2a03f39bf1d7ae655012836f08af489fc20998613",
}


def _float_sources() -> dict:
    out = {"conv": [], "linear": [], "pool": [], "other": []}
    for rows, epi, ilp64, (haspad, onebyone), hb, hd, consts in itertools.product(
        (False, True), _EPIS, (True, False),
        ((True, False), (False, False), (False, True)), (True, False), (True, False),
        (None, _CONSTS),
    ):
        out["conv"].append(
            codegen.conv_source(epi, ilp64, haspad, onebyone, hb, hd, rows, consts)
        )
    for rows, epi, ilp64, hb, consts in itertools.product(
        (False, True), _EPIS, (True, False), (True, False), (None, _CONSTS)
    ):
        out["linear"].append(codegen.linear_source(epi, ilp64, hb, rows, consts))
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
