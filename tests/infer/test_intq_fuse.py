"""Fused int8 epilogues: LeakyReLU and the activation rescale in the kernel.

The int8 lowering folds each ``IntLeakyOp``/``IntRescaleOp`` whose input
has a single reader into the requant epilogue of the conv/linear that
produces it.  Fusion must not change a bit: every epilogue (numpy
reference, native serial, native tiled) has to reproduce the standalone
op chain byte for byte, and a whole fused program has to match the same
program split back into standalone ops.  Native assertions are gated on
:func:`binding.available`; without a toolchain both sides run numpy.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, build_intq_program, compile_network
from repro.infer.intq.build import (
    IntAddOp,
    IntConvOp,
    IntLeakyOp,
    IntLinearOp,
    IntQProgram,
    IntRescaleOp,
    standalone_step_op,
)
from repro.infer.intq.kernels import step_struct
from repro.infer.intq.requant import quantize_multiplier
from repro.infer.kernels import AUTOTUNE_CACHE
from repro.infer.native import binding
from repro.infer.native.codegen import int_epilogue
from repro.infer.plan import AddOp, ConvOp, ExecutionContext, LeakyReluOp, LinearOp

from tests.infer.conftest import build_small_network, sample_images

ALL_CONFIGS = tuple(range(1, 9))
RESIDUAL_CONFIGS = (2, 6, 7, 8)
NATIVE_OK = binding.available()

#: Largest int32 code: accumulators at +-BOUND exercise the int64 widening
#: and every clip edge.
BOUND = 2**31 - 1


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _lrelu_step(slope: float) -> tuple:
    m0, sh = quantize_multiplier(slope, 24)
    return ("lrelu", m0, 1 << (sh - 1), sh)


def _requant_step() -> tuple:
    m0, amount = quantize_multiplier(0.0123, 24)
    return ("requant", m0, 1 << (amount - 1), amount, -128, 127)


LEAKY = {"lrelu": _lrelu_step(0.1), "lrelu0": ("lrelu0",), None: None}
RESCALE = {
    "lshift": ("lshift", 3, -128, 127),
    "rshift": ("rshift", 15, 1 << 14, -128, 127),
    "requant": _requant_step(),
    None: None,
}


def split_fused(ops: list) -> list:
    """Split every fused conv/linear back into the producer plus its
    standalone step ops.  The producer then stores int64, which holds its
    value exactly whatever grid it had."""
    split, next_slot, next_index = [], 10**6, 10**6
    for op in ops:
        if not getattr(op, "fused", ()):
            split.append(op)
            continue
        kinds = step_struct(op.fused)
        mid_dtype = op.out_dtype if all(k.startswith("lrelu") for k in kinds) else "int64"
        src = next_slot
        split.append(
            dataclasses.replace(op, dst=src, out_dtype=mid_dtype, fused=(), index=next_index)
        )
        next_slot, next_index = next_slot + 1, next_index + 1
        for i, step in enumerate(op.fused):
            dst = op.dst if i == len(op.fused) - 1 else next_slot
            split.append(standalone_step_op(step, next_index, src, dst))
            src, next_slot, next_index = dst, next_slot + 1, next_index + 1
    return split


def _run(ops: list, inputs: dict, out_slot: int) -> tuple[np.ndarray, ExecutionContext]:
    ctx = ExecutionContext()
    ctx.slots.update(inputs)
    for op in ops:
        op.run(ctx)
    return ctx.slots[out_slot].copy(), ctx


# -- epilogue unit tests --------------------------------------------------------


def _accumulators(shape: tuple, dtype: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    acc = rng.integers(-BOUND, BOUND, size=shape, endpoint=True, dtype=np.int64)
    flat = acc.reshape(-1)
    flat[:6] = [BOUND, -BOUND, 0, 1, -1, -BOUND + 1]
    return acc.astype(dtype)


def _identity_op(kind: str, acc_dtype: str, steps: tuple, backend: str, threads: int):
    """A conv/linear whose requant is the identity (M0=1, SH=0), so the
    epilogue sees the input values themselves as accumulators.  The conv
    carries a dead-input map and a bias to exercise their indexing."""
    f = 6
    one, zero = np.ones(f, np.int64), np.zeros(f, np.int64)
    rng = np.random.default_rng(9)
    gb = rng.integers(-50, 50, f)
    out_dtype = "int32" if steps and not step_struct(steps)[-1].startswith("lrelu") else "int64"
    eye = np.eye(f, dtype=acc_dtype)
    if kind == "conv":
        consts = {"W": eye, "M0": one[:, None], "RND": zero[:, None], "SH": zero[:, None],
                  "GB": gb[:, None], "DMAP": rng.integers(-50, 50, (f, 12))}
        op = IntConvOp(0, 0, 1, 1, 1, 0, f, "intq_gemm", acc_dtype, out_dtype,
                       ("dead", "gb"), (), consts, backend, threads, steps)
        x = _accumulators((4, f, 3, 4), acc_dtype)
    else:
        consts = {"W": eye, "M0": one, "RND": zero, "SH": zero, "GB": gb}
        op = IntLinearOp(0, 0, 1, f, "intq_gemm", acc_dtype, out_dtype, ("gb",), (),
                         consts, backend, threads, steps)
        x = _accumulators((5, f), acc_dtype)
    return op, x


EPILOGUE_CASES = [
    (leaky, mode)
    for leaky in LEAKY
    for mode in RESCALE
    if leaky is not None or mode is not None
]


class TestFusedEpilogue:
    @pytest.mark.parametrize("acc_dtype", ["int32", "int64"])
    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("leaky,mode", EPILOGUE_CASES)
    def test_matches_standalone_chain(self, leaky, mode, kind, acc_dtype):
        """numpy, native serial and native tiled fused epilogues all equal
        the unfused producer -> IntLeakyOp -> IntRescaleOp chain."""
        steps = tuple(s for s in (LEAKY[leaky], RESCALE[mode]) if s is not None)
        fused_np, x = _identity_op(kind, acc_dtype, steps, "numpy", 0)
        want, _ = _run(split_fused([fused_np]), {0: x}, 1)
        got, _ = _run([fused_np], {0: x}, 1)
        assert _bitwise_equal(got, want)
        for threads in (0, 2):
            op, _ = _identity_op(kind, acc_dtype, steps, "native", threads)
            got, ctx = _run([op], {0: x}, 1)
            assert _bitwise_equal(got, want)
            if NATIVE_OK:
                entry = ctx.__dict__["_native_int"][op.index]
                assert entry["mode"] == "native", entry
                assert (entry["variant"] == "mtloops") == (threads > 0), entry
                # A second call runs the pinned native kernel alone.
                op.run(ctx)
                assert _bitwise_equal(ctx.slots[1], want)

    def test_c_left_shift_is_unsigned(self):
        """``a << n`` on a negative signed value is undefined in C: every
        emitted left shift, multiply and rounding add must go through
        ``uint64_t``."""
        steps = ("lrelu", "lshift", "rshift", "requant", "lrelu0")
        source = "\n".join(int_epilogue(("dead", "gb", "out32"), steps, "f"))
        shifted = re.findall(r"([\w()]+?)\s*<<", source)
        assert shifted and all(operand.endswith("(uint64_t)a") for operand in shifted), source
        assert "<<=" not in source
        assert source.count("(uint64_t)a *") == 2


# -- whole programs ---------------------------------------------------------------


class TestFusedPrograms:
    @pytest.mark.parametrize("kernel", ["dense", "shift_plane"])
    @pytest.mark.parametrize("threads", ["auto", 2])
    @pytest.mark.parametrize("backend", ["numpy", "native"])
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_fused_equals_unfused(self, network_id, backend, threads, kernel):
        """Splitting every fused op back into standalone ops changes no
        logit byte."""
        config = PlanConfig(dtype="int8", backend=backend, threads=threads, kernel=kernel)
        engine = InferenceEngine(build_small_network(network_id), config=config)
        prog = engine.plan.intq
        assert any(getattr(op, "fused", ()) for op in prog.ops)
        images = sample_images(6, seed=network_id)
        fused = prog.run(images, ExecutionContext()).copy()
        split = IntQProgram(
            split_fused(prog.ops), prog.out_slot, prog.input_chw, prog.layers,
            prog.calibration, prog.calibration_images,
        )
        unfused = split.run(images, ExecutionContext()).copy()
        assert _bitwise_equal(fused, unfused)
        assert _bitwise_equal(engine.predict_logits(images), fused)

    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_op_indices_unique(self, network_id):
        """Buffer keys and profiler labels are keyed by ``op.index``."""
        engine = InferenceEngine(build_small_network(network_id), config=PlanConfig(dtype="int8"))
        indices = [op.index for op in engine.plan.intq.ops]
        assert len(indices) == len(set(indices))

    @pytest.mark.parametrize("network_id", RESIDUAL_CONFIGS)
    def test_residual_add_inputs_not_fused(self, network_id):
        """A conv whose raw output feeds a residual add keeps it: the add
        reads that slot, so nothing may be folded into its producer."""
        engine = InferenceEngine(build_small_network(network_id), config=PlanConfig(dtype="int8"))
        plan_ops = engine.plan.ops
        add_inputs = {s for op in plan_ops if isinstance(op, AddOp) for s in (op.src, op.src2)}
        weighted = [op for op in plan_ops if isinstance(op, (ConvOp, LinearOp))]
        matmuls = [op for op in engine.plan.intq.ops if isinstance(op, (IntConvOp, IntLinearOp))]
        assert len(weighted) == len(matmuls)
        feeding_adds = [iop for pop, iop in zip(weighted, matmuls) if pop.dst in add_inputs]
        assert feeding_adds
        for op in feeding_adds:
            assert op.fused == ()
            assert any(isinstance(a, IntAddOp) and op.dst in (a.src, a.src2)
                       for a in engine.plan.intq.ops)
        # The LeakyReLU and rescale after each add stay standalone ops.
        ops = engine.plan.intq.ops
        assert any(isinstance(op, IntLeakyOp) for op in ops)
        assert any(isinstance(op, IntRescaleOp) for op in ops)

    def test_output_with_two_readers_not_fused(self):
        """A conv output read by a LeakyReLU *and* another op must stay
        materialised: rewire net 4 so an add also reads the first conv's
        raw output, and the LeakyReLU after it must lower standalone."""
        images = sample_images(4, seed=1)
        plan = compile_network(build_small_network(4))
        ops = plan.ops
        conv = next(op for op in ops if isinstance(op, ConvOp))
        leaky = next(op for op in ops if isinstance(op, LeakyReluOp) and op.src == conv.dst)
        quant = next(op for op in ops if op.src == leaky.dst)
        leaky.inplace = False  # the add still reads the conv output
        add_slot = 1 + max(op.dst for op in ops)
        ops.insert(ops.index(leaky) + 1, AddOp(len(ops), conv.dst, leaky.dst, add_slot))
        quant.src = add_slot
        prog = build_intq_program(plan, calibration_images=sample_images(8, seed=2))
        first = next(op for op in prog.ops if isinstance(op, IntConvOp))
        assert first.fused == () and first.dst == conv.dst
        assert any(isinstance(op, IntLeakyOp) and op.src == conv.dst for op in prog.ops)
        want = IntQProgram(
            split_fused(prog.ops), prog.out_slot, prog.input_chw, prog.layers,
            prog.calibration, prog.calibration_images,
        ).run(images, ExecutionContext()).copy()
        assert _bitwise_equal(prog.run(images, ExecutionContext()), want)

    def test_fused_steps_reported_and_keyed(self):
        """The plan summary names each layer's fused steps, and both intq
        autotune keys carry them, so a decision timed on an unfused kernel
        is never applied to a fused one."""
        engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
        layers = engine.plan_summary()["intq"]["layers"]
        assert layers[0]["fused"] == ["lrelu", "rshift"]
        assert layers[-1]["fused"] == []
        fused = next(op.fused for op in engine.plan.intq.ops if getattr(op, "fused", ()))
        keys = [k for k in AUTOTUNE_CACHE._entries if k and k[0] in ("intq", "intq-native")]
        assert keys
        assert any(fused in key for key in keys)
