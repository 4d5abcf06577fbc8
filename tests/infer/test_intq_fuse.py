"""Fused int8 epilogues: LeakyReLU and the activation rescale in the kernel.

The int8 lowering emits every LeakyReLU and ActQuant as a standalone
``IntStepOp``; the traced compiler's epilogue-fusion pass folds each one
whose input has a single reader into the requant epilogue of the int
conv/linear that produces it.  Fusion must not change a bit: every fused
epilogue (numpy reference and native) has to reproduce the standalone step
chain byte for byte, and a whole fused program has to match the same
program traced with the fusion pass switched off.  Native assertions are
gated on :func:`binding.available`; without a toolchain both sides run
numpy.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, build_intq_program, compile_network, fuse
from repro.infer.intq.build import IntConvOp, IntLinearOp, IntStepOp
from repro.infer.intq.kernels import STEP_ARGS, step_struct
from repro.infer.intq.requant import quantize_multiplier
from repro.infer.native import binding
from repro.infer.native.codegen import int_epilogue
from repro.infer.plan import AddOp, ConvOp, ExecutionContext, ExecutionPlan, LeakyReluOp

from tests.infer.conftest import build_small_network, sample_images, traced_int_chain

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


# -- epilogue unit tests --------------------------------------------------------


def _accumulators(shape: tuple, dtype: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    acc = rng.integers(-BOUND, BOUND, size=shape, endpoint=True, dtype=np.int64)
    flat = acc.reshape(-1)
    flat[:6] = [BOUND, -BOUND, 0, 1, -1, -BOUND + 1]
    return acc.astype(dtype)


def _identity_chain(kind: str, acc_dtype: str, steps: tuple) -> tuple:
    """A conv/linear whose requant is the identity (M0=1, SH=0), so the
    epilogue sees the input values themselves as accumulators, followed by
    ``steps`` as standalone nodes.  The conv carries a dead-input map and a
    bias to exercise their indexing.  The producer stores int64, which holds
    its value exactly whatever grid it had."""
    f = 6
    one, zero = np.ones(f, np.int64), np.zeros(f, np.int64)
    rng = np.random.default_rng(9)
    gb = rng.integers(-50, 50, f)
    eye = np.eye(f, dtype=acc_dtype)
    # An honest bound that selects ``acc_dtype`` (IntConvOp.acc_dtype).
    acc_bound = BOUND if acc_dtype == "int32" else 2**31
    if kind == "conv":
        consts = {"W": eye, "M0": one[:, None], "RND": zero[:, None], "SH": zero[:, None],
                  "GB": gb[:, None], "DMAP": rng.integers(-50, 50, (f, 12))}
        op = IntConvOp(0, 0, 1, 1, 1, 0, f, acc_bound, "int64", ("dead", "gb"), consts)
        x = _accumulators((4, f, 3, 4), acc_dtype)
    else:
        consts = {"W": eye, "M0": one, "RND": zero, "SH": zero, "GB": gb}
        op = IntLinearOp(0, 0, 1, f, acc_bound, "int64", ("gb",), consts)
        x = _accumulators((5, f), acc_dtype)
    chain = [(op, kind, None, x.shape, "int64")]
    dtype = "int64"
    for i, step in enumerate(steps, start=1):
        dtype = dtype if step[0].startswith("lrelu") else "int32"
        chain.append((IntStepOp(i, i, i + 1, step), "eltwise", step, x.shape, dtype))
    return x, chain


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
    def test_matches_standalone_chain(self, leaky, mode, kind, acc_dtype, monkeypatch):
        """numpy and native fused epilogues both equal the unfused
        producer -> LeakyReLU step -> rescale step chain."""
        steps = tuple(s for s in (LEAKY[leaky], RESCALE[mode]) if s is not None)
        x, chain = _identity_chain(kind, acc_dtype, steps)
        ctx = ExecutionContext()
        for backend in ("numpy", "auto"):
            program = traced_int_chain(x, chain, backend)
            (node,) = [p.node for p in program.node_plans]
            assert tuple(node.epilogue) == steps
            got = program.run(x, ctx).copy()
            if backend == "numpy":
                want = got
            assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert program.node_backends[0]["backend"] == "native"
            # A second call runs the pinned native kernel alone.
            assert _bitwise_equal(program.run(x, ctx), want)
        with monkeypatch.context() as patch:
            patch.setattr(fuse, "_fuse_epilogues", lambda ir: 0)
            split = traced_int_chain(x, chain, "numpy")
            assert len(split.node_plans) == 1 + len(steps)
            assert _bitwise_equal(split.run(x, ExecutionContext()), want)

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


def _nodes(engine, shape: tuple) -> list:
    return [p.node for p in engine.plan.traced_program(shape).node_plans]


class TestFusedPrograms:
    @pytest.mark.parametrize("kernel", ["dense", "shift_plane"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["numpy", "native"])
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_fused_equals_unfused(self, network_id, backend, workers, kernel, monkeypatch):
        """Tracing with the fusion pass off changes no logit byte, and the
        engine returns the same bytes serially or sharded across threads.
        ``kernel`` is a float-only knob: an int8 plan attaches no shift
        planes under either policy.  ``"native"`` is the default backend
        (numpy where no toolchain exists)."""
        config = PlanConfig(
            dtype="int8", kernel=kernel, backend="numpy" if backend == "numpy" else "auto"
        )
        model = build_small_network(network_id)
        engine = InferenceEngine(model, config=config)
        assert all(getattr(op, "shift", None) is None for op in engine.plan.ops)
        images = sample_images(6, seed=network_id)
        fused = engine.plan.execute(images, ExecutionContext()).copy()
        assert engine.plan.traced_program(images.shape).stats["fused_elementwise"] > 0
        with monkeypatch.context() as patch:
            patch.setattr(fuse, "_fuse_epilogues", lambda ir: 0)
            split = InferenceEngine(model, config=config)
            unfused = split.plan.execute(images, ExecutionContext()).copy()
            assert split.plan.traced_program(images.shape).stats["fused_elementwise"] == 0
        assert _bitwise_equal(fused, unfused)
        assert _bitwise_equal(engine.predict_logits(images, batch_size=2, workers=workers), fused)

    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_op_indices_unique(self, network_id):
        """Phase names and backend records are keyed by ``op.index``."""
        engine = InferenceEngine(build_small_network(network_id), config=PlanConfig(dtype="int8"))
        indices = [op.index for op in engine.plan.intq.ops]
        assert len(indices) == len(set(indices))

    @pytest.mark.parametrize("network_id", RESIDUAL_CONFIGS)
    def test_residual_add_inputs_not_fused(self, network_id):
        """A conv whose raw output feeds a residual add keeps it: the add
        reads that value, so nothing may be folded into its producer."""
        engine = InferenceEngine(build_small_network(network_id), config=PlanConfig(dtype="int8"))
        add_inputs = {
            s for op in engine.plan.ops if isinstance(op, AddOp) for s in (op.src, op.src2)
        }
        nodes = _nodes(engine, (2, 3, 16, 16))
        adds = [n for n in nodes if n.kind == "add"]
        feeding_adds = [n for n in nodes if n.kind == "conv" and n.op.dst in add_inputs]
        assert feeding_adds
        for node in feeding_adds:
            assert node.epilogue == []
            assert any(node.dst in add.srcs for add in adds)
        # The LeakyReLU and rescale after each add stay standalone steps.
        heads = {n.head[0] for n in nodes if n.kind == "eltwise"}
        assert heads & {"lrelu", "lrelu0"} and heads & {"lshift", "rshift", "requant"}

    def test_output_with_two_readers_not_fused(self, monkeypatch):
        """A conv output read by a LeakyReLU *and* another op must stay
        materialised: rewire net 4 so an add also reads the first conv's
        raw output, and the LeakyReLU after it must stay standalone."""
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
        plan.intq = build_intq_program(plan, calibration_images=sample_images(8, seed=2))
        assert plan.intq.layers[0]["fused"] == []
        nodes = [p.node for p in plan.traced_program(images.shape).node_plans]
        first = next(n for n in nodes if n.kind == "conv")
        assert first.epilogue == [] and first.op.dst == conv.dst
        assert any(n.head and n.head[0] in STEP_ARGS and n.srcs == (first.dst,) for n in nodes)
        got = plan.execute(images, ExecutionContext()).copy()
        monkeypatch.setattr(fuse, "_fuse_epilogues", lambda ir: 0)
        unfused = ExecutionPlan(plan.ops, plan.out_slot, plan.bindings, plan.dtype, plan.config)
        unfused.intq = plan.intq
        assert _bitwise_equal(got, unfused.execute(images, ExecutionContext()))

    def test_fused_steps_reported_and_keyed(self):
        """The plan summary names each layer's fused steps."""
        engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
        layers = engine.plan_summary()["intq"]["layers"]
        assert layers[0]["fused"] == ["lrelu", "rshift"]
        assert layers[-1]["fused"] == []
        nodes = _nodes(engine, (3, 3, 16, 16))
        matmuls = [n for n in nodes if n.kind in ("conv", "linear")]
        assert [list(step_struct(n.epilogue)) for n in matmuls] == [l["fused"] for l in layers]
