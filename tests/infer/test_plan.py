"""Compilation structure: op lowering, bindings, buffers and error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CompileError, ShapeError
from repro.infer import ExecutionContext, compile_network
from repro.infer.fold import bn_eval_affine
from repro.infer import InferenceEngine, PlanConfig
from repro.infer import plan as plan_module
from repro.infer.plan import AffineOp, ConvOp, LinearOp
from repro.nn.layers.container import Sequential
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad

from tests.infer.conftest import build_small_network, sample_images


def test_one_binding_per_weighted_op():
    model = build_small_network(2)
    plan = compile_network(model)
    weighted = [op for op in plan.ops if isinstance(op, (ConvOp, LinearOp))]
    assert len(plan.bindings) == len(weighted)
    assert len(weighted) == len(model.conv_layers()) + len(model.linear_layers())


def test_conv_bn_pair_folds_to_single_op(rng):
    """A Conv2d→BatchNorm2d pair lowers to one ConvOp whose arrays carry the
    BN affine; a lone BatchNorm2d still lowers to an AffineOp."""
    conv = Conv2d(3, 4, kernel_size=3, padding=1, rng=rng)
    bn = BatchNorm2d(4)
    bn.running_mean[...] = rng.normal(size=4)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 4)
    pair = Sequential(conv, bn)
    pair.eval()
    plan = compile_network(pair)
    assert [type(op) for op in plan.ops] == [ConvOp]
    scale, shift = bn_eval_affine(bn)
    expected_w = conv.weight.data.reshape(4, -1) * scale[:, None]
    np.testing.assert_allclose(plan.ops[0].weight2d, expected_w)

    lone = Sequential(bn)
    plan2 = compile_network(lone)
    assert [type(op) for op in plan2.ops] == [AffineOp]

    x = rng.normal(size=(2, 3, 8, 8))
    with no_grad():
        want = pair(Tensor(x)).numpy()
    got = plan.execute(x, ExecutionContext())
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_stateless_leaf_raises(rng):
    """A module with no lowering rule fails compilation even when it holds
    no parameters: a plan never runs a module's eager forward."""

    class Clamp(Module):
        def forward(self, x):
            return x.clip(-1.0, 1.0)

    net = Sequential(Conv2d(3, 4, kernel_size=1, rng=rng), Clamp())
    net.eval()
    with pytest.raises(CompileError, match="Clamp"):
        compile_network(net)


def test_unknown_stateful_module_raises(rng):
    class Mystery(Module):
        def __init__(self):
            super().__init__()
            self.inner = Linear(4, 4, rng=rng)

        def forward(self, x):
            return self.inner(x)

    with pytest.raises(CompileError):
        compile_network(Sequential(Conv2d(3, 4, kernel_size=1, rng=rng), Mystery()))


def test_empty_model_raises():
    with pytest.raises(CompileError):
        compile_network(Sequential())


def test_non_nchw_input_raises():
    model = build_small_network(4)
    plan = compile_network(model)
    with pytest.raises(ShapeError):
        plan.execute(np.zeros((3, 16, 16)), ExecutionContext())


@pytest.mark.parametrize(
    "shape",
    [(1, 3, 2, 2), (1, 4, 16, 16)],
    ids=["too-small-for-the-pools", "wrong-channel-count"],
)
def test_float_engine_rejects_a_shape_it_cannot_run(shape):
    """A float batch the plan cannot take raises instead of running the
    interpreter: pools that leave no pixel (the interpreter returned NaN
    logits) and a channel count the first conv does not read."""
    engine = InferenceEngine(build_small_network(4))
    with pytest.raises(ShapeError, match=r"\((ConvOp|MaxPoolOp)\) cannot run on shape"):
        engine.forward_batch(np.zeros(shape))


def test_failed_shape_is_not_memoized(monkeypatch):
    """A shape that failed leaves no program behind, and the next good
    batch still runs traced (never through the interpreter)."""
    model = build_small_network(4)
    plan = compile_network(model)
    for bad in [(1, 3, 2, 2), (1, 4, 16, 16)]:
        for _ in range(2):  # raises again: the failure was not cached
            with pytest.raises(ShapeError):
                plan.execute(np.zeros(bad), ExecutionContext())
    assert plan._traced == {}

    def interpreted(*args, **kwargs):
        raise AssertionError("the traced plan fell through to the interpreter")

    monkeypatch.setattr(plan_module, "execute_ops", interpreted)
    images = sample_images(3, seed=4)
    got = plan.execute(images, ExecutionContext())
    assert list(plan._traced) == [images.shape]
    monkeypatch.undo()
    want = compile_network(model, config=PlanConfig(trace=False)).execute(
        images, ExecutionContext()
    )
    assert got.tobytes() == want.tobytes()


def test_scratch_buffers_are_reused_and_rebound_on_shape_change():
    model = build_small_network(4)
    plan = compile_network(model)
    ctx = ExecutionContext()
    out1 = plan.execute(sample_images(8, seed=1), ctx)
    buf_ids = {k: id(v) for k, v in ctx._buffers.items()}
    out1_copy = out1.copy()
    plan.execute(sample_images(8, seed=2), ctx)
    # Same batch shape: every scratch buffer is recycled, no reallocation.
    assert {k: id(v) for k, v in ctx._buffers.items()} == buf_ids
    # And the first result's buffer was overwritten — callers must copy.
    assert not np.array_equal(out1, out1_copy)
    # A different (partial) batch shape rebinds cleanly.
    out3 = plan.execute(sample_images(3, seed=3), ctx)
    assert out3.shape[0] == 3


def test_plan_ops_never_alias_model_weights():
    """Mutating a plan array must not write through to master weights."""
    model = build_small_network(5, scheme_key="Full")
    plan = compile_network(model)
    for op, binding in zip(
        [plan.ops[b.op_index] for b in plan.bindings], plan.bindings
    ):
        arr = op.weight2d if isinstance(op, ConvOp) else op.weight_t
        assert not np.shares_memory(arr, binding.layer.weight.data)
