"""Quantized-weight cache invalidation: stale plans must never serve silently.

Covers the two mutation channels the plan's bindings watch:

* version-counter bumps (optimizer steps, ``load_state_dict``, batch-norm
  training forwards — anything going through repo code paths), caught by
  the cheap key check that ``forward_batch`` runs on every call;
* raw in-place ``.data`` or BN-statistics edits that bypass the counters,
  caught by the content fingerprint of the full check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, StalePlanError
from repro.infer import InferenceEngine, PlanConfig
from repro.infer import fold, plan as plan_module
from repro.nn.arena import BufferArena, use_arena
from repro.nn.layers.activation import LeakyReLU
from repro.nn.layers.container import Sequential
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import GlobalAvgPool2d
from repro.nn.tensor import Tensor
from repro.quant.sparsify import sparsify_model
from repro.train import TrainConfig, Trainer
from repro.train.checkpoint import TrainingCheckpoint

from tests.infer.conftest import build_small_network, eager_logits, sample_images


def _mutate_raw(model, delta=0.25):
    """In-place master-weight edit that does NOT bump the version counter."""
    layer = model.conv_layers()[0]
    layer.weight.data[...] += delta
    return layer


def _mutate_versioned(model, delta=0.25):
    """Master-weight edit through the documented bump-version protocol."""
    layer = _mutate_raw(model, delta)
    layer.weight.bump_version()
    return layer


def test_error_policy_refuses_stale_results():
    model = build_small_network(4)
    engine = InferenceEngine(model, on_stale="error")
    images = sample_images(4)
    engine.predict_logits(images)  # fresh: fine
    _mutate_versioned(model)
    with pytest.raises(StalePlanError):
        engine.predict_logits(images)


def test_error_policy_catches_raw_data_mutation():
    """Even a .data edit that never bumped a version cannot be served."""
    model = build_small_network(4)
    engine = InferenceEngine(model, on_stale="error")
    _mutate_raw(model)
    with pytest.raises(StalePlanError):
        engine.predict_logits(sample_images(4))


@pytest.mark.parametrize("mutate", [_mutate_raw, _mutate_versioned])
def test_refresh_policy_requantizes_transparently(mutate):
    model = build_small_network(4)
    engine = InferenceEngine(model, on_stale="refresh")
    images = sample_images(6)
    before = engine.predict_logits(images).copy()
    mutate(model)
    after = engine.predict_logits(images)
    assert np.max(np.abs(before - after)) > 0  # the mutation was material
    np.testing.assert_allclose(after, eager_logits(model, images), atol=1e-10)


def test_refresh_counts_stale_layers():
    model = build_small_network(1)
    engine = InferenceEngine(model)
    engine.predict_logits(sample_images(2))
    assert engine.refresh() == 0  # nothing stale after a clean build
    _mutate_versioned(model)
    assert engine.refresh() == 1  # exactly the touched conv, not the plan's ops
    assert engine.refresh() == 0  # and refreshing is idempotent


def test_refresh_leaves_the_old_plan_intact():
    """Plans are immutable: a refresh compiles a new one, and the plan it
    replaced still serves the weights it was built from, byte for byte."""
    model = build_small_network(4)
    engine = InferenceEngine(model)
    images = sample_images(5, seed=3)
    old_plan = engine.plan
    assert not old_plan.pruned and old_plan.intq is None
    before = old_plan.execute(images, engine.make_context()).copy()
    _mutate_versioned(model)
    assert engine.refresh() == 1
    assert engine.plan is not old_plan
    assert old_plan.execute(images, engine.make_context()).tobytes() == before.tobytes()


def test_one_predict_call_runs_one_plan(monkeypatch):
    """A refresh that lands while a predict_logits call runs does not split
    the call across weight versions: every shard runs the plan it started
    with, including the shard that triggered the refresh."""
    model = build_small_network(4)
    engine = InferenceEngine(model, batch_size=2)
    images = sample_images(6, seed=4)
    expected = engine.predict_logits(images)
    old_plan = engine.plan
    execute = old_plan.execute
    shards = []

    def refresh_then_execute(x, ctx):
        if not shards:
            _mutate_versioned(model)
            engine.refresh()
        shards.append(len(x))
        return execute(x, ctx)

    monkeypatch.setattr(old_plan, "execute", refresh_then_execute)
    got = engine.predict_logits(images)
    assert shards == [2, 2, 2]
    assert engine.plan is not old_plan
    assert got.tobytes() == expected.tobytes()
    assert engine.predict_logits(images).tobytes() != expected.tobytes()


@pytest.mark.parametrize("case", ["float64", "sparse0.3", "int8"])
def test_refreshed_engine_matches_a_fresh_one(case):
    """After a refresh the engine's logits are byte-equal to an engine
    built from scratch on the mutated model."""
    model = build_small_network(4)
    if case == "sparse0.3":
        sparsify_model(model, 0.3)
    config = PlanConfig(dtype="int8") if case == "int8" else None
    engine = InferenceEngine(model, config=config)
    images = sample_images(7, seed=5)
    before = engine.predict_logits(images)  # traces and binds the old plan
    _mutate_versioned(model)
    assert engine.refresh() == 1
    after = engine.predict_logits(images)
    assert after.tobytes() != before.tobytes()
    fresh = InferenceEngine(model, config=config).predict_logits(images)
    assert after.tobytes() == fresh.tobytes()


def test_ignore_policy_serves_cached_weights():
    model = build_small_network(4)
    engine = InferenceEngine(model, on_stale="ignore")
    images = sample_images(4)
    before = engine.predict_logits(images).copy()
    _mutate_versioned(model)
    np.testing.assert_array_equal(engine.predict_logits(images), before)


def test_bn_running_stats_mutation_is_caught():
    """BN statistics are plain buffers (no version counter); the fold
    fingerprint must still notice them moving — e.g. after a training-mode
    forward."""
    model = build_small_network(1)
    engine = InferenceEngine(model, on_stale="refresh")
    images = sample_images(5)
    engine.predict_logits(images)
    from repro.nn.layers.norm import BatchNorm2d

    bn = next(m for m in model.modules() if isinstance(m, BatchNorm2d))
    bn.running_mean[...] += 0.5
    np.testing.assert_allclose(
        engine.predict_logits(images), eager_logits(model, images), atol=1e-10
    )


def _first_bn(model):
    return next(m for m in model.modules() if isinstance(m, BatchNorm2d))


def _conv_bias_model():
    rng = np.random.default_rng(3)
    model = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, bias=True, rng=rng),
        LeakyReLU(0.1),
        GlobalAvgPool2d(),
        Linear(4, 3, rng=rng),
    )
    model.eval()
    return model, model[0].bias


@pytest.mark.parametrize("tensor", ["gamma", "beta", "conv_bias"])
def test_raw_affine_and_bias_edits_are_caught(tensor):
    """Raw ``.data`` edits of a BN gamma/beta or a conv bias bump no
    version counter; the content fingerprint covers them, so ``refresh()``
    recompiles and the logits match a fresh engine byte for byte."""
    if tensor == "conv_bias":
        model, target = _conv_bias_model()
    else:
        model = build_small_network(4)
        target = getattr(_first_bn(model), tensor)
    engine = InferenceEngine(model)
    images = sample_images(5, seed=8)
    before = engine.predict_logits(images)
    target.data[...] = target.data * 2 + 0.5
    assert engine.refresh() == 1
    after = engine.predict_logits(images)
    assert after.tobytes() != before.tobytes()
    assert after.tobytes() == InferenceEngine(model).predict_logits(images).tobytes()


def _train_forward(model, arena=None):
    """One training-mode forward, which moves every BN layer's running
    statistics; ``arena`` selects the fused fast path."""
    model.train()
    with use_arena(arena):
        if arena is not None:
            arena.begin_pass()
        model(Tensor(sample_images(8, seed=9)))
    model.eval()


# Each case prepares the model and returns the mutation to make once an
# engine serves it.


def _eager_train_forward(model, tmp_path, monkeypatch):
    return lambda: _train_forward(model)


def _arena_train_step(model, tmp_path, monkeypatch):
    fused = []
    real = BatchNorm2d._fused_train_forward

    def spy(self, x, arena):
        fused.append(self)
        return real(self, x, arena)

    def mutate():
        _train_forward(model, BufferArena())
        assert fused  # the arena fast path ran, not the eager graph

    monkeypatch.setattr(BatchNorm2d, "_fused_train_forward", spy)
    return mutate


def _load_running_stats(model, tmp_path, monkeypatch):
    def mutate():
        state = model.state_dict()
        for name in state:
            if name.endswith(("running_mean", "running_var")):
                state[name] = state[name] * 1.5 + 0.25
        model.load_state_dict(state)

    return mutate


def _checkpoint_rollback(model, tmp_path, monkeypatch):
    """Save, then train (moving the statistics) before the engine is
    built; the rollback writes the saved statistics back."""
    trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8, seed=0))
    store = TrainingCheckpoint(tmp_path / "store")
    store.save(trainer)
    _train_forward(model)

    def mutate():
        assert store.restore_latest(trainer) == 1

    return mutate


@pytest.mark.parametrize(
    "case",
    [_eager_train_forward, _arena_train_step, _load_running_stats, _checkpoint_rollback],
)
def test_forward_batch_recompiles_on_stale_bn_statistics(case, tmp_path, monkeypatch):
    """Every repo path that writes BN running statistics bumps their
    version, so the version-only check in ``forward_batch`` recompiles and
    the logits are byte-equal to an engine built fresh afterwards."""
    model = build_small_network(4)
    mutate = case(model, tmp_path, monkeypatch)
    engine = InferenceEngine(model)
    x = sample_images(1, seed=6)
    before = engine.forward_batch(x).copy()
    old_plan = engine.plan
    mutate()
    model.eval()
    after = engine.forward_batch(x).copy()
    assert engine.plan is not old_plan
    assert after.tobytes() != before.tobytes()  # the statistics moved
    fresh = InferenceEngine(model).forward_batch(x)
    assert after.tobytes() == fresh.tobytes()


def test_steady_state_stale_check_reads_no_fingerprint(monkeypatch):
    """forward_batch's stale check compares version counters only: once
    the plan is built it never computes a content fingerprint."""
    engine = InferenceEngine(build_small_network(4))
    x = sample_images(1, seed=6)
    want = engine.forward_batch(x).copy()

    def forbidden(*args):
        raise AssertionError("content fingerprint computed on the forward_batch path")

    monkeypatch.setattr(plan_module.WeightBinding, "current_fp", forbidden)
    monkeypatch.setattr(plan_module, "bn_fingerprint", forbidden)
    monkeypatch.setattr(fold, "bn_fingerprint", forbidden)
    for _ in range(3):
        assert engine.forward_batch(x).tobytes() == want.tobytes()


def test_constructor_validation():
    model = build_small_network(4)
    with pytest.raises(ConfigurationError):
        InferenceEngine(model, on_stale="lazy")
    with pytest.raises(ConfigurationError):
        InferenceEngine(model, batch_size=0)
