"""Quantized-weight cache invalidation: stale plans must never serve silently.

Covers the two mutation channels the plan's bindings watch:

* version-counter bumps (optimizer steps, ``load_state_dict`` — anything
  going through repo code paths), caught by the cheap key check;
* raw in-place ``.data`` edits that bypass the counters, caught by the
  content fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, StalePlanError
from repro.infer import InferenceEngine, PlanConfig
from repro.quant.sparsify import sparsify_model

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


def test_constructor_validation():
    model = build_small_network(4)
    with pytest.raises(ConfigurationError):
        InferenceEngine(model, on_stale="lazy")
    with pytest.raises(ConfigurationError):
        InferenceEngine(model, batch_size=0)
