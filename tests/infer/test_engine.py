"""Engine-level behaviour: evaluation parity with the Trainer, routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.infer import InferenceEngine
from repro.train.trainer import Trainer

from tests.infer.conftest import NUM_CLASSES, build_small_network, sample_images


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        sample_images(n, seed=seed), rng.integers(0, NUM_CLASSES, n), NUM_CLASSES
    )


def test_evaluate_matches_eager_trainer_path():
    """engine.evaluate is a drop-in for the eager Trainer.evaluate."""
    model = build_small_network(5)
    dataset = make_dataset(40, seed=2)
    trainer = Trainer(model)
    eager = trainer.evaluate(dataset, use_engine=False)
    engine = InferenceEngine(model).evaluate(dataset)
    assert eager.keys() == engine.keys()
    for key in eager:
        assert engine[key] == pytest.approx(eager[key], abs=1e-9)


def test_trainer_routes_through_engine():
    """Default Trainer.evaluate uses the compiled engine and agrees with the
    eager fallback; the engine is built once and cached on the trainer."""
    model = build_small_network(4)
    dataset = make_dataset(24, seed=3)
    trainer = Trainer(model)
    via_engine = trainer.evaluate(dataset)
    assert trainer._eval_engine is not None
    again = trainer.evaluate(dataset)
    assert via_engine == again
    eager = trainer.evaluate(dataset, use_engine=False)
    for key in eager:
        assert via_engine[key] == pytest.approx(eager[key], abs=1e-9)


def test_eager_evaluate_builds_no_graph():
    """Satellite check: eval passes run under no_grad — logits come back
    with no autograd parents and no gradients accumulate on weights."""
    model = build_small_network(4)
    trainer = Trainer(model)
    trainer.evaluate(make_dataset(8), use_engine=False)
    assert all(p.grad is None for p in model.parameters())


def test_eager_evaluate_restores_model_mode():
    """Eager evaluation hands the model back in the mode it found it in."""
    model = build_small_network(4)
    trainer = Trainer(model)
    model.eval()
    trainer.evaluate(make_dataset(8), use_engine=False)
    assert not model.training
    model.train()
    trainer.evaluate(make_dataset(8), use_engine=False)
    assert model.training


def test_predict_is_argmax_of_logits():
    model = build_small_network(4)
    engine = InferenceEngine(model)
    images = sample_images(10, seed=4)
    np.testing.assert_array_equal(
        engine.predict(images), np.argmax(engine.predict_logits(images), axis=1)
    )


def test_predict_accepts_dataset():
    model = build_small_network(4)
    dataset = make_dataset(12, seed=5)
    engine = InferenceEngine(model)
    np.testing.assert_array_equal(
        engine.predict_logits(dataset), engine.predict_logits(dataset.images)
    )


def test_network_compile_helper():
    model = build_small_network(4)
    engine = model.compile()
    assert isinstance(engine, InferenceEngine)
    assert engine.model is model


def test_forward_batch_returns_scratch_buffer():
    """forward_batch documents that its result is engine-owned scratch."""
    model = build_small_network(4)
    engine = InferenceEngine(model)
    a = engine.forward_batch(sample_images(4, seed=6))
    a_copy = a.copy()
    b = engine.forward_batch(sample_images(4, seed=7))
    assert a is b  # same buffer, overwritten in place
    assert not np.array_equal(a_copy, b)
