"""Model registry: routing, lifecycle, and hot weight refreshes."""

from __future__ import annotations

from concurrent.futures import wait

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnknownModelError
from repro.infer import InferenceEngine
from repro.quant.qlayers import QConv2d
from repro.serve import BatcherConfig, ModelRegistry

from tests.serve.conftest import build_small_network, sample_images


def _mutate_versioned(model, delta=0.25):
    """Master-weight edit through the documented bump-version protocol."""
    layer = next(m for m in model.modules() if isinstance(m, QConv2d))
    layer.weight.data[...] += delta
    layer.weight.bump_version()


def _mutate_raw(model, delta=0.25):
    """In-place edit that bypasses the version counter (fingerprint path)."""
    layer = next(m for m in model.modules() if isinstance(m, QConv2d))
    layer.weight.data[...] += delta


class TestRegistration:
    def test_needs_exactly_one_of_model_or_engine(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.register("x")
        model = build_small_network(4)
        with pytest.raises(ConfigurationError):
            registry.register("x", model=model, engine=InferenceEngine(model))

    def test_duplicate_name_rejected(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with pytest.raises(ConfigurationError):
            registry.register("net4", build_small_network(4))

    def test_unknown_model_lists_known(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with pytest.raises(UnknownModelError, match="net4"):
            registry.get("nope")

    def test_default_model_requires_unique(self):
        registry = ModelRegistry()
        registry.register("a", build_small_network(4))
        assert registry.get(None).name == "a"
        registry.register("b", build_small_network(1))
        with pytest.raises(UnknownModelError):
            registry.get(None)

    def test_unregister(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        registry.unregister("net4")
        assert "net4" not in registry and len(registry) == 0
        with pytest.raises(UnknownModelError):
            registry.unregister("net4")

    def test_register_after_start_serves_immediately(self):
        registry = ModelRegistry().start()
        try:
            entry = registry.register("late", build_small_network(4))
            fut = registry.submit(sample_images(1)[0], model="late")
            np.testing.assert_array_equal(
                fut.result(timeout=10),
                entry.engine.predict_logits(sample_images(1))[0],
            )
        finally:
            registry.stop()


class TestRouting:
    def test_two_models_route_independently(self):
        registry = ModelRegistry(BatcherConfig(max_batch_size=4, max_wait_s=0.001))
        a = registry.register("net4", build_small_network(4))
        b = registry.register("net1", build_small_network(1))
        images = sample_images(10, seed=20)
        serial_a = a.engine.predict_logits(images)
        serial_b = b.engine.predict_logits(images)
        registry.start()
        try:
            futs_a = [registry.submit(img, model="net4") for img in images]
            futs_b = [registry.submit(img, model="net1") for img in images]
            for i, (fa, fb) in enumerate(zip(futs_a, futs_b)):
                np.testing.assert_array_equal(fa.result(timeout=10), serial_a[i])
                np.testing.assert_array_equal(fb.result(timeout=10), serial_b[i])
        finally:
            registry.stop()
        # Metrics are tracked per model.
        snap = registry.metrics_snapshot()
        assert snap["net4"]["requests"]["completed"] == 10
        assert snap["net1"]["requests"]["completed"] == 10


class TestHotWeightUpdates:
    def test_versioned_mutation_picked_up_transparently(self):
        """on_stale='refresh' + per-batch version check: no refresh() call
        needed for mutations that follow the bump-version protocol."""
        model = build_small_network(4)
        registry = ModelRegistry()
        entry = registry.register("net4", model)
        image = sample_images(1, seed=21)
        registry.start()
        try:
            before = registry.submit(image[0]).result(timeout=10)
            _mutate_versioned(model)
            after = registry.submit(image[0]).result(timeout=10)
        finally:
            registry.stop()
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, entry.engine.predict_logits(image)[0])

    def test_quiesced_refresh_catches_raw_mutation(self):
        """registry.refresh() fingerprints and recompiles — catching .data
        edits the cheap per-batch check cannot see."""
        model = build_small_network(4)
        registry = ModelRegistry()
        entry = registry.register("net4", model)
        image = sample_images(1, seed=22)
        registry.start()
        try:
            before = registry.submit(image[0]).result(timeout=10)
            entry.batcher.join_idle(10)
            _mutate_raw(model)
            rebuilt = registry.refresh("net4")
            assert rebuilt >= 1
            after = registry.submit(image[0]).result(timeout=10)
        finally:
            registry.stop()
        assert not np.array_equal(before, after)

    def test_refresh_does_not_drop_queued_requests(self):
        model = build_small_network(4)
        registry = ModelRegistry(BatcherConfig(max_batch_size=4))
        entry = registry.register("net4", model)
        images = sample_images(8, seed=23)
        registry.start()
        try:
            entry.batcher.pause()
            futures = [registry.submit(img) for img in images]
            registry.refresh()  # recompiles; leaves the queue alone
            assert not any(f.done() for f in futures)
            entry.batcher.resume()
            wait(futures, timeout=10)
            assert all(f.exception() is None for f in futures)
        finally:
            registry.stop()
        assert entry.metrics.completed.value == 8
