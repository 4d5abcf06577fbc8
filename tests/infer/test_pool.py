"""Thread batch sharding: deterministic ordering across workers, float64 and
int8 outputs byte-equal to the serial path."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.infer import InferenceEngine, shard_slices

from tests.infer.conftest import build_small_network, sample_images


class TestShardSlices:
    def test_covers_range_in_order(self):
        slices = shard_slices(10, 3)
        assert slices == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]

    def test_exact_division(self):
        assert shard_slices(8, 4) == [slice(0, 4), slice(4, 8)]

    def test_single_short_batch(self):
        assert shard_slices(2, 16) == [slice(0, 2)]

    def test_total_smaller_than_batch_covers_everything(self):
        """total < batch_size yields exactly one short slice, nothing lost."""
        slices = shard_slices(5, 32)
        assert slices == [slice(0, 5)]
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(5))

    def test_total_zero_is_empty(self):
        assert shard_slices(0, 8) == []

    def test_total_one(self):
        assert shard_slices(1, 8) == [slice(0, 1)]

    def test_negative_total_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_slices(-1, 8)

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            shard_slices(10, 0)


class TestShardedPrediction:
    def test_matches_serial_in_order(self):
        """Sharded logits are identical to the serial path, byte for byte
        and row for row, regardless of worker completion order."""
        model = build_small_network(4)
        images = sample_images(22, seed=9)
        engine = InferenceEngine(model)
        serial = engine.predict_logits(images, batch_size=5, workers=1)
        sharded = engine.predict_logits(images, batch_size=5, workers=3)
        assert sharded.dtype == serial.dtype and sharded.tobytes() == serial.tobytes()

    def test_tasks_borrow_engine_contexts(self):
        """Shard tasks draw their scratch contexts from the engine's pool
        and return them, so repeated sharded calls allocate no new ones."""
        model = build_small_network(4)
        images = sample_images(16, seed=3)
        engine = InferenceEngine(model)
        engine.predict_logits(images, batch_size=2, workers=2)
        pooled = set()
        while not engine._ctx_pool.empty():
            pooled.add(id(engine._ctx_pool.get_nowait()))
        assert 1 <= len(pooled) <= 2

    def test_more_workers_than_batches(self):
        model = build_small_network(4)
        images = sample_images(6)
        engine = InferenceEngine(model)
        serial = engine.predict_logits(images)
        np.testing.assert_array_equal(
            engine.predict_logits(images, batch_size=4, workers=8), serial
        )

    def test_workers_exceed_shards_single_shard(self):
        """total < batch_size under the pool: one shard, many idle workers."""
        model = build_small_network(4)
        images = sample_images(3)
        engine = InferenceEngine(model)
        serial = engine.predict_logits(images, workers=1)
        sharded = engine.predict_logits(images, batch_size=16, workers=6)
        np.testing.assert_array_equal(sharded, serial)

    def test_threaded_ordering_deterministic_across_runs(self):
        """Repeated threaded runs always return rows in input order, even
        though worker completion order is scheduler-dependent.  A short
        switch interval makes the tasks race for the engine's context
        pool; two tasks sharing one context would corrupt each other's
        rows."""
        model = build_small_network(4)
        images = sample_images(33, seed=17)
        engine = InferenceEngine(model)
        serial = engine.predict_logits(images, batch_size=4, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sharded = engine.predict_logits(images, batch_size=4, workers=4)
                np.testing.assert_array_equal(sharded, serial)
        finally:
            sys.setswitchinterval(interval)

    def test_invalid_workers_rejected(self):
        model = build_small_network(4)
        engine = InferenceEngine(model)
        with pytest.raises(ConfigurationError):
            engine.predict_logits(sample_images(4), workers=0)

    def test_empty_input_rejected(self):
        model = build_small_network(4)
        engine = InferenceEngine(model)
        with pytest.raises(ConfigurationError):
            engine.predict_logits(sample_images(0))
