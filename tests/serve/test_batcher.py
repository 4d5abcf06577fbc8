"""Micro-batcher: coalescing, ordering, deadlines, load shedding, shutdown."""

from __future__ import annotations

import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from repro.serve import BatcherConfig, MicroBatcher

from tests.serve.conftest import sample_images


class TestBatcherConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_s": -0.1},
            {"queue_depth": 0},
            {"default_deadline_s": -1.0},
            {"default_deadline_s": 0.0},
            {"workers": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatcherConfig(**kwargs)


class TestResultsAndCoalescing:
    def test_parity_and_order_against_serial_engine(self, served_engine):
        """Every future resolves to exactly its image's serial logits row."""
        images = sample_images(40, seed=1)
        serial = served_engine.predict_logits(images)
        with MicroBatcher(served_engine, BatcherConfig(max_batch_size=8, max_wait_s=0.005)) as b:
            futures = [b.submit(img) for img in images]
            for i, fut in enumerate(futures):
                np.testing.assert_array_equal(fut.result(timeout=10), serial[i])

    def test_requests_coalesce_into_batches(self, served_engine):
        """Queued-up requests must execute as multi-image batches."""
        batcher = MicroBatcher(served_engine, BatcherConfig(max_batch_size=16, max_wait_s=0.05))
        images = sample_images(32, seed=2)
        futures = [batcher.submit(img) for img in images]  # queued before start
        batcher.start()
        wait(futures, timeout=10)
        batcher.stop()
        hist = batcher.metrics.batch_size_histogram()
        assert sum(size * n for size, n in hist.items()) == 32
        assert max(hist) > 1, f"no coalescing happened: {hist}"

    def test_batch_size_one_disables_batching(self, served_engine):
        batcher = MicroBatcher(served_engine, BatcherConfig(max_batch_size=1))
        images = sample_images(6, seed=3)
        futures = [batcher.submit(img) for img in images]
        batcher.start()
        wait(futures, timeout=10)
        batcher.stop()
        assert batcher.metrics.batch_size_histogram() == {1: 6}

    def test_result_is_detached_copy(self, served_engine):
        """Futures stay valid after the worker moves on to later batches."""
        images = sample_images(10, seed=4)
        serial = served_engine.predict_logits(images)
        with MicroBatcher(served_engine, BatcherConfig(max_batch_size=1)) as b:
            futures = [b.submit(img) for img in images]
            wait(futures, timeout=10)
        for i, fut in enumerate(futures):  # read *after* all batches ran
            np.testing.assert_array_equal(fut.result(), serial[i])


class TestValidation:
    def test_non_chw_rejected(self, served_engine):
        b = MicroBatcher(served_engine)
        with pytest.raises(ShapeError):
            b.submit(np.zeros((4, 3, 16, 16)))  # a batch, not one image

    def test_mismatched_shape_rejected_without_poisoning(self, served_engine):
        """A wrong-shaped image errors alone; queued work is untouched."""
        b = MicroBatcher(served_engine, BatcherConfig(max_batch_size=8, max_wait_s=0.05))
        good = b.submit(sample_images(1, seed=5)[0])
        with pytest.raises(ShapeError):
            b.submit(np.zeros((3, 8, 8)))
        b.start()
        assert good.result(timeout=10).shape == (10,)
        b.stop()
        assert b.metrics.offered.value == 1  # malformed request never counted


class TestDeadlines:
    def test_expired_request_dropped_before_compute(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.pause()
        fut = b.submit(sample_images(1)[0], deadline_s=0.01)
        time.sleep(0.05)
        b.resume()
        with pytest.raises(DeadlineExceededError):
            fut.result(timeout=10)
        b.stop()
        snap = b.metrics.snapshot()["requests"]
        assert snap["expired"] == 1 and snap["completed"] == 0

    def test_default_deadline_from_config(self, served_engine):
        b = MicroBatcher(served_engine, BatcherConfig(default_deadline_s=0.01)).start()
        b.pause()
        fut = b.submit(sample_images(1)[0])
        time.sleep(0.05)
        b.resume()
        with pytest.raises(DeadlineExceededError):
            fut.result(timeout=10)
        b.stop()

    def test_generous_deadline_completes(self, served_engine):
        with MicroBatcher(served_engine) as b:
            fut = b.submit(sample_images(1)[0], deadline_s=30.0)
            assert fut.result(timeout=10).shape == (10,)


class TestBackpressure:
    def test_reject_policy_sheds_beyond_high_water(self, served_engine):
        b = MicroBatcher(served_engine, BatcherConfig(queue_depth=2)).start()
        b.pause()  # hold the queue at depth deterministically
        futs = [b.submit(img) for img in sample_images(2, seed=6)]
        with pytest.raises(QueueFullError):
            b.submit(sample_images(1, seed=7)[0])
        b.resume()
        wait(futs, timeout=10)
        b.stop()
        snap = b.metrics.snapshot()["requests"]
        assert snap == {
            "offered": 3, "accepted": 2, "shed": 1, "completed": 2,
            "expired": 0, "failed": 0, "cancelled": 0,
        }


class TestShutdown:
    def test_graceful_drain_resolves_every_future(self, served_engine):
        """The acceptance-criteria shutdown test: stop(drain=True) completes
        all queued work — zero dropped or cancelled futures."""
        images = sample_images(24, seed=10)
        serial = served_engine.predict_logits(images)
        b = MicroBatcher(served_engine, BatcherConfig(max_batch_size=4)).start()
        b.pause()  # pile everything up so stop() really has work to drain
        futures = [b.submit(img) for img in images]
        b.stop(drain=True)  # drain overrides pause
        for i, fut in enumerate(futures):
            assert fut.done()
            np.testing.assert_array_equal(fut.result(), serial[i])
        snap = b.metrics.snapshot()["requests"]
        assert snap["completed"] == len(images)
        assert snap["cancelled"] == 0

    def test_fast_stop_fails_queued_futures_explicitly(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.pause()
        futures = [b.submit(img) for img in sample_images(5, seed=11)]
        b.stop(drain=False)
        for fut in futures:
            assert fut.done()
            with pytest.raises(ServerClosedError):
                fut.result()
        assert b.metrics.cancelled.value == 5

    def test_submit_after_stop_rejected(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.stop()
        with pytest.raises(ServerClosedError):
            b.submit(sample_images(1)[0])

    def test_stop_idempotent(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.stop()
        b.stop()

    def test_multi_worker_batcher_parity(self, served_engine):
        """workers>1: each worker owns a context; results stay exact."""
        images = sample_images(30, seed=12)
        serial = served_engine.predict_logits(images)
        cfg = BatcherConfig(max_batch_size=4, max_wait_s=0.001, workers=3)
        with MicroBatcher(served_engine, cfg) as b:
            futures = [b.submit(img) for img in images]
            for i, fut in enumerate(futures):
                np.testing.assert_array_equal(fut.result(timeout=10), serial[i])
