"""Engine thread-safety: the contracts the serving layer builds on.

Covers serialized stale-check/refresh, re-entrant ``predict_logits``, one
weight version per call while refreshes swap plans, and the
one-``ExecutionContext``-per-worker rule for ``forward_batch``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.infer import InferenceEngine
from repro.quant.qlayers import QConv2d

from tests.infer.conftest import build_small_network, sample_images


def test_predict_logits_reentrant_across_threads():
    """Concurrent predict_logits calls on one engine must all be exact —
    each call borrows a private scratch context from the pool."""
    model = build_small_network(4)
    engine = InferenceEngine(model)
    images = sample_images(24, seed=50)
    serial = engine.predict_logits(images, batch_size=5)

    outputs: "dict[int, np.ndarray]" = {}
    errors: "list[Exception]" = []
    barrier = threading.Barrier(6)

    def run(tid: int):
        try:
            barrier.wait()
            for _ in range(3):
                outputs[tid] = engine.predict_logits(images, batch_size=5)
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors, errors
    for tid, out in outputs.items():
        np.testing.assert_array_equal(out, serial, err_msg=f"thread {tid} diverged")


def test_forward_batch_with_private_contexts():
    """Workers following the one-context-per-thread contract get exact rows."""
    model = build_small_network(4)
    engine = InferenceEngine(model)
    images = sample_images(12, seed=51)
    serial = engine.predict_logits(images, batch_size=4)

    results: "dict[int, np.ndarray]" = {}
    errors: "list[Exception]" = []

    def run(worker: int, lo: int, hi: int):
        try:
            ctx = engine.make_context()
            for _ in range(4):
                out = np.array(engine.forward_batch(images[lo:hi], ctx=ctx), copy=True)
            results[worker] = out
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    spans = [(0, 4), (4, 8), (8, 12)]
    threads = [threading.Thread(target=run, args=(w, lo, hi)) for w, (lo, hi) in enumerate(spans)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors, errors
    for worker, (lo, hi) in enumerate(spans):
        np.testing.assert_array_equal(results[worker], serial[lo:hi])


def test_concurrent_stale_check_refreshes_once():
    """Racing stale checks must recompile exactly once overall (the refresh
    lock serializes check-and-recompile)."""
    model = build_small_network(4)
    engine = InferenceEngine(model)
    engine.predict_logits(sample_images(2))  # warm

    layer = next(m for m in model.modules() if isinstance(m, QConv2d))
    layer.weight.data[...] += 0.25
    layer.weight.bump_version()

    rebuilt_counts: "list[int]" = []
    barrier = threading.Barrier(8)

    def check():
        barrier.wait()
        rebuilt_counts.append(engine.check_stale())

    threads = [threading.Thread(target=check) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    # One thread wins the race and recompiles for the one stale layer;
    # everyone else sees a fresh plan.
    assert sorted(rebuilt_counts) == [0] * 7 + [1]
    assert engine.plan.stale_bindings() == []


def test_refresh_never_splits_a_call_across_weight_versions():
    """Threads predicting while another thread swaps weights and refreshes:
    every call returns the logits of exactly one weight version."""
    model = build_small_network(4)
    layer = next(m for m in model.modules() if isinstance(m, QConv2d))
    versions = [layer.weight.data.copy(), layer.weight.data * 2.0]
    images = sample_images(6, seed=52)
    refs = []
    for weight in versions:
        layer.weight.data[...] = weight
        layer.weight.bump_version()
        refs.append(InferenceEngine(model).predict_logits(images).tobytes())
    assert refs[0] != refs[1]
    # Only the refresher writes weights or compiles: "ignore" keeps the
    # predicting threads off the stale check, so no compile reads a
    # half-written weight.
    engine = InferenceEngine(model, on_stale="ignore", batch_size=2)
    outputs: "list[bytes]" = []
    errors: "list[Exception]" = []
    stop = threading.Event()

    def refresh_loop():
        i = 0
        while not stop.is_set():
            layer.weight.data[...] = versions[i % 2]
            layer.weight.bump_version()
            engine.refresh()
            i += 1

    def predict_loop():
        try:
            for _ in range(20):
                outputs.append(engine.predict_logits(images).tobytes())
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    refresher = threading.Thread(target=refresh_loop)
    predictors = [threading.Thread(target=predict_loop) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        refresher.start()
        for t in predictors:
            t.start()
        for t in predictors:
            t.join(60)
    finally:
        stop.set()
        refresher.join(60)
        sys.setswitchinterval(interval)
    assert not refresher.is_alive() and not any(t.is_alive() for t in predictors)
    assert not errors, errors
    assert len(outputs) == 80
    assert set(outputs) <= set(refs)
