"""Hot weight refresh across a *structural* change (the ISSUE's regression).

A served model whose thresholds change under it must not be re-quantized
into the old pruned channel layout: the registry's refresh has to
rebuild the plan's pruning / shift-plane state and keep serving exact
logits.  The plan summary exposed through ``metrics_snapshot`` must reflect
the new sparsity state.
"""

from __future__ import annotations

import numpy as np

from repro.quant.sparsify import sparsify_model
from repro.serve import ModelRegistry

from tests.infer.conftest import build_small_network, eager_logits, sample_images

PARITY_ATOL = 1e-5


def _submit_all(registry, images):
    futures = [registry.submit(img) for img in images]
    return np.stack([f.result(timeout=10) for f in futures])


def test_refresh_rebuilds_plan_on_new_k_histogram():
    """Re-sparsifying to a different k histogram through registry.refresh()
    swaps in a freshly pruned plan with exact parity through the batcher."""
    model = build_small_network(4)
    sparsify_model(model, 0.3)
    registry = ModelRegistry()
    entry = registry.register("net4", model)
    images = sample_images(6, seed=71)
    registry.start()
    try:
        before = _submit_all(registry, images)
        assert np.max(np.abs(before - eager_logits(model, images))) <= PARITY_ATOL
        old_plan = entry.engine.plan
        old_pruned = entry.engine.plan_summary()["pruned_filters_total"]

        sparsify_model(model, 0.6)  # structural change: new channel layout
        entry.batcher.join_idle(10)
        assert registry.refresh("net4") > 0
        after = _submit_all(registry, images)
    finally:
        registry.stop()
    assert entry.engine.plan is not old_plan
    assert entry.engine.plan_summary()["pruned_filters_total"] > old_pruned
    assert np.max(np.abs(after - eager_logits(model, images))) <= PARITY_ATOL


def test_metrics_snapshot_carries_plan_summary():
    """/metrics exposes per-layer GEMM rows, k histogram and pruning counts."""
    model = build_small_network(4)
    sparsify_model(model, 0.5)
    registry = ModelRegistry()
    registry.register("net4", model)
    plan = registry.metrics_snapshot()["net4"]["plan"]
    assert plan["pruned"] is True
    assert plan["pruned_filters_total"] > 0
    assert sum(plan["kernels"].values()) == len(plan["layers"])
    assert plan["k_hist"][0] > 0  # the k_i histogram shows the dead filters
    assert all(layer["gemm_rows"] <= layer["filters"] for layer in plan["layers"])
    assert "kernel" not in plan["config"]


def test_int8_refresh_races_concurrent_predicts_without_torn_outputs():
    """Registry hot-refresh racing a stream of concurrent predicts on the
    integer-only path: every response must bitwise-match the int8 engine's
    *pre*- or *post*-refresh logits — never a torn mix of old packed planes
    and new quantization scales."""
    import threading

    from repro.infer import InferenceEngine
    from repro.infer.plan import PlanConfig

    model = build_small_network(4)
    engine = InferenceEngine(model, config=PlanConfig(dtype="int8"), on_stale="refresh")
    registry = ModelRegistry()
    entry = registry.register("net4", engine=engine)
    images = sample_images(4, seed=91)
    registry.start()
    try:
        before = np.stack(
            [registry.submit(img).result(timeout=10) for img in images]
        )
        rows: "list[tuple[int, np.ndarray]]" = []
        errors: "list[Exception]" = []
        stop = threading.Event()

        def pound() -> None:
            i = 0
            while not stop.is_set():
                try:
                    rows.append((i % 4, registry.submit(images[i % 4]).result(timeout=10)))
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=pound) for _ in range(3)]
        for t in threads:
            t.start()
        for p in model.parameters():
            p.data *= 1.02  # real weight change: new scales + packed planes
        assert registry.refresh("net4") > 0
        stop.set()
        for t in threads:
            t.join(15)
        after = np.stack(
            [registry.submit(img).result(timeout=10) for img in images]
        )
    finally:
        registry.stop()
    assert not errors, errors
    assert rows, "the refresh raced zero predicts; nothing was exercised"
    for index, row in rows:
        assert np.array_equal(row, before[index]) or np.array_equal(
            row, after[index]
        ), "int8 response matches neither generation: torn refresh state"
