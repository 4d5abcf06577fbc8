"""Sparsity-aware inference: pruning, live-row GEMMs, refresh.

These tests sparsify real FLightNN layers through threshold surgery
(:func:`~repro.quant.sparsify.sparsify_model`), so every dead filter is a
legitimate ``k_i = 0`` quantizer outcome — then pin the pruned engine's
logits to the eager eval-mode forward at the repo's parity bar across
every Table-1 config and the structural-refresh edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.infer import InferenceEngine, PlanConfig, compile_network, pack_weights
from repro.models.registry import build_network
from repro.quant.schemes import scheme_flightnn
from repro.quant.sparsify import dead_filter_fraction, sparsify_model

from tests.infer.conftest import (
    IMAGE_SIZE,
    NUM_CLASSES,
    WIDTH_SCALE,
    apply_dead_rows,
    build_small_network,
    eager_logits,
    randomize_bn_stats,
    sample_images,
)

PARITY_ATOL = 1e-5

ALL_CONFIGS = list(range(1, 9))


def sparsified_network(network_id: int, dead_fraction: float = 0.4, **kwargs):
    model = build_small_network(network_id, **kwargs)
    sparsify_model(model, dead_fraction)
    return model


class TestSparsifiedParity:
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_parity_all_table1_configs(self, network_id):
        """Pruned engine matches eager on every Table-1 config at 40% dead
        filters."""
        model = sparsified_network(network_id)
        images = sample_images(7, seed=network_id)
        got = InferenceEngine(model).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    @pytest.mark.parametrize("rows", ["auto", "dense", "shift_plane"])
    @pytest.mark.parametrize("network_id", [2, 5])
    def test_parity_forced_kernels(self, network_id, rows):
        """Each dead-row case (``DEAD_ROW_CASES``: no dead filters, dead
        filters kept, dead filters pruned) is exact on a VGG and a ResNet."""
        model = build_small_network(network_id)
        prune = apply_dead_rows(model, rows)
        images = sample_images(6, seed=31)
        engine = InferenceEngine(model, config=PlanConfig(prune=prune))
        got = engine.predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    def test_pruning_actually_removes_filters(self):
        model = sparsified_network(4, dead_fraction=0.5)
        plan = compile_network(model)
        summary = plan.summary()
        assert plan.pruned
        assert summary["pruned_filters_total"] > 0
        assert summary["config"]["prune"] is True
        # Pruned rows really left the GEMMs: every conv/linear op is narrower
        # than (or equal to) its layer's built filter count.
        assert any(entry["pruned_filters"] > 0 for entry in summary["layers"])

    def test_dense_baseline_config_disables_pruning(self):
        model = sparsified_network(4, dead_fraction=0.5)
        plan = compile_network(model, config=PlanConfig(prune=False))
        summary = plan.summary()
        assert not plan.pruned
        assert summary["pruned_filters_total"] == 0
        assert set(summary["kernels"]) == {"dense"}


class TestEdgeCases:
    def test_zero_dead_filters_is_a_no_op(self):
        """A net with no dead filters compiles to the same op count, stays
        unpruned and runs every GEMM over all its rows."""
        model = build_small_network(4)
        assert dead_filter_fraction(model) == 0.0
        plan = compile_network(model)
        dense = compile_network(model, config=PlanConfig(prune=False))
        assert len(plan.ops) == len(dense.ops)
        assert not plan.pruned
        assert set(plan.summary()["kernels"]) == {"dense"}
        assert all(entry["gemm_rows"] == entry["filters"] for entry in plan.layer_info)

    def test_all_filters_dead_keep_policy(self):
        """Fully-dead layers stay as constant layers, record the block
        reason, and preserve exact parity."""
        model = sparsified_network(4, dead_fraction=1.0)
        plan = compile_network(model)
        blocked = [e for e in plan.layer_info if "all filters dead" in e.get("blocked", "")]
        assert blocked
        images = sample_images(5, seed=41)
        got = InferenceEngine(model).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    @pytest.mark.parametrize("rows", ["auto", "dense", "shift_plane"])
    def test_kmax1_binary_scheme(self, rows):
        """k_max=1 FLightNN: every filter is either dead or a single shift
        plane; the engine stays exact in each dead-row case."""
        scheme = scheme_flightnn((1e-5,), k_max=1, label="FL_bin")
        model = build_network(
            4,
            scheme,
            num_classes=NUM_CLASSES,
            image_size=IMAGE_SIZE,
            width_scale=WIDTH_SCALE[4],
            rng=0,
        )
        randomize_bn_stats(model, np.random.default_rng(1))
        model.eval()
        prune = apply_dead_rows(model, rows)
        for layer in model.conv_layers():
            assert int(layer.filter_k().max()) <= 1
        images = sample_images(6, seed=43)
        got = InferenceEngine(model, config=PlanConfig(prune=prune)).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    def test_sparsify_model_validation(self):
        model = build_small_network(4)
        with pytest.raises(ConfigurationError):
            sparsify_model(model, -0.1)
        with pytest.raises(ConfigurationError):
            sparsify_model(model, 1.5)
        full = build_small_network(4, scheme_key="Full")
        with pytest.raises(ConfigurationError, match="FLightNN"):
            sparsify_model(full, 0.5)

    def test_plan_config_validation(self):
        with pytest.raises(ConfigurationError):
            PlanConfig(backend="simd")
        with pytest.raises(ConfigurationError):
            PlanConfig(dtype="fp16")

    def test_removed_knobs_rejected(self):
        """``backend`` is "auto" or "numpy"; there is one kernel per layer,
        so no kernel choice or autotune settings; traced programs always
        fuse; a fully dead layer is always kept as a constant."""
        with pytest.raises(ConfigurationError):
            PlanConfig(backend="native")
        with pytest.raises(TypeError):
            PlanConfig(fuse=False)
        with pytest.raises(TypeError):
            PlanConfig(kernel="auto")
        with pytest.raises(TypeError):
            PlanConfig(autotune_reps=3)
        with pytest.raises(TypeError):
            PlanConfig(autotune_batch=16)
        with pytest.raises(TypeError):
            PlanConfig(all_dead="keep")


class TestShiftPlanes:
    @pytest.mark.parametrize("scheme_key, planes", [("L-1", 1), ("L-2", 2)])
    def test_lightnn_schemes_decompose(self, scheme_key, planes):
        """LightNN-k layers pack into exactly k shift planes for the int8
        program, and the float engine stays exact on them."""
        model = build_small_network(2, scheme_key=scheme_key)
        assert all(pack_weights(lay).k_max == planes for lay in model.conv_layers())
        images = sample_images(6, seed=47)
        got = InferenceEngine(model).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL


class TestStructuralRefresh:
    def test_refresh_rebuilds_on_k_histogram_change(self):
        """The ISSUE's hot-refresh regression: re-sparsifying to a different
        k histogram must rebuild the pruned plan, not re-quantize into the
        old channel layout."""
        model = build_small_network(4)
        sparsify_model(model, 0.3)
        engine = InferenceEngine(model, on_stale="refresh")
        images = sample_images(6, seed=53)
        engine.predict_logits(images)
        old_plan = engine.plan
        old_pruned = engine.plan_summary()["pruned_filters_total"]

        sparsify_model(model, 0.6)  # different k histogram / channel layout
        got = engine.predict_logits(images)
        assert engine.plan is not old_plan  # a new, re-pruned plan
        assert engine.plan_summary()["pruned_filters_total"] > old_pruned
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    def test_value_only_mutation_recompiles(self):
        """A value-only change to an unpruned plan recompiles it too."""
        model = build_small_network(4)
        engine = InferenceEngine(model, on_stale="refresh")
        images = sample_images(5, seed=59)
        before = engine.predict_logits(images)
        plan = engine.plan

        # Doubling shifts every surviving weight's exponent by one: the
        # quantized values change but no filter norm drops below its gate,
        # so the dead-row structure is untouched.
        layer = model.conv_layers()[0]
        layer.weight.data[...] *= 2.0
        layer.weight.bump_version()
        after = engine.predict_logits(images)
        assert engine.plan is not plan  # plans are immutable: a new one
        assert not engine.plan.pruned
        assert not np.array_equal(before, after)
        assert np.max(np.abs(after - eager_logits(model, images))) <= PARITY_ATOL

    def test_raw_threshold_mutation_caught_by_fingerprint(self):
        """Threshold .data edits without a version bump change the quantized
        structure; engine.refresh() must fingerprint and rebuild."""
        model = build_small_network(4)
        sparsify_model(model, 0.3)
        engine = InferenceEngine(model, on_stale="refresh")
        images = sample_images(5, seed=61)
        engine.predict_logits(images)

        # Kill one layer outright, bypassing bump_version().
        model.conv_layers()[1].thresholds.data[...] = 1e9
        assert engine.refresh() > 0
        got = engine.predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL
