"""Sparsity-aware inference: pruning, shift-plane kernels, autotuning, refresh.

These tests sparsify real FLightNN layers through threshold surgery
(:func:`~repro.quant.sparsify.sparsify_model`), so every dead filter is a
legitimate ``k_i = 0`` quantizer outcome — then pin the pruned /
shift-plane engine's logits to the eager eval-mode forward at the repo's
parity bar across every Table-1 config, every forced kernel and the
structural-refresh edge cases from the ISSUE.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.infer import InferenceEngine, PlanConfig, compile_network, supports_shift_planes
from repro.infer.native import binding
from repro.infer.plan import ConvOp, LinearOp
from repro.models.registry import build_network
from repro.quant.schemes import scheme_flightnn
from repro.quant.sparsify import dead_filter_fraction, sparsify_model

from tests.infer.conftest import (
    IMAGE_SIZE,
    NUM_CLASSES,
    WIDTH_SCALE,
    build_small_network,
    eager_logits,
    randomize_bn_stats,
    sample_images,
)

PARITY_ATOL = 1e-5

ALL_CONFIGS = list(range(1, 9))
KERNELS = ("auto", "dense", "shift_plane")


def sparsified_network(network_id: int, dead_fraction: float = 0.4, **kwargs):
    model = build_small_network(network_id, **kwargs)
    sparsify_model(model, dead_fraction)
    return model


class TestSparsifiedParity:
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_parity_all_table1_configs(self, network_id):
        """Pruned + autotuned engine matches eager on every Table-1 config
        at 40% dead filters."""
        model = sparsified_network(network_id)
        images = sample_images(7, seed=network_id)
        got = InferenceEngine(model).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("network_id", [2, 5])
    def test_parity_forced_kernels(self, network_id, kernel):
        """Each kernel implementation is exact on a VGG and a ResNet."""
        model = sparsified_network(network_id)
        images = sample_images(6, seed=31)
        engine = InferenceEngine(model, config=PlanConfig(kernel=kernel))
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
        plan = compile_network(model, config=PlanConfig(prune=False, kernel="dense"))
        summary = plan.summary()
        assert not plan.pruned
        assert summary["pruned_filters_total"] == 0
        assert set(summary["kernels"]) == {"dense"}


class TestEdgeCases:
    def test_zero_dead_filters_is_a_no_op(self):
        """A net with no dead filters compiles to the same op count, stays
        unpruned and keeps every kernel dense under the auto policy."""
        model = build_small_network(4)
        assert dead_filter_fraction(model) == 0.0
        plan = compile_network(model)
        dense = compile_network(model, config=PlanConfig(prune=False, kernel="dense"))
        assert len(plan.ops) == len(dense.ops)
        assert not plan.pruned
        assert set(plan.summary()["kernels"]) == {"dense"}

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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kmax1_binary_scheme(self, kernel):
        """k_max=1 FLightNN: every filter is either dead or a single shift
        plane; all kernels stay exact."""
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
        sparsify_model(model, 0.4)
        for layer in model.conv_layers():
            assert int(layer.filter_k().max()) <= 1
        images = sample_images(6, seed=43)
        engine = InferenceEngine(model, config=PlanConfig(kernel=kernel))
        got = engine.predict_logits(images)
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
            PlanConfig(kernel="simd")
        with pytest.raises(ConfigurationError):
            PlanConfig(dtype="fp16")

    def test_removed_knobs_rejected(self):
        """``backend`` is "auto" or "numpy"; the autotune batch and reps
        are fixed, not config fields; traced programs always fuse; a fully
        dead layer is always kept as a constant."""
        with pytest.raises(ConfigurationError):
            PlanConfig(backend="native")
        with pytest.raises(TypeError):
            PlanConfig(fuse=False)
        with pytest.raises(TypeError):
            PlanConfig(autotune_reps=3)
        with pytest.raises(TypeError):
            PlanConfig(autotune_batch=16)
        with pytest.raises(TypeError):
            PlanConfig(all_dead="keep")


class TestShiftPlanes:
    @pytest.mark.parametrize("scheme_key, planes", [("L-1", 1), ("L-2", 2)])
    def test_lightnn_schemes_decompose(self, scheme_key, planes):
        """LightNN-k layers decompose into exactly k shift planes and the
        forced shift-plane kernel stays exact."""
        model = build_small_network(2, scheme_key=scheme_key)
        assert all(supports_shift_planes(lay) for lay in model.conv_layers())
        plan = compile_network(model, config=PlanConfig(kernel="shift_plane"))
        shifted = [op for op in plan.ops if getattr(op, "impl", "dense") == "shift_plane"]
        assert shifted
        assert all(op.shift.k_max == planes for op in shifted)
        images = sample_images(6, seed=47)
        got = InferenceEngine(model, config=PlanConfig(kernel="shift_plane")).predict_logits(
            images
        )
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL

    def test_forced_shift_plane_covers_conv_and_linear(self):
        model = sparsified_network(4)
        plan = compile_network(model, config=PlanConfig(kernel="shift_plane"))
        impls = {type(op).__name__: op.impl for op in plan.ops if isinstance(op, (ConvOp, LinearOp))}
        assert impls.get("ConvOp") == "shift_plane"
        assert impls.get("LinearOp") == "shift_plane"

    def test_autotune_reports_timings_for_candidates(self):
        """ResNet conv2s (blocked by the residual add) keep dead rows, so the
        auto policy times dense vs shift-plane and records the choice."""
        model = sparsified_network(7, dead_fraction=0.5)
        plan = compile_network(model)  # kernel="auto"
        tuned = [e for e in plan.layer_info if "autotune" in e]
        assert tuned
        for entry in tuned:
            report = entry["autotune"]
            assert report["chosen"] in ("dense", "shift_plane")
            assert report["dense_s"] > 0.0 and report["shift_plane_s"] > 0.0
            assert entry["kernel"] == report["chosen"]

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_autotune_times_the_backend_that_binds(self, backend):
        """Both variants are timed on the one backend the plan binds: each
        report names it, the traced program binds that layer on it, and
        it is native whenever a toolchain exists under "auto"."""
        model = sparsified_network(7, dead_fraction=0.5)
        engine = InferenceEngine(model, config=PlanConfig(backend=backend))
        engine.predict_logits(sample_images(4, seed=71))
        (prog,) = engine.plan._traced.values()
        bound = {
            nplan.node.op.index: prog.node_backends[nplan.node.index]["backend"]
            for nplan in prog.node_plans
            if nplan.node.kind in ("conv", "linear")
        }
        tuned = [e for e in engine.plan.layer_info if "autotune" in e]
        assert tuned
        for entry in tuned:
            report = entry["autotune"]
            assert set(report) == {"chosen", "dense_s", "shift_plane_s", "backend", "cached"}
            assert report["backend"] == bound[entry["op_index"]]
        want = "native" if backend == "auto" and binding.available() else "numpy"
        assert {e["autotune"]["backend"] for e in tuned} == {want}


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
