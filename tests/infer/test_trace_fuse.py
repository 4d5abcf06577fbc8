"""Traced plan compiler: fused codegen kernels vs the op-by-op interpreter.

The traced executor (:mod:`repro.infer.trace` / :mod:`repro.infer.fuse` /
:mod:`repro.infer.kernels`) promises **bitwise** float64 equality with the
interpreter — the generated kernels replay the exact same ufunc sequence on
the exact same operand layouts, fusion only removes buffer traffic, and
batch blocking splits along an axis every blocked op treats per-sample.
These tests pin that contract across every Table-1 config, full-row and
live-row GEMMs and both pruning states, force multi-block execution
(including a ragged tail block), and cover the cache / hot-refresh /
profiler machinery around the compiler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, compile_network
from repro.infer import fuse, kernels
from repro.infer.plan import ExecutionContext
from repro.quant.sparsify import sparsify_model

from tests.infer.conftest import build_small_network, eager_logits, sample_images

PARITY_ATOL = 1e-5

ALL_CONFIGS = list(range(1, 9))

# The interpreter reference: same plan passes (pruning, live rows), no tracing.
def _interp(trace_cfg: PlanConfig) -> PlanConfig:
    return PlanConfig(prune=trace_cfg.prune, trace=False)


def _logits(model, config: PlanConfig, images: np.ndarray) -> np.ndarray:
    engine = InferenceEngine(model, config=config)
    return engine.forward_batch(images, check_stale=False).copy()


def force_multiblock(monkeypatch, target_bytes: int = 64 << 10, block_min: int = 2) -> None:
    """Shrink the blocking thresholds so even the width-scaled test nets
    split a small batch into several blocks plus a ragged tail."""
    monkeypatch.setattr(fuse, "_BLOCK_TARGET_BYTES", target_bytes)
    monkeypatch.setattr(fuse, "_BLOCK_MIN", block_min)


class TestBitwiseParity:
    """Traced logits must equal interpreter logits bit for bit."""

    @pytest.mark.parametrize("rows", ["dense", "shift_plane"])
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_all_configs_both_kernels_both_sparsities(self, network_id, rows, monkeypatch):
        """Without dead filters (``"dense"``: full-row GEMMs) and with 40%
        (``"shift_plane"``: live-row GEMMs), pruned and unpruned."""
        # Batch 13 with tiny block thresholds → multi-block execution with a
        # tail block, the layout the fused kernels must keep exact.
        force_multiblock(monkeypatch)
        images = sample_images(13, seed=network_id)
        for pruned in (False, True):
            model = build_small_network(network_id, seed=network_id)
            if rows == "shift_plane":
                sparsify_model(model, 0.4)
            cfg = PlanConfig(prune=pruned)
            want = _logits(model, _interp(cfg), images)
            got = _logits(model, cfg, images)
            assert np.array_equal(got, want), (
                f"net{network_id} rows={rows} pruned={pruned}: traced logits "
                f"diverge from interpreter (max diff {np.max(np.abs(got - want)):.3e})"
            )

    def test_batch_one_single_block(self):
        model = build_small_network(1)
        images = sample_images(1)
        cfg = PlanConfig()
        assert np.array_equal(_logits(model, cfg, images), _logits(model, _interp(cfg), images))

    def test_unfused_program_still_bitwise(self, monkeypatch):
        """With the epilogue-fusion pass switched off the traced program
        runs every elementwise op standalone — still exact."""
        monkeypatch.setattr(fuse, "_fuse_epilogues", lambda ir: 0)
        model = build_small_network(5)
        images = sample_images(6, seed=3)
        cfg = PlanConfig()
        got = _logits(model, cfg, images)
        assert np.array_equal(got, _logits(model, _interp(cfg), images))
        prog = compile_network(model, config=cfg).traced_program(images.shape)
        assert prog is not None and prog.stats["fused_elementwise"] == 0

    @pytest.mark.parametrize("network_id", [1, 2, 4])
    def test_int8_multiblock_matches_single_block(self, network_id, monkeypatch):
        """An int8 program split into batch blocks with a ragged tail
        returns the single-block bytes."""
        model = build_small_network(network_id)
        images = sample_images(7, seed=network_id)
        cfg = PlanConfig(dtype="int8")
        want = _logits(model, cfg, images)
        force_multiblock(monkeypatch, target_bytes=16 << 10)
        engine = InferenceEngine(model, config=cfg)
        got = engine.forward_batch(images, check_stale=False)
        (stats,) = engine.plan_summary()["trace"]["programs"]
        assert stats["blocks"] > 1 and 7 % stats["block_size"], stats
        assert got.tobytes() == want.tobytes()

    def test_trace_disabled_uses_interpreter(self):
        model = build_small_network(4)
        plan = compile_network(model, config=PlanConfig(trace=False))
        plan.execute(sample_images(2), ExecutionContext())
        assert not plan._traced
        assert plan.summary()["trace"]["enabled"] is False

    def test_traced_matches_eager_reference(self):
        """End-to-end sanity: the traced engine also sits inside the repo's
        eager-parity bar (the interpreter equality above is the strict one)."""
        model = build_small_network(6)
        images = sample_images(5, seed=7)
        got = InferenceEngine(model).predict_logits(images)
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL


class TestProgramStructure:
    def test_fusion_and_buffer_stats(self):
        model = build_small_network(1)
        plan = compile_network(model)
        prog = plan.traced_program((8, 3, 16, 16))
        assert prog is not None
        stats = prog.stats
        # Conv→(BN-folded affine)→LeakyReLU→ActQuant chains must have fused.
        assert stats["fused_elementwise"] > 0
        # Liveness-based register reuse must beat one-buffer-per-value.
        assert 0 < stats["peak_intermediate_bytes"] < stats["naive_intermediate_bytes"]
        assert stats["nodes"] > 0 and stats["blocks"] >= 1

    def test_blocking_cuts_at_linear(self, monkeypatch):
        """The classifier head forces full-batch execution; everything before
        it runs blocked."""
        force_multiblock(monkeypatch)
        model = build_small_network(1)
        prog = compile_network(model).traced_program((13, 3, 16, 16))
        stats = prog.stats
        assert stats["blocks"] > 1
        assert 0 < stats["blocked_nodes"] < stats["nodes"]
        assert stats["block_size"] < 13

    def test_plan_summary_trace_block(self):
        model = build_small_network(4)
        engine = InferenceEngine(model)
        engine.forward_batch(sample_images(4), check_stale=False)
        trace = engine.plan_summary()["trace"]
        assert trace["enabled"] is True and "fuse" not in trace
        assert len(trace["programs"]) == 1
        assert trace["fused_elementwise_total"] > 0
        assert trace["peak_intermediate_bytes"] > 0
        assert set(trace["cache"]) == {"kernels"}

    def test_int8_program_in_trace_summary(self):
        """An int8 plan runs as a traced program: it shows in the trace
        summary with its backends, and liveness reuse beats one buffer per
        value."""
        engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
        engine.forward_batch(sample_images(4), check_stale=False)
        (program,) = engine.plan_summary()["trace"]["programs"]
        assert sum(program["backends"].values()) == program["nodes"] > 0
        assert program["fused_elementwise"] > 0
        assert 0 < program["peak_intermediate_bytes"] < program["naive_intermediate_bytes"]

    def test_bound_state_cache_is_bounded(self):
        """One context compiling many input shapes keeps at most a few bound
        states (the per-shape programs live on the plan, states on the ctx)."""
        model = build_small_network(4)
        engine = InferenceEngine(model)
        for n in range(1, 8):
            engine.forward_batch(sample_images(n), check_stale=False)
        assert len(engine._ctx._traced) <= fuse._MAX_BOUND_STATES

    @pytest.mark.parametrize("dtype", ["float", "int8"])
    def test_registers_and_input_are_cache_line_aligned(self, dtype):
        """Every buffer a bound program owns starts on a 64-byte boundary,
        so batch-1 time does not depend on where the allocator put it; the
        logits stay the same bytes."""
        model = build_small_network(4)
        engine = InferenceEngine(model, config=PlanConfig(dtype=dtype))
        images = sample_images(1)
        got = engine.forward_batch(images, check_stale=False).tobytes()
        (state,) = engine._ctx._traced.values()
        buffers = [state.input] + [r for regs in state.regs.values() for r in regs]
        assert [b.ctypes.data % 64 for b in buffers] == [0] * len(buffers)
        assert got == engine.predict_logits(images).tobytes()


class TestKernelCache:
    def test_shape_identical_plans_hit_the_cache(self):
        kernels.clear_caches()
        images = sample_images(4, seed=11)
        model_a = build_small_network(4, seed=0)
        InferenceEngine(model_a, config=PlanConfig(prune=False)).forward_batch(
            images, check_stale=False
        )
        first = kernels.cache_stats()["kernels"]
        assert first["misses"] > 0 and first["specs"] > 0
        # Same architecture, different weights → same kernel specs → hits.
        model_b = build_small_network(4, seed=1)
        InferenceEngine(model_b, config=PlanConfig(prune=False)).forward_batch(
            images, check_stale=False
        )
        second = kernels.cache_stats()["kernels"]
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]


class TestHotRefresh:
    def test_weight_update_recompiles_traced_program(self):
        """A weight update recompiles the plan, so its traced programs (they
        bind quantized arrays by reference) are new and serve the new
        logits."""
        model = build_small_network(4)
        engine = InferenceEngine(model, on_stale="refresh")
        images = sample_images(5, seed=13)
        before = engine.predict_logits(images)
        plan = engine.plan
        prog_before = plan.traced_program(images.shape)
        assert prog_before is not None

        layer = model.conv_layers()[0]
        layer.weight.data[...] *= 2.0
        layer.weight.bump_version()
        after = engine.predict_logits(images)
        assert engine.plan is not plan  # value-only change: still a new plan
        prog_after = engine.plan.traced_program(images.shape)
        assert prog_after is not None and prog_after.uid != prog_before.uid
        assert not np.array_equal(before, after)
        assert np.max(np.abs(after - eager_logits(model, images))) <= PARITY_ATOL
        # And the recompiled program still equals the interpreter bitwise.
        cfg = engine.config
        assert np.array_equal(after, _logits(model, _interp(cfg), images))

    def test_structural_rebuild_replaces_programs(self):
        model = build_small_network(4)
        sparsify_model(model, 0.3)
        engine = InferenceEngine(model, on_stale="refresh")
        images = sample_images(5, seed=17)
        engine.predict_logits(images)
        old_plan = engine.plan

        sparsify_model(model, 0.6)  # dead-filter structure drifts
        got = engine.predict_logits(images)
        assert engine.plan is not old_plan
        assert engine.plan.traced_program(images.shape) is not None
        assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL


class TestProfiler:
    def test_per_ir_op_phase_names(self):
        engine = InferenceEngine(build_small_network(1), profile=True)
        engine.forward_batch(sample_images(3), check_stale=False)
        timings = engine.plan_summary()["timings"]
        phases = list(timings["totals"])
        assert phases and all(p.startswith("ir") for p in phases)
        assert any("conv[dense]" in p and "+lrelu+aq" in p for p in phases)
        assert all(count >= 1 for count in timings["counts"].values())

    def test_int8_phase_names(self):
        engine = InferenceEngine(
            build_small_network(4), config=PlanConfig(dtype="int8"), profile=True
        )
        engine.forward_batch(sample_images(3), check_stale=False)
        phases = list(engine.plan_summary()["timings"]["totals"])
        assert phases and all(p.startswith("ir") for p in phases)
        for kind in (":conv[intq_gemm]+lrelu+rshift", ":linear", ":maxpool", ":gap"):
            assert any(kind in p for p in phases), (kind, phases)

    def test_interpreter_phase_names(self):
        engine = InferenceEngine(
            build_small_network(1), config=PlanConfig(trace=False), profile=True
        )
        engine.forward_batch(sample_images(3), check_stale=False)
        phases = list(engine.plan_summary()["timings"]["totals"])
        assert phases and all(p.startswith("op") for p in phases)
        assert any("ConvOp" in p for p in phases)
