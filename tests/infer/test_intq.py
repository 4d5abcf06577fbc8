"""Integer-only execution mode (``PlanConfig(dtype="int8")``).

The acceptance bar for the subsystem: every Table-1 structure runs
end-to-end in integer arithmetic with >= 99% top-1 agreement against the
float64 engine, bitwise-deterministic repeated runs, integer accumulators
throughout, and measured shift/add/requant op counts flowing through the
plan summary into :func:`repro.hw.intq_measured_ops` and ``/metrics``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CompileError, HardwareModelError
from repro.hw import intq_measured_ops
from repro.infer import InferenceEngine, PlanConfig, build_intq_program, compile_network
from repro.infer.intq import pack_weights
from repro.infer.intq.build import IntConvOp, IntDequantizeOp, IntLinearOp, IntQuantizeOp
from repro.infer.intq.requant import quantize_multiplier, rounding_right_shift
from repro.quant.sparsify import sparsify_model
from repro.testing import run_intq_parity

from tests.infer.conftest import build_small_network, sample_images

INT8 = PlanConfig(dtype="int8")
ALL_CONFIGS = tuple(range(1, 9))


class TestParity:
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_all_table1_structures(self, network_id):
        """Argmax agreement >= 99%, bitwise-deterministic, integer accums."""
        record = run_intq_parity((network_id,), batch=8)[0]
        assert record["argmax_agreement"] >= 0.99
        assert record["deterministic"]
        assert record["max_abs_delta"] < 0.5
        assert set(record["accum_dtypes"]) <= {"int32", "int64"}
        assert record["shift_ops"] > 0

    def test_repeated_engine_builds_identical(self):
        """Two independently compiled int8 engines agree bitwise (the
        calibration pass must be deterministic)."""
        images = sample_images(4, seed=3)
        a = InferenceEngine(build_small_network(5), config=INT8).predict_logits(images)
        b = InferenceEngine(build_small_network(5), config=INT8).predict_logits(images)
        np.testing.assert_array_equal(a, b)


class TestIntegerExecution:
    def test_int8_plan_skips_float_kernel_choice(self):
        """An int8 plan of a sparsified ResNet leaves its float ops' GEMMs
        over every row: its integer program runs one integer GEMM per
        layer and never the float kernels."""
        model = build_small_network(7)
        sparsify_model(model, 0.5)
        engine = InferenceEngine(model, config=INT8)
        assert all(getattr(op, "gemm_rows", None) is None for op in engine.plan.ops)
        assert {l["impl"] for l in engine.plan_summary()["intq"]["layers"]} == {"intq_gemm"}
        # The float plan of the same model skips dead rows: the test is live.
        assert any(op.gemm_rows is not None for op in compile_network(model).ops
                   if hasattr(op, "gemm_rows"))

    def test_weights_and_accumulators_are_integer(self):
        """No float arrays in any conv/linear inner loop: packed weights,
        shift planes and requant constants are all integer-typed."""
        engine = InferenceEngine(build_small_network(4), config=INT8)
        matmul_ops = [
            op
            for op in engine.plan.intq.ops
            if isinstance(op, (IntConvOp, IntLinearOp))
        ]
        assert matmul_ops
        for op in matmul_ops:
            assert np.issubdtype(np.dtype(op.acc_dtype), np.integer)
            for name, const in op.consts.items():
                assert np.issubdtype(const.dtype, np.integer), (
                    f"{type(op).__name__} const {name} is {const.dtype}"
                )

    def test_shift_groups_reassemble_gemm_weights(self):
        """The packed shift-accumulate schedule the shift counts describe
        computes the GEMM's weights: ``sum_d S_d << d == w_int``."""
        plan = compile_network(build_small_network(4))
        for b in plan.bindings:
            op = plan.ops[b.op_index]
            packed = pack_weights(b.layer, op.live_rows, op.in_live_cols)
            assert packed.groups
            total = sum(np.left_shift(s_d.astype(np.int64), d) for d, s_d in packed.groups)
            np.testing.assert_array_equal(total, packed.w_int)

    def test_program_brackets_float_boundary(self):
        """The program quantizes at the input and dequantizes exactly once,
        at the output — everything between is integer."""
        engine = InferenceEngine(build_small_network(1), config=INT8)
        ops = engine.plan.intq.ops
        assert isinstance(ops[0], IntQuantizeOp)
        assert isinstance(ops[-1], IntDequantizeOp)
        assert not any(isinstance(op, IntDequantizeOp) for op in ops[:-1])

    def test_full_precision_scheme_rejected(self):
        """Float weights are not sums of powers of two; lowering must fail
        loudly instead of silently falling back to float math."""
        model = build_small_network(4, scheme_key="Full")
        with pytest.raises(CompileError):
            InferenceEngine(model, config=INT8)

    def test_build_requires_calibration_input(self):
        model = build_small_network(4)
        plan = compile_network(model)
        with pytest.raises(CompileError):
            build_intq_program(plan)

    def test_input_shape_validated(self):
        engine = InferenceEngine(build_small_network(4), config=INT8)
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            engine.predict_logits(np.zeros((2, 3, 8, 8)))


class TestRequantPrimitives:
    def test_rounding_right_shift_half_up(self):
        x = np.array([5, -5, 6, -6, 7], dtype=np.int64)
        np.testing.assert_array_equal(
            rounding_right_shift(x, 2), np.array([1, -1, 2, -1, 2])
        )

    def test_quantize_multiplier_reconstructs(self):
        for m in (0.5, 1.0, 1.7e-3, 123.456, 2.0**-20):
            m0, shift = quantize_multiplier(m, bits=24)
            assert abs(m0 / 2.0**shift - m) <= abs(m) * 2.0**-22

    def test_quantize_multiplier_rejects_nonfinite(self):
        with pytest.raises(CompileError):
            quantize_multiplier(float("nan"))


class TestSummaryAndMetrics:
    def test_summary_reports_compute_dtype(self):
        model = build_small_network(4)
        float_summary = InferenceEngine(model).plan_summary()
        assert float_summary["compute_dtype"] == "float64"
        assert float_summary["intq"] == {"enabled": False}

        int_summary = InferenceEngine(model, config=INT8).plan_summary()
        assert int_summary["compute_dtype"] == "int8"
        assert int_summary["config"]["dtype"] == "int8"
        block = int_summary["intq"]
        assert block["enabled"] is True
        totals = block["totals_per_image"]
        for key in ("shift_ops", "add_ops", "int_mult_ops", "requant_mult_ops"):
            assert totals[key] >= 0
        assert totals["add_ops"] > 0
        for layer in block["layers"]:
            assert layer["accum_dtype"] in ("int32", "int64")
            assert 8 <= layer["requant_bits"] <= 24
            assert layer["zero_point"] == 0
            assert layer["scale_out"] > 0

    def test_hw_measured_ops(self):
        engine = InferenceEngine(build_small_network(4), config=INT8)
        measured = intq_measured_ops(engine.plan_summary())
        assert measured["totals_per_image"]["shift_ops"] > 0
        assert measured["mean_planes"] > 0
        assert len(measured["layers"]) == len(
            engine.plan_summary()["intq"]["layers"]
        )

    def test_hw_measured_ops_rejects_float_summary(self):
        engine = InferenceEngine(build_small_network(4))
        with pytest.raises(HardwareModelError):
            intq_measured_ops(engine.plan_summary())

    def test_metrics_snapshot_carries_intq_block(self):
        """/metrics exposes the integer program's op counts."""
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        registry.register(
            "net4-int8",
            engine=InferenceEngine(build_small_network(4), config=INT8),
        )
        plan = registry.metrics_snapshot()["net4-int8"]["plan"]
        assert plan["compute_dtype"] == "int8"
        assert plan["intq"]["enabled"] is True
        assert plan["intq"]["totals_per_image"]["shift_ops"] > 0


class TestRefresh:
    def test_weight_mutation_rebuilds_packed_state(self):
        """Hot weight refresh must invalidate packed weights and requant
        constants — serving stale integer state would be silent corruption."""
        model = build_small_network(4)
        engine = InferenceEngine(model, config=INT8)
        images = sample_images(6, seed=21)
        before = engine.predict_logits(images)

        rng = np.random.default_rng(99)
        for layer in model.modules():
            if hasattr(layer, "weight") and getattr(layer, "weight", None) is not None:
                layer.weight.data[...] += rng.normal(0.0, 0.05, layer.weight.data.shape)
        assert engine.refresh() > 0

        after = engine.predict_logits(images)
        assert not np.array_equal(after, before)  # new weights took effect
        ref = InferenceEngine(model).predict_logits(images)
        agreement = (after.argmax(axis=1) == ref.argmax(axis=1)).mean()
        assert agreement >= 0.99
        np.testing.assert_array_equal(after, engine.predict_logits(images))


class TestSharding:
    def test_sharded_matches_serial(self):
        """Thread sharding runs the integer program in every worker — byte-
        for-byte identical to the serial integer path."""
        model = build_small_network(4)
        engine = InferenceEngine(model, config=INT8)
        images = sample_images(14, seed=31)
        serial = engine.predict_logits(images, batch_size=5, workers=1)
        sharded = engine.predict_logits(images, batch_size=5, workers=3)
        assert sharded.dtype == serial.dtype and sharded.tobytes() == serial.tobytes()
