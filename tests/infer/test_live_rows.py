"""Live-row GEMMs: a float conv/linear whose folded weight keeps all-zero
rows after pruning computes only its other rows.

Pruning must keep a dead filter whose constant output feeds a residual
add or the plan output.  Such a layer's GEMM skips those rows; they output
zero plus their bias, as the full GEMM would.  Every float tier must give
the same bytes: traced native, traced numpy and the op-by-op interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, compile_network
from repro.infer.plan import AddOp, ConvOp, LinearOp
from repro.quant.sparsify import sparsify_model

from tests.infer.conftest import build_small_network, eager_logits, sample_images

PARITY_ATOL = 1e-5

TIERS = {
    "native": PlanConfig(),
    "numpy": PlanConfig(backend="numpy"),
    "interpreter": PlanConfig(trace=False),
}


def _model(network_id: int, dead_fraction: float, **kwargs):
    model = build_small_network(network_id, seed=network_id)
    if dead_fraction:
        sparsify_model(model, dead_fraction, **kwargs)
    return model


def _assert_tiers_byte_equal(model, batches=(1, 7, 64)) -> None:
    engines = {name: InferenceEngine(model, config=cfg) for name, cfg in TIERS.items()}
    for batch in batches:
        images = sample_images(batch, seed=batch)
        logits = {name: e.predict_logits(images, batch_size=batch) for name, e in engines.items()}
        want = logits.pop("interpreter").tobytes()
        for name, got in logits.items():
            assert got.tobytes() == want, f"{name} diverges at batch {batch}"
    assert engines["native"].plan_summary()["native"].get("check_failures", 0) == 0


@pytest.mark.parametrize("dead_fraction", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("network_id", [2, 7, 4])
def test_tiers_byte_equal(network_id, dead_fraction):
    _assert_tiers_byte_equal(_model(network_id, dead_fraction))


def _add_feeding_convs(plan) -> list:
    adds = [op for op in plan.ops if isinstance(op, AddOp)]
    srcs = {slot for op in adds for slot in (op.src, op.src2)}
    return [op for op in plan.ops if isinstance(op, ConvOp) and op.dst in srcs]


@pytest.mark.parametrize("dead_fraction", [0.3, 0.5])
def test_add_feeding_convs_bind_fewer_gemm_rows(dead_fraction):
    """Net 2's convs that feed a residual add keep their dead rows, and the
    traced program binds each one's GEMM over fewer rows than filters."""
    plan = compile_network(_model(2, dead_fraction))
    convs = _add_feeding_convs(plan)
    assert convs
    program = plan.traced_program((3, 3, 16, 16))
    for op in convs:
        filters = op.weight2d.shape[0]
        assert op.gemm_rows is not None and op.gemm_rows.size < filters
        assert np.array_equal(op.gemm_weight, op.weight2d[op.gemm_rows])
        assert not op.weight2d[np.setdiff1d(np.arange(filters), op.gemm_rows)].any()
        (nplan,) = [p for p in program.node_plans if p.node.op is op]
        parts = [req.tail for req, _ in nplan.scratch if req.name == "part"]
        assert parts and parts[0][0] == op.gemm_rows.size < filters
    rows = {e["op_index"]: e["gemm_rows"] for e in plan.layer_info}
    assert all(rows[op.index] == op.gemm_rows.size for op in convs)


def test_unsparsified_net_has_no_live_row_gemms():
    plan = compile_network(_model(2, 0.0))
    assert all(getattr(op, "gemm_rows", None) is None for op in plan.ops)


def test_dead_classifier_rows_skip_the_linear_gemm():
    """Dead classifier rows feed the plan output, so pruning keeps them; the
    final linear computes only its live rows and the logits stay exact."""
    model = _model(4, 0.5, include_linear=True)
    plan = compile_network(model)
    final = [op for op in plan.ops if isinstance(op, LinearOp)][-1]
    assert final.gemm_rows is not None and final.gemm_rows.size < final.weight_t.shape[1]
    _assert_tiers_byte_equal(model)
    images = sample_images(5, seed=3)
    got = InferenceEngine(model).predict_logits(images)
    assert np.max(np.abs(got - eager_logits(model, images))) <= PARITY_ATOL


def test_all_dead_layers_run_an_empty_gemm():
    """A layer whose filters are all dead stays as a constant producer: its
    GEMM has no rows at all, and every tier still agrees."""
    model = _model(4, 1.0)
    plan = compile_network(model)
    assert any(
        op.gemm_rows is not None and op.gemm_rows.size == 0
        for op in plan.ops
        if isinstance(op, ConvOp)
    )
    _assert_tiers_byte_equal(model, batches=(1, 7))


def test_prune_false_skips_every_dead_row():
    """Without pruning, every dead row stays in the plan and every GEMM
    skips them, with the same logits as the pruned plan."""
    model = _model(4, 0.5)
    plan = compile_network(model, config=PlanConfig(prune=False))
    skipped = [e for e in plan.layer_info if e["gemm_rows"] < e["filters"]]
    assert skipped
    images = sample_images(7, seed=9)
    pruned = InferenceEngine(model).predict_logits(images)
    unpruned = InferenceEngine(model, config=PlanConfig(prune=False)).predict_logits(images)
    assert np.max(np.abs(pruned - unpruned)) <= PARITY_ATOL
