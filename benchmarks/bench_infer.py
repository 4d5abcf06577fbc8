"""Benchmark: eager vs compiled-engine inference throughput (BENCH_infer.json).

Measures `Trainer.evaluate(use_engine=False)` (the eager autograd-free
fallback) against the compiled :class:`~repro.infer.InferenceEngine` on
synthetic CIFAR-shaped data for the small Table-1 configurations, plus:

* thread batch-sharding rows (``evaluate(workers=N)``) — note that the
  recorded ``effective_cpus`` bounds how much sharding *can* help on the host;
* the float32 deployment mode (:func:`~repro.infer.plan.plan_dtype`) as a
  supplementary row — it is not used for the parity criterion;
* engine/eager logit parity for **all eight** Table-1 configs at the
  engine's default float64 precision;
* a sparsity sweep: synthetically sparsified nets
  (:func:`~repro.quant.sparsify.sparsify_model`) at several dead-filter
  fractions, timing the sparsity-aware engine (dead-filter pruning +
  live-row GEMMs) against the unpruned engine (``PlanConfig(prune=False)``)
  so the speedup-vs-sparsity curve is tracked across PRs.  Every engine row
  also records its plan's GEMM rows, k_i histogram and pruned-filter counts;
* a fusion sweep: the traced-program executor (fused codegen kernels,
  liveness-based buffer reuse, batch blocking — ``PlanConfig(trace=True)``)
  against the same dense plan run op-by-op, at batch 1 and batch 64, with a
  bitwise-equality check and each compiled program's fused-op count and
  naive-vs-peak intermediate-buffer bytes.  ``--fusion-sweep`` runs just
  this section and merges the rows into an existing BENCH_infer.json;
* an integer-only sweep (``--int-sweep``): the int8 execution mode
  (``PlanConfig(dtype="int8")`` — bit-packed shift weights, fixed-point
  activations, multiplier+shift requantization, :mod:`repro.infer.intq`)
  against the float64 engine, with logit parity, argmax agreement, bitwise
  determinism across repeated runs, and the measured per-image integer op
  counts.  The int8 mode models the hardware datapath; numpy's integer
  matmuls bypass BLAS, so its host throughput is reported for tracking,
  not as a speedup claim;
* a pruning sweep (``--variant-sweep``): on synthetically sparsified nets,
  the default plan against ``PlanConfig(prune=False)`` end to end at batch
  1 and 64, with interleaved medians, per-rep win counts and the layers
  whose GEMM skips dead rows, plus a cold-cache compile row for ResNet
  net 2 (``plan.compile_s`` and the first forward, on an empty native
  compile cache).

A default run merges its sections into an existing ``--out`` file, so the
sweep sections recorded by the flags below survive a re-run.

Timing methodology: the machine's run-to-run variance swamps single-shot
timings, so each (config, variant) pair is timed ``reps`` times with the
variants *interleaved* inside each rep, and the median per variant is
reported.  Run directly::

    PYTHONPATH=src python benchmarks/bench_infer.py

or invoke the pytest smoke variant (marker ``infer_bench``)::

    PYTHONPATH=src python -m pytest tests/infer/test_bench_smoke.py -m infer_bench
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from pathlib import Path

# One BLAS thread: OpenBLAS's own pool contends with the engine's sharding
# and batcher threads (see README "Threads and BLAS").  Set before numpy
# loads OpenBLAS; an explicit environment value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro.data.dataset import ArrayDataset
from repro.infer import InferenceEngine, PlanConfig, plan_dtype
from repro.infer.intq.build import IntConvOp, IntLinearOp
from repro.utils.cpu import effective_cpus
from repro.models.registry import build_network
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.tensor import Tensor, no_grad
from repro.quant.schemes import paper_schemes
from repro.quant.sparsify import dead_filter_fraction, sparsify_model
from repro.train.trainer import Trainer

# The Table-1 "small" configurations (sub-megabyte nets 1, 4, 5) drive the
# headline eager-vs-engine timing; all eight drive the parity table.
TIMED_CONFIGS = (1, 4, 5)
ALL_CONFIGS = tuple(range(1, 9))
SCHEME = "FL_a"
IMAGE_SIZE = 32
NUM_CLASSES = 10
# Parity-table width scale for the big configs (3, 7, 8), which would
# otherwise dominate the benchmark's runtime without adding structure.
PARITY_WIDTH_SCALE = {3: 0.25, 7: 0.25, 8: 0.5}
# Sparsity sweep: nets and synthetic dead-filter fractions for the
# sparsity-aware-vs-dense speedup curve.  The PR acceptance bar is >= 1.3x
# at >= 30% dead filters.
SPARSITY_CONFIGS = (1, 4)
SPARSITY_FRACTIONS = (0.3, 0.5, 0.7)
# No dead-filter elimination: every layer keeps its dead rows.
DENSE_BASELINE = PlanConfig(prune=False)
# Fusion sweep: traced-program executor (fused codegen kernels, liveness
# buffer reuse, batch blocking) against the same plan run op-by-op.  The PR
# acceptance bar is >= 1.3x at batch 1 and >= 1.15x at batch 64 on at least
# two nets; the traced path must be *bitwise* equal to the interpreter.
FUSION_CONFIGS = (1, 2, 4, 5)
FUSION_BATCHES = (1, 64)
# PR 5 dense path: same kernels/pruning state, no tracing.
UNTRACED_BASELINE = PlanConfig(prune=False, trace=False)
TRACED_FUSED = PlanConfig(prune=False)  # trace/fuse default on
# Integer-only sweep: int8 execution mode vs the float64 engine.  Parity is
# checked on every Table-1 structure; only the small nets are timed.
INT_CONFIGS = (1, 4, 5)
INT_PARITY_BATCH = 16
# Native C backend sweep: the numpy codegen vs the native kernels on the
# same plan, float64 and int8, batch 1 and 64.  The PR acceptance bar is
# >= 2x at batch 1 on the small nets with bitwise-equal outputs in both
# dtypes; on a toolchain-free host the sweep records the fallback instead.
NATIVE_CONFIGS = (1, 4, 5)
NATIVE_BATCHES = (1, 64)
# Nets the native sweep also times sparsified: net -> dead-filter fraction.
# ResNet net 2 keeps dead rows behind its residual adds (live-row GEMMs);
# it is timed on the native engines only (its numpy int8 GEMMs bypass BLAS
# and would dominate the sweep's runtime).
NATIVE_SPARSE = {2: 0.3}
# Images per net for the float32/int8 argmax agreement against float64.
NATIVE_AGREEMENT_IMAGES = 1024
# Pruning sweep: the default plan vs PlanConfig(prune=False) on sparsified
# nets.  Only the ResNet (net 2) keeps dead rows past pruning (those feeding
# a residual add); its GEMMs skip them.
VARIANT_CONFIGS = (1, 2, 4, 5)
VARIANT_FRACTIONS = (0.3, 0.5)
VARIANT_BATCHES = (1, 64)
VARIANT_PLANS = {"default": PlanConfig(), "unpruned": PlanConfig(prune=False)}


def _build(network_id: int, scheme_key: str = SCHEME, width_scale: float = 1.0, seed: int = 0):
    model = build_network(
        network_id,
        paper_schemes()[scheme_key],
        num_classes=NUM_CLASSES,
        image_size=IMAGE_SIZE,
        width_scale=width_scale,
        rng=seed,
    )
    # Non-trivial BN state so folding is exercised, as after real training.
    rng = np.random.default_rng(seed + 1)
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            c = m.num_features
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0.0, 0.2, c)
            m.running_mean[...] = rng.normal(0.0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
    model.eval()
    return model


def _dataset(n: int, seed: int = 0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    images = rng.normal(0.0, 1.0, (n, 3, IMAGE_SIZE, IMAGE_SIZE))
    return ArrayDataset(images, rng.integers(0, NUM_CLASSES, n), NUM_CLASSES)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _plan_fields(engine: InferenceEngine) -> dict:
    """Compact plan metadata for a bench row: GEMM rows, k_hist, pruning."""
    summary = engine.plan_summary()
    return {
        "pruned_filters": summary["pruned_filters_total"],
        "filters_total": summary["filters_total"],
        "dead_filters_remaining": summary["dead_filters_remaining"],
        "kernels": summary["kernels"],
        "k_hist": summary["k_hist"],
        "layers": [
            {
                "op_index": entry["op_index"],
                "type": entry["type"],
                "gemm_rows": entry["gemm_rows"],
                "pruned_filters": entry["pruned_filters"],
                "dead_remaining": entry["dead_remaining"],
                "k_hist": entry.get("k_hist"),
            }
            for entry in summary["layers"]
        ],
    }


def _time_config(network_id: int, dataset: ArrayDataset, reps: int, workers: tuple[int, ...]):
    model = _build(network_id)
    trainer = Trainer(model)
    engine = InferenceEngine(model)
    engine32 = InferenceEngine(model, dtype=plan_dtype(model))

    variants: dict[str, callable] = {
        "eager": lambda: trainer.evaluate(dataset, use_engine=False),
        "engine": lambda: engine.evaluate(dataset),
        "engine_f32": lambda: engine32.evaluate(dataset),
    }
    for w in workers:
        variants[f"engine_thread{w}"] = lambda w=w: engine.evaluate(dataset, workers=w)

    for fn in variants.values():  # warm caches/buffers outside timing
        fn()
    times: dict[str, list[float]] = {k: [] for k in variants}
    for _ in range(reps):  # interleave variants inside each rep
        for key, fn in variants.items():
            times[key].append(_timed(fn))

    n = len(dataset)
    med = {k: statistics.median(v) for k, v in times.items()}
    row = {
        "network_id": network_id,
        "scheme": SCHEME,
        "structure": model.config.structure,
        "depth": model.config.depth,
        "width": model.config.width,
        "images": n,
        "eager_s": med["eager"],
        "engine_s": med["engine"],
        "speedup": med["eager"] / med["engine"],
        "eager_images_per_s": n / med["eager"],
        "engine_images_per_s": n / med["engine"],
        "sharding": {
            k: {"time_s": med[k], "speedup_vs_eager": med["eager"] / med[k]}
            for k in med
            if k.startswith("engine_thread")
        },
        "float32_deployment": {
            "time_s": med["engine_f32"],
            "speedup_vs_eager": med["eager"] / med["engine_f32"],
        },
        "plan": _plan_fields(engine),
    }
    return row


def _sparsity_row(network_id: int, fraction: float, dataset: ArrayDataset, reps: int) -> dict:
    """Time the sparsity-aware engine against the dense baseline on one
    synthetically sparsified net, with a float64 eager-parity check."""
    model = _build(network_id)
    report = sparsify_model(model, fraction)
    dense = InferenceEngine(model, config=DENSE_BASELINE)
    sparse = InferenceEngine(model)

    variants = {
        "dense": lambda: dense.evaluate(dataset),
        "sparse": lambda: sparse.evaluate(dataset),
    }
    for fn in variants.values():  # warm caches/buffers outside timing
        fn()
    times: dict[str, list[float]] = {k: [] for k in variants}
    for _ in range(reps):  # interleave variants inside each rep
        for key, fn in variants.items():
            times[key].append(_timed(fn))
    med = {k: statistics.median(v) for k, v in times.items()}

    parity_images = dataset.images[: min(16, len(dataset))]
    with no_grad():
        want = model(Tensor(parity_images)).numpy()
    got = sparse.predict_logits(parity_images)

    n = len(dataset)
    return {
        "network_id": network_id,
        "scheme": SCHEME,
        "dead_fraction_requested": fraction,
        "dead_fraction_actual": report["dead_fraction"],
        "images": n,
        "dense_s": med["dense"],
        "sparse_s": med["sparse"],
        "speedup_vs_dense": med["dense"] / med["sparse"],
        "dense_images_per_s": n / med["dense"],
        "sparse_images_per_s": n / med["sparse"],
        "max_abs_diff": float(np.max(np.abs(got - want))),
        "plan": _plan_fields(sparse),
    }


def _fusion_row(network_id: int, reps: int, batches: tuple[int, ...] = FUSION_BATCHES) -> dict:
    """Time the traced-fused executor against the untraced interpreter on the
    same dense plan, per batch size, with a bitwise-equality check and the
    compiled program's fusion / buffer-liveness stats.

    ``forward_batch`` is timed directly (not ``evaluate``) because tracing
    targets steady-state serving latency: per-shape programs are compiled and
    bound outside the timed region, exactly as a warm server runs.
    """
    model = _build(network_id)
    untraced = InferenceEngine(model, config=UNTRACED_BASELINE)
    fused = InferenceEngine(model, config=TRACED_FUSED)
    rng = np.random.default_rng(network_id + 100)

    row: dict = {
        "network_id": network_id,
        "scheme": SCHEME,
        "structure": model.config.structure,
        "depth": model.config.depth,
        "batches": {},
    }
    bitwise = True
    for batch in batches:
        images = rng.normal(0.0, 1.0, (batch, 3, IMAGE_SIZE, IMAGE_SIZE))
        want = untraced.forward_batch(images, check_stale=False).copy()  # warm + reference
        got = fused.forward_batch(images, check_stale=False).copy()
        bitwise = bitwise and bool(np.array_equal(got, want))
        # Sub-ms batch-1 calls need inner iterations per measurement; medians
        # are taken across interleaved reps like the rest of the benchmark.
        once = _timed(lambda: fused.forward_batch(images, check_stale=False))
        inner = max(1, min(20, int(0.02 / max(once, 1e-6))))
        times: dict[str, list[float]] = {"untraced": [], "fused": []}
        for _ in range(reps):
            for key, eng in (("untraced", untraced), ("fused", fused)):
                t0 = time.perf_counter()
                for _ in range(inner):
                    eng.forward_batch(images, check_stale=False)
                times[key].append((time.perf_counter() - t0) / inner)
        med = {k: statistics.median(v) for k, v in times.items()}
        stats = fused.plan.traced_program(images.shape).stats
        row["batches"][str(batch)] = {
            "untraced_s": med["untraced"],
            "fused_s": med["fused"],
            "speedup": med["untraced"] / med["fused"],
            "program": {
                "nodes": stats.get("nodes"),
                "fused_elementwise": stats.get("fused_elementwise"),
                "block_size": stats.get("block_size"),
                "blocks": stats.get("blocks"),
                "naive_intermediate_bytes": stats.get("naive_intermediate_bytes"),
                "peak_intermediate_bytes": stats.get("peak_intermediate_bytes"),
                "intermediate_bytes_saved": (
                    1.0 - stats["peak_intermediate_bytes"] / stats["naive_intermediate_bytes"]
                    if stats.get("naive_intermediate_bytes")
                    else None
                ),
            },
        }
    row["bitwise_equal"] = bitwise
    row["cache"] = engine_cache_stats()
    return row


def engine_cache_stats() -> dict:
    from repro.infer.kernels import cache_stats

    return cache_stats()


def _fusion_summary(rows: list[dict]) -> dict:
    """Headline numbers for the fusion sweep (the PR acceptance fields)."""
    b1 = [r["batches"]["1"]["speedup"] for r in rows if "1" in r["batches"]]
    b64 = [r["batches"]["64"]["speedup"] for r in rows if "64" in r["batches"]]
    meeting = [
        r["network_id"]
        for r in rows
        if r["batches"].get("1", {}).get("speedup", 0.0) >= 1.3
        and r["batches"].get("64", {}).get("speedup", 0.0) >= 1.15
    ]
    return {
        "max_batch1_speedup": max(b1, default=None),
        "max_batch64_speedup": max(b64, default=None),
        "nets_meeting_bar": meeting,  # >= 1.3x @ batch 1 and >= 1.15x @ batch 64
        "all_bitwise_equal": all(r["bitwise_equal"] for r in rows),
        "min_intermediate_bytes_saved": min(
            (
                spec["program"]["intermediate_bytes_saved"]
                for r in rows
                for spec in r["batches"].values()
                if spec["program"]["intermediate_bytes_saved"] is not None
            ),
            default=None,
        ),
    }


def _parity_row(network_id: int, n_images: int = 16):
    model = _build(network_id, width_scale=PARITY_WIDTH_SCALE.get(network_id, 1.0))
    images = np.random.default_rng(network_id).normal(0.0, 1.0, (n_images, 3, IMAGE_SIZE, IMAGE_SIZE))
    with no_grad():
        want = model(Tensor(images)).numpy()
    got = InferenceEngine(model).predict_logits(images)
    return {
        "network_id": network_id,
        "scheme": SCHEME,
        "max_abs_diff": float(np.max(np.abs(got - want))),
    }


def run_benchmark(
    images: int = 512, reps: int = 5, workers: tuple[int, ...] = (2,), smoke: bool = False
) -> dict:
    """Run the full benchmark; ``smoke=True`` shrinks it to a seconds-scale
    sanity pass (fewer images/reps, one timed config) for the pytest suite."""
    if smoke:
        images, reps, timed_ids = 64, 1, (4,)
        sparsity_ids, fractions = (4,), (0.4,)
        fusion_ids = (1, 4)
    else:
        timed_ids = TIMED_CONFIGS
        sparsity_ids, fractions = SPARSITY_CONFIGS, SPARSITY_FRACTIONS
        fusion_ids = FUSION_CONFIGS
    dataset = _dataset(images)
    configs = [_time_config(nid, dataset, reps, workers) for nid in timed_ids]
    parity = [_parity_row(nid, n_images=8 if smoke else 16) for nid in ALL_CONFIGS]
    sparsity = [
        _sparsity_row(nid, frac, dataset, reps) for nid in sparsity_ids for frac in fractions
    ]
    fusion = [_fusion_row(nid, reps) for nid in fusion_ids]
    return {
        "benchmark": "compiled inference engine vs eager Trainer.evaluate",
        "metadata": {
            "images": images,
            "image_shape": [3, IMAGE_SIZE, IMAGE_SIZE],
            "reps": reps,
            "timing": "median over interleaved reps",
            "scheme": SCHEME,
            "cpu_count": os.cpu_count(),
            "effective_cpus": effective_cpus(),
            "sharding_note": (
                "worker rows can only scale beyond 1x the serial engine when "
                "effective_cpus > 1 (the affinity/cgroup-visible count, not the "
                "machine total); on a single-CPU host they measure pure pool overhead"
            ),
            "numpy": np.__version__,
            "engine_dtype": "float64 (default; float32 rows are the opt-in deployment mode)",
            "smoke": smoke,
        },
        "configs": configs,
        "parity_float64": parity,
        "sparsity_sweep": sparsity,
        "fusion_sweep": fusion,
        "summary": {
            "min_single_worker_speedup": min(c["speedup"] for c in configs),
            "max_parity_abs_diff": max(p["max_abs_diff"] for p in parity),
            "min_sparsity_speedup": min(s["speedup_vs_dense"] for s in sparsity),
            "max_sparsity_speedup": max(s["speedup_vs_dense"] for s in sparsity),
            "max_sparsity_parity_abs_diff": max(s["max_abs_diff"] for s in sparsity),
            "fusion": _fusion_summary(fusion),
        },
    }


def _int_row(network_id: int, reps: int, batch: int = INT_PARITY_BATCH) -> dict:
    """One net through the integer-only mode: parity, determinism, measured
    integer op counts, and host timing vs the float64 engine.

    The timing is informational — the int8 mode models the hardware
    shift/add datapath and numpy routes integer matmuls through slow
    non-BLAS loops, so it is expected to be *slower* on the host.
    """
    model = _build(network_id, width_scale=PARITY_WIDTH_SCALE.get(network_id, 1.0))
    images = np.random.default_rng(network_id + 300).normal(
        0.0, 1.0, (batch, 3, IMAGE_SIZE, IMAGE_SIZE)
    )
    float_engine = InferenceEngine(model)
    int_engine = InferenceEngine(model, config=PlanConfig(dtype="int8"))

    want = float_engine.predict_logits(images)  # warm + reference
    got = int_engine.predict_logits(images)
    repeat = int_engine.predict_logits(images)

    times: dict[str, list[float]] = {"float": [], "int8": []}
    for _ in range(reps):  # interleave variants inside each rep
        for key, eng in (("float", float_engine), ("int8", int_engine)):
            times[key].append(_timed(lambda eng=eng: eng.predict_logits(images)))
    med = {k: statistics.median(v) for k, v in times.items()}

    intq = int_engine.plan_summary()["intq"]
    return {
        "network_id": network_id,
        "scheme": SCHEME,
        "images": batch,
        "max_abs_delta": float(np.max(np.abs(got - want))),
        "argmax_agreement": float((got.argmax(axis=1) == want.argmax(axis=1)).mean()),
        "deterministic": bool(np.array_equal(got, repeat)),
        "float_s": med["float"],
        "int8_s": med["int8"],
        "int8_vs_float": med["float"] / med["int8"],
        "accum_dtypes": sorted({layer["accum_dtype"] for layer in intq["layers"]}),
        "impls": sorted({layer["impl"] for layer in intq["layers"]}),
        "requant_bits": sorted({layer["requant_bits"] for layer in intq["layers"]}),
        "totals_per_image": intq["totals_per_image"],
        "calibration": intq["calibration"],
    }


def _int_summary(rows: list[dict]) -> dict:
    """Headline numbers for the int sweep (the PR acceptance fields)."""
    return {
        "min_argmax_agreement": min(r["argmax_agreement"] for r in rows),
        "max_abs_delta": max(r["max_abs_delta"] for r in rows),
        "all_deterministic": all(r["deterministic"] for r in rows),
        "accum_dtypes": sorted({d for r in rows for d in r["accum_dtypes"]}),
        "nets": [r["network_id"] for r in rows],
    }


def run_int_sweep(reps: int = 5, smoke: bool = False) -> dict:
    """Just the integer-only sweep, for merging into an existing
    BENCH_infer.json (``--int-sweep``) and the CI smoke job.

    Parity/determinism is checked on every Table-1 structure (the
    acceptance criterion); timing reps only matter for the throughput
    fields, so smoke mode shrinks reps, not coverage.
    """
    ids = (1, 4) if smoke else ALL_CONFIGS
    rows = [_int_row(nid, reps) for nid in ids]
    return {"int_sweep": rows, "int_summary": _int_summary(rows)}


def _print_int(rows: list[dict], summary: dict) -> None:
    for row in rows:
        totals = row["totals_per_image"]
        print(
            f"net{row['network_id']} int8: delta {row['max_abs_delta']:.2e}, "
            f"argmax {row['argmax_agreement']:.1%}, det={row['deterministic']}, "
            f"acc={'/'.join(row['accum_dtypes'])}, "
            f"{totals['shift_ops']:.0f} shifts + {totals['add_ops']:.0f} adds/img, "
            f"{row['int8_vs_float']:.2f}x vs float"
        )
    print(
        f"int8: min argmax agreement {summary['min_argmax_agreement']:.1%}, "
        f"max delta {summary['max_abs_delta']:.2e}, "
        f"deterministic={summary['all_deterministic']}"
    )


def _native_row(
    network_id: int,
    reps: int,
    batches: tuple[int, ...] = NATIVE_BATCHES,
    fraction: float = 0.0,
    agreement_images: int = NATIVE_AGREEMENT_IMAGES,
) -> dict:
    """Time the native C kernels against the numpy codegen on the same plan,
    in both execution dtypes, with bitwise-equality checks and the per-layer
    backend selections the self-check ladder actually made.  The float32
    deployment mode (numpy codegen; it has no native kernels) is timed
    beside them against float64 native and int8 native, and its argmax
    agreement with float64 is counted with int8's.  A sparsified net
    (``fraction`` > 0) skips the numpy columns."""
    model = _build(network_id)
    if fraction:
        sparsify_model(model, fraction)
    configs = {
        "numpy": (PlanConfig(backend="numpy"), None),
        "native": (PlanConfig(backend="auto"), None),
        "float32": (PlanConfig(backend="auto"), np.float32),
        "int8_numpy": (PlanConfig(dtype="int8", backend="numpy"), None),
        "int8_native": (PlanConfig(dtype="int8", backend="auto"), None),
    }
    if fraction:
        configs = {k: v for k, v in configs.items() if "numpy" not in k}
    engines = {
        k: InferenceEngine(model, config=cfg, dtype=dtype) for k, (cfg, dtype) in configs.items()
    }
    rng = np.random.default_rng(network_id + 500)
    row: dict = {
        "network_id": network_id,
        "scheme": SCHEME,
        "structure": model.config.structure,
        "depth": model.config.depth,
        "dead_fraction": fraction,
        "batches": {},
    }
    bitwise = {}
    for batch in batches:
        images = rng.normal(0.0, 1.0, (batch, 3, IMAGE_SIZE, IMAGE_SIZE))
        # Warm every engine (plan build, native compiles, first-call parity
        # checks) and collect reference outputs outside the timed region.
        outs = {k: eng.forward_batch(images, check_stale=False).copy() for k, eng in engines.items()}
        for dtype, (a, b) in {"float64": ("native", "numpy"), "int8": ("int8_native", "int8_numpy")}.items():
            if b in outs:
                same = np.array_equal(outs[a].view(np.uint8), outs[b].view(np.uint8))
                bitwise[dtype] = bitwise.get(dtype, True) and bool(same)
        once = min(
            _timed(lambda eng=eng: eng.forward_batch(images, check_stale=False))
            for eng in engines.values()
        )
        inner = max(1, min(20, int(0.02 / max(once, 1e-6))))
        times: dict[str, list[float]] = {k: [] for k in engines}
        for _ in range(reps):  # interleave variants inside each rep
            for key, eng in engines.items():
                t0 = time.perf_counter()
                for _ in range(inner):
                    eng.forward_batch(images, check_stale=False)
                times[key].append((time.perf_counter() - t0) / inner)
        med = {k: statistics.median(v) for k, v in times.items()}
        spec = {
            "native_s": med["native"],
            "float32_s": med["float32"],
            "int8_native_s": med["int8_native"],
            # against the engine's default float64 backend (native C)
            "int8_native_vs_float_native": med["native"] / med["int8_native"],
            "float32_vs_float_native": med["native"] / med["float32"],
            # > 1: int8 native is faster than the float32 mode
            "int8_native_vs_float32": med["float32"] / med["int8_native"],
        }
        if "numpy" in med:
            spec.update(
                numpy_s=med["numpy"],
                speedup=med["numpy"] / med["native"],
                int8_numpy_s=med["int8_numpy"],
                int8_speedup=med["int8_numpy"] / med["int8_native"],
                int8_native_vs_float_numpy=med["numpy"] / med["int8_native"],
            )
        row["batches"][str(batch)] = spec
    # Argmax agreement of float32 and int8 with float64, batch by batch.
    agree = {"float32": 0, "int8": 0}
    chunk = max(batches)
    for start in range(0, agreement_images, chunk):
        n = min(chunk, agreement_images - start)
        images = rng.normal(0.0, 1.0, (n, 3, IMAGE_SIZE, IMAGE_SIZE))
        ref = engines["native"].forward_batch(images, check_stale=False).argmax(axis=1)
        for key, eng in (("float32", "float32"), ("int8", "int8_native")):
            got = engines[eng].forward_batch(images, check_stale=False).argmax(axis=1)
            agree[key] += int(np.sum(got == ref))
    row["argmax_agreement"] = {k: v / agreement_images for k, v in agree.items()}
    row["argmax_images"] = agreement_images
    shape = (batches[-1], 3, IMAGE_SIZE, IMAGE_SIZE)
    prog = engines["native"].plan.traced_program(shape)
    row["float64_layers"] = (
        [{"node": i, **rec} for i, rec in sorted(prog.node_backends.items())] if prog else []
    )
    # Each int conv/linear's backend and GEMM as bound, from the int8
    # program's node records (layers and conv/linear ops share one order).
    iplan = engines["int8_native"].plan
    iprog = iplan.traced_program(shape)
    bound = {n.node.op.index: iprog.node_backends.get(n.node.index, {}) for n in iprog.node_plans}
    matmuls = [op for op in iplan.intq.ops if isinstance(op, (IntConvOp, IntLinearOp))]
    layers = (iplan.summary().get("intq") or {}).get("layers", [])
    row["int8_layers"] = [
        {
            "op_index": layer["op_index"],
            "type": layer["type"],
            "impl": layer["impl"],
            "backend": bound.get(op.index, {}).get("backend"),
            "acc_bound_bits": layer["acc_bound_bits"],
            "gemm": bound.get(op.index, {}).get("gemm"),
        }
        for layer, op in zip(layers, matmuls)
    ]
    row["bitwise_equal"] = bitwise
    return row


def _native_summary(rows: list[dict]) -> dict:
    """Headline numbers for the native sweep (the PR acceptance fields)."""
    from repro.infer.native import binding

    status = binding.status()
    b1 = [r["batches"].get("1", {}).get("speedup") for r in rows]
    int8_b1 = [r["batches"].get("1", {}).get("int8_speedup") for r in rows]

    def span(key: str) -> dict:
        """``{batch: [min, max]}`` of one ratio column over every row."""
        out = {}
        for batch in sorted({b for r in rows for b in r["batches"]}, key=int):
            vals = [r["batches"][batch][key] for r in rows if batch in r["batches"]]
            out[batch] = [min(vals), max(vals)]
        return out

    return {
        "float32_vs_float_native": span("float32_vs_float_native"),
        "int8_native_vs_float_native": span("int8_native_vs_float_native"),
        "int8_native_vs_float32": span("int8_native_vs_float32"),
        "min_argmax_agreement": {
            k: min(r["argmax_agreement"][k] for r in rows) for k in ("float32", "int8")
        },
        "toolchain": {k: status.get(k) for k in ("available", "compiler", "loader")},
        "min_batch1_speedup": min((s for s in b1 if s), default=None),
        "max_batch1_speedup": max((s for s in b1 if s), default=None),
        "min_int8_batch1_speedup": min((s for s in int8_b1 if s), default=None),
        "nets_meeting_bar": [  # >= 2x over the numpy codegen at batch 1
            r["network_id"] for r in rows if r["batches"].get("1", {}).get("speedup", 0.0) >= 2.0
        ],
        "all_bitwise_equal": all(all(r["bitwise_equal"].values()) for r in rows),
    }


def run_native_sweep(reps: int = 5, smoke: bool = False) -> dict:
    """Just the native-vs-numpy backend sweep, for merging into an existing
    BENCH_infer.json (``--native-sweep``) and the CI smoke job."""
    if smoke:
        rows = [_native_row(4, reps, agreement_images=64)]
    else:
        rows = [_native_row(nid, reps) for nid in NATIVE_CONFIGS]
        rows += [_native_row(nid, reps, fraction=f) for nid, f in NATIVE_SPARSE.items()]
    return {"native_sweep": rows, "native_summary": _native_summary(rows)}


def _print_native(rows: list[dict], summary: dict) -> None:
    for row in rows:
        parts = []
        for batch, spec in row["batches"].items():
            numpy = (
                f"numpy {spec['numpy_s'] * 1e3:.2f}ms ({spec['speedup']:.2f}x, "
                f"int8 {spec['int8_speedup']:.2f}x), "
                if "numpy_s" in spec
                else ""
            )
            parts.append(
                f"b{batch} {numpy}native {spec['native_s'] * 1e3:.2f}ms, vs native f64: "
                f"f32 {spec['float32_vs_float_native']:.2f}x, "
                f"int8 {spec['int8_native_vs_float_native']:.2f}x "
                f"(int8/f32 {spec['int8_native_vs_float32']:.2f}x)"
            )
        native_nodes = sum(1 for l in row["float64_layers"] if l.get("backend") == "native")
        print(
            f"net{row['network_id']} ({row['dead_fraction']:.0%} dead) native: "
            f"{' | '.join(parts)} | {native_nodes}/{len(row['float64_layers'])} nodes native, "
            f"argmax agreement {row['argmax_agreement']}, bitwise {row['bitwise_equal']}"
        )
    print(
        f"native: toolchain={summary['toolchain']}, nets meeting bar (>=2x b1): "
        f"{summary['nets_meeting_bar']}, bitwise={summary['all_bitwise_equal']}"
    )


def run_fusion_sweep(reps: int = 5, smoke: bool = False) -> dict:
    """Just the traced-vs-interpreter sweep, for merging into an existing
    BENCH_infer.json (``--fusion-sweep``) and the CI smoke job."""
    fusion_ids = (1, 4) if smoke else FUSION_CONFIGS
    rows = [_fusion_row(nid, reps) for nid in fusion_ids]
    return {"fusion_sweep": rows, "fusion_summary": _fusion_summary(rows)}


def _print_fusion(rows: list[dict], summary: dict) -> None:
    for row in rows:
        parts = []
        for batch, spec in row["batches"].items():
            parts.append(
                f"b{batch} {spec['untraced_s'] * 1e3:.2f}->{spec['fused_s'] * 1e3:.2f}ms "
                f"({spec['speedup']:.2f}x)"
            )
        prog = next(iter(row["batches"].values()))["program"]
        print(
            f"net{row['network_id']} traced-fused: {' | '.join(parts)} | "
            f"{prog['fused_elementwise']} ops fused, bitwise={row['bitwise_equal']}"
        )
    print(
        f"fusion: nets meeting bar (>=1.3x b1, >=1.15x b64): {summary['nets_meeting_bar']}, "
        f"bitwise={summary['all_bitwise_equal']}, "
        f"min intermediate-bytes saved {summary['min_intermediate_bytes_saved']:.0%}"
    )


def _variant_row(
    network_id: int, fraction: float, reps: int, batches: tuple[int, ...] = VARIANT_BATCHES
) -> dict:
    """Time the default plan against ``PlanConfig(prune=False)`` on one
    sparsified net, per batch size: interleaved medians (the order rotates
    every rep), how many reps the default plan won, and the layers whose
    GEMM skips dead rows pruning had to keep."""
    model = _build(network_id)
    report = sparsify_model(model, fraction)
    engines = {k: InferenceEngine(model, config=cfg) for k, cfg in VARIANT_PLANS.items()}
    rng = np.random.default_rng(network_id + 700)
    row: dict = {
        "network_id": network_id,
        "scheme": SCHEME,
        "structure": model.config.structure,
        "dead_fraction_requested": fraction,
        "dead_fraction_actual": report["dead_fraction"],
        "live_row_layers": [
            {"op_index": e["op_index"], "type": e["type"],
             "rows": e["filters"] - e["pruned_filters"], "gemm_rows": e["gemm_rows"]}
            for e in engines["default"].plan.layer_info
            if e["gemm_rows"] < e["filters"] - e["pruned_filters"]
        ],
        "batches": {},
    }
    order = list(engines)
    for batch in batches:
        images = rng.normal(0.0, 1.0, (batch, 3, IMAGE_SIZE, IMAGE_SIZE))
        for eng in engines.values():  # warm: trace, bind, native compiles
            eng.forward_batch(images, check_stale=False)
        once = min(
            _timed(lambda eng=eng: eng.forward_batch(images, check_stale=False))
            for eng in engines.values()
        )
        inner = max(1, min(20, int(0.02 / max(once, 1e-6))))
        times: dict[str, list[float]] = {k: [] for k in engines}
        for rep in range(reps):  # interleave plans, rotating the order
            for key in order[rep % 2 :] + order[: rep % 2]:
                t0 = time.perf_counter()
                for _ in range(inner):
                    engines[key].forward_batch(images, check_stale=False)
                times[key].append((time.perf_counter() - t0) / inner)
        med = {k: statistics.median(v) for k, v in times.items()}
        row["batches"][str(batch)] = {
            "default_s": med["default"],
            "unpruned_s": med["unpruned"],
            "default_vs_unpruned": med["unpruned"] / med["default"],
            "default_wins": sum(t < u for t, u in zip(times["default"], times["unpruned"])),
            "reps": reps,
        }
    return row


def cold_compile_row(network_id: int = 2, fraction: float = 0.5, batch: int = 1) -> dict:
    """Plan compile time and first forward of the default plan on an empty
    native compile cache (a private ``REPRO_CACHE_DIR``, in-process caches
    cleared): what a fresh process pays before its first logits."""
    import tempfile

    from repro.infer import clear_caches
    from repro.infer.native import binding

    model = _build(network_id)
    sparsify_model(model, fraction)
    images = np.random.default_rng(network_id + 900).normal(
        0.0, 1.0, (batch, 3, IMAGE_SIZE, IMAGE_SIZE)
    )
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        binding.reset()
        clear_caches()
        try:
            t0 = time.perf_counter()
            engine = InferenceEngine(model)
            compile_s = time.perf_counter() - t0
            first_forward_s = _timed(lambda: engine.forward_batch(images, check_stale=False))
            compiles = binding.status()["compiles"]
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
            binding.reset()
            clear_caches()
    return {
        "network_id": network_id,
        "dead_fraction_requested": fraction,
        "batch": batch,
        "compile_s": compile_s,
        "first_forward_s": first_forward_s,
        "native_compiles": compiles,
    }


def _variant_summary(rows: list[dict]) -> dict:
    """Per batch size, split by whether the net kept dead rows in a GEMM:
    the range of default-vs-unpruned speedups and the win counts."""
    out: dict = {}
    for group, members in (
        ("with_live_rows", [r for r in rows if r["live_row_layers"]]),
        ("fully_pruned", [r for r in rows if not r["live_row_layers"]]),
    ):
        for batch in sorted({b for r in members for b in r["batches"]}, key=int):
            specs = [r["batches"][batch] for r in members if batch in r["batches"]]
            out.setdefault(group, {})[f"batch{batch}"] = {
                "nets": sorted({r["network_id"] for r in members}),
                "min_default_vs_unpruned": min(s["default_vs_unpruned"] for s in specs),
                "max_default_vs_unpruned": max(s["default_vs_unpruned"] for s in specs),
                "default_wins": sum(s["default_wins"] for s in specs),
                "pairs": sum(s["reps"] for s in specs),
            }
    return out


def run_variant_sweep(reps: int = 5, smoke: bool = False) -> dict:
    """Just the pruning sweep and the cold-compile row, for merging into an
    existing BENCH_infer.json (``--variant-sweep``) and the CI smoke job."""
    if smoke:
        rows = [_variant_row(2, 0.5, reps, batches=(1,))]
    else:
        rows = [
            _variant_row(nid, frac, reps) for nid in VARIANT_CONFIGS for frac in VARIANT_FRACTIONS
        ]
    return {
        "variant_sweep": rows,
        "variant_summary": _variant_summary(rows),
        "cold_compile": cold_compile_row(),
    }


def _print_variant(rows: list[dict], summary: dict, cold: dict) -> None:
    for row in rows:
        parts = [
            f"b{batch} {spec['default_vs_unpruned']:.2f}x ({spec['default_wins']}/"
            f"{spec['reps']} wins)"
            for batch, spec in row["batches"].items()
        ]
        print(
            f"net{row['network_id']} {row['dead_fraction_actual']:.0%} dead, default vs "
            f"unpruned: {' | '.join(parts)} | {len(row['live_row_layers'])} live-row layers"
        )
    print(f"variants: {summary}")
    print(
        f"cold compile net{cold['network_id']}: {cold['compile_s']:.3f} s + first forward "
        f"{cold['first_forward_s']:.3f} s ({cold['native_compiles']} native compiles)"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--images", type=int, default=512)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--fusion-sweep",
        action="store_true",
        help="run only the traced-fused vs interpreter sweep and merge the "
        "rows into --out (other sections of an existing file are kept)",
    )
    parser.add_argument(
        "--int-sweep",
        action="store_true",
        help="run only the integer-only (int8) vs float64 sweep and merge "
        "the rows into --out (other sections of an existing file are kept)",
    )
    parser.add_argument(
        "--native-sweep",
        action="store_true",
        help="run only the native-C vs numpy-codegen backend sweep and merge "
        "the rows into --out (other sections of an existing file are kept)",
    )
    parser.add_argument(
        "--variant-sweep",
        action="store_true",
        help="run only the default-plan vs prune=False sweep on sparsified "
        "nets and the cold-compile row, and merge them into --out (other "
        "sections of an existing file are kept)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="clear the in-memory and on-disk kernel/native caches "
        "before running, for cold-cache measurements",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_infer.json"
    )
    args = parser.parse_args(argv)
    if args.clear_cache:
        from repro.infer import clear_caches

        clear_caches(disk=True)
        print("kernel/native caches cleared (memory + disk)")
    if args.variant_sweep:
        sweep = run_variant_sweep(reps=args.reps, smoke=args.smoke)
        result = json.loads(args.out.read_text()) if args.out.exists() else {}
        result["variant_sweep"] = sweep["variant_sweep"]
        result["cold_compile"] = sweep["cold_compile"]
        result.setdefault("summary", {})["variants"] = sweep["variant_summary"]
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        _print_variant(sweep["variant_sweep"], sweep["variant_summary"], sweep["cold_compile"])
        print(f"-> {args.out}")
        return
    if args.native_sweep:
        sweep = run_native_sweep(reps=args.reps, smoke=args.smoke)
        result = json.loads(args.out.read_text()) if args.out.exists() else {}
        result["native_sweep"] = sweep["native_sweep"]
        result.setdefault("summary", {})["native"] = sweep["native_summary"]
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        _print_native(sweep["native_sweep"], sweep["native_summary"])
        print(f"-> {args.out}")
        return
    if args.int_sweep:
        sweep = run_int_sweep(reps=args.reps, smoke=args.smoke)
        result = json.loads(args.out.read_text()) if args.out.exists() else {}
        result["int_sweep"] = sweep["int_sweep"]
        result.setdefault("summary", {})["intq"] = sweep["int_summary"]
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        _print_int(sweep["int_sweep"], sweep["int_summary"])
        print(f"-> {args.out}")
        return
    if args.fusion_sweep:
        sweep = run_fusion_sweep(reps=args.reps, smoke=args.smoke)
        result = json.loads(args.out.read_text()) if args.out.exists() else {}
        result["fusion_sweep"] = sweep["fusion_sweep"]
        result.setdefault("summary", {})["fusion"] = sweep["fusion_summary"]
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        _print_fusion(sweep["fusion_sweep"], sweep["fusion_summary"])
        print(f"-> {args.out}")
        return
    result = run_benchmark(images=args.images, reps=args.reps, smoke=args.smoke)
    # Merge like the sweep flags do: sections and summary keys this run does
    # not produce (native_sweep, int_sweep, summary.native, ...) are kept.
    merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    summary = {**merged.get("summary", {}), **result["summary"]}
    merged.update(result)
    merged["summary"] = summary
    args.out.write_text(json.dumps(merged, indent=2) + "\n")
    for row in result["configs"]:
        print(
            f"net{row['network_id']} ({row['structure']}-{row['depth']} w{row['width']}): "
            f"eager {row['eager_images_per_s']:.0f} img/s -> engine "
            f"{row['engine_images_per_s']:.0f} img/s ({row['speedup']:.2f}x)"
        )
    for row in result["sparsity_sweep"]:
        print(
            f"net{row['network_id']} sparsity {row['dead_fraction_actual']:.2f}: "
            f"dense {row['dense_images_per_s']:.0f} img/s -> sparse "
            f"{row['sparse_images_per_s']:.0f} img/s ({row['speedup_vs_dense']:.2f}x, "
            f"{row['plan']['pruned_filters']} filters pruned, "
            f"kernels {row['plan']['kernels']})"
        )
    _print_fusion(result["fusion_sweep"], result["summary"]["fusion"])
    print(
        f"min speedup {result['summary']['min_single_worker_speedup']:.2f}x, "
        f"min sparsity speedup {result['summary']['min_sparsity_speedup']:.2f}x, "
        f"max parity diff {result['summary']['max_parity_abs_diff']:.2e} -> {args.out}"
    )


if __name__ == "__main__":
    main()
