"""Seconds-scale smoke run of the serving benchmark (marker: serve_bench).

Excluded from the default suite by ``pytest.ini``'s ``-m "not serve_bench"``
so tier-1 stays quick; run it with::

    PYTHONPATH=src python -m pytest tests/serve/test_bench_smoke.py -m serve_bench
"""

from __future__ import annotations

import json

import pytest

bench_serve = pytest.importorskip(
    "benchmarks.bench_serve", reason="benchmarks package requires repo root on sys.path"
)


@pytest.mark.serve_bench
def test_benchmark_smoke(tmp_path):
    result = bench_serve.run_benchmark(smoke=True)

    assert result["metadata"]["smoke"] is True
    rows = result["rows"]
    # Smoke covers the primary scale only, both transports, micro on and off.
    assert {r["scale"] for r in rows} == {"serving_16px"}
    assert {r["transport"] for r in rows} == {"batcher", "http"}
    assert {r["micro_batching"] for r in rows} == {False, True}
    for row in rows:
        assert row["requests"] == row["clients"] * result["metadata"]["requests_per_client"]
        assert row["throughput_rps"] > 0
        lat = row["latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]

    # Micro-batching must actually coalesce under concurrency; no speedup
    # bar at smoke scale (too few requests for stable timing — the full run
    # enforces the >=2x criterion in BENCH_serve.json).
    peak = result["summary"]["peak_clients"]
    coalesced = next(
        r for r in rows
        if r["transport"] == "batcher" and r["clients"] == peak and r["micro_batching"]
    )
    assert coalesced["mean_batch_size"] > 1.0
    assert result["summary"]["batcher_speedup_at_peak"] > 0

    out = tmp_path / "BENCH_serve.json"
    out.write_text(json.dumps(result))  # round-trips: everything is plain JSON
    assert json.loads(out.read_text())["rows"]


@pytest.mark.serve_bench
def test_cluster_sweep_smoke(tmp_path):
    """The multi-process cluster sweep: scaling rows are clean (no deaths,
    no sheds), the overload row sheds with the p99 of all accepted traffic
    honoring its queue-derived bound, and everything is JSON-serializable."""
    sweep = bench_serve.run_cluster_sweep(smoke=True)

    assert sweep["metadata"]["smoke"] is True
    assert sweep["metadata"]["service_delay_s"] > 0  # offload model declared
    for row in sweep["scaling_rows"]:
        assert row["worker_deaths"] == 0
        assert row["requests_completed"] == row["requests_offered"]  # no sheds
        assert row["throughput_rps"] > 0
        assert 0 < row["latency_s"]["p50"] <= row["latency_s"]["p99"]
    # two workers must beat one by a clear margin even at smoke scale
    scaling = sweep["summary"]["scaling_vs_1_worker"]
    assert scaling["workers_2"] > 1.5

    overload = sweep["overload_row"]
    assert overload["shed"] > 0
    assert overload["latency_s"]["p99"] <= overload["p99_bound_s"]  # shed before collapse

    out = tmp_path / "BENCH_cluster.json"
    out.write_text(json.dumps(sweep))
    assert json.loads(out.read_text())["scaling_rows"]
