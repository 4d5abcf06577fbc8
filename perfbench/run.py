"""Benchmark of the FLightNN inference engine and serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_b1_f64 --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``engine_b1_f64``   closed loop, one caller, batch-1 ``forward_batch``,
  float64, net 4 at 32 px with half of every conv layer's filters dead.
* ``engine_b64_int8`` closed loop, one caller, batch 64,
  ``PlanConfig(dtype="int8")``, dense net 4 at 32 px.
* ``batcher_closed``  closed loop, one thread submits 8 images back to back
  into ``MicroBatcher.submit`` and waits for all 8, net 4 at 16 px, width
  0.5.
* ``http_cluster``    closed loop, 2 keep-alive ``PredictClient``
  connections into ``ModelServer`` over a 2-worker ``ClusterService``,
  net 4 at 16 px, width 0.5.

Each run makes a private work directory under ``.perfbench/`` in the
checkout and removes it at the end, and runs the program with OpenBLAS
pinned to one thread (see ``run_child``).  Set-up is sampled three times
(once in a traced run), each in a fresh process with a fresh
``REPRO_CACHE_DIR`` (so every sample pays the same C compiles and no run
inherits another's autotune decisions); ``setup_s`` is the median of the
time from process start to the first response.  The last process then
measures the workload for ``--seconds`` and checks every output:

* float engine and micro-batcher logits equal the op-by-op interpreter
  (``PlanConfig(trace=False, backend="numpy")``) byte for byte;
* int8 logits equal the int8 numpy-backend program byte for byte;
* HTTP/cluster logits, after the JSON round trip, equal in-process engine
  logits byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the run measures half the time untraced and half traced
and reports the per-layer metrics, the tracing overhead (traced minus
untraced ``lat_ms_p50``) and how much of ``lat_ms_p50`` the per-layer
parts, each timed on its own, account for.  A traced ``http_cluster`` run
serves both halves through a registry-shaped pass-through that times
submit→result inside the server only in the traced half, where each client
also sends every image once more naming an unknown model, to time the
transport of a request the server rejects before submitting it.
``ok_frac`` is ``1 - fail_frac``, where ``fail_frac`` = (failed + refused +
expired + output mismatches) / attempted; the line before the result
carries ``fail_frac``, the host context, the cache and autotune record and
the workload's parameters and seed.

A smoke run of every workload takes seconds::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("engine_b1_f64", "engine_b64_int8", "batcher_closed", "http_cluster")
#: Whole-run budget; the benchmark must finish well inside 180 s.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _read_lines(stream, lines: "queue.Queue") -> None:
    for line in stream:
        lines.put((time.perf_counter(), line.rstrip("\n")))
    lines.put((time.perf_counter(), None))


def run_child(root: Path, cache_dir: Path, args, setup_only: bool,
              deadline: float) -> "tuple[float, dict]":
    """Start one benchmark process; returns (set-up seconds, its result)."""
    tmp = cache_dir / "tmp"
    tmp.mkdir(parents=True)
    # OpenBLAS pinned to one thread: on a 2-CPU host its spinning worker
    # threads compete with the batcher's and the server's threads and, run to
    # run, moved batcher_closed's lat_ms_p90 by up to 2x.  The engine's own
    # threads (PlanConfig(threads="auto")) keep their default.
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir), TMPDIR=str(tmp),
               OPENBLAS_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    lines: "queue.Queue" = queue.Queue()
    reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines), daemon=True)
    reader.start()
    setup_s = result = None
    try:
        while True:
            try:
                at, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchError(f"{args.workload}: benchmark process ran out of time") from None
            if line is None:
                break
            if line == "PERFBENCH READY":
                setup_s = at - started
            elif line.startswith("PERFBENCH RESULT "):
                result = json.loads(line[len("PERFBENCH RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise BenchError(f"{args.workload}: benchmark process failed (exit code {code})")
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="FLightNN engine and serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Set-up is sampled three times for setup_s; a traced run does not report it.
    setups = 1 if args.trace else 3

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {root}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = root / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        samples = []
        for k in range(setups):
            samples.append(
                run_child(root, workdir / f"cache{k}", args, k < setups - 1, deadline)
            )
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass

    setup_times = [s for s, _ in samples]
    result = samples[-1][1]
    correct = all(r["first_ok"] for _, r in samples) and result["failed"] == 0
    e2e = dict(result["end_to_end"], setup_s=statistics.median(setup_times))
    if args.trace:
        declared = spec["per_layer"]
        # A layer the workload does not run (no HTTP in an engine loop, no
        # intq in a float plan) reads 0.
        values = {m["name"]: result["layers"].get(m["name"], 0) for m in declared}
    else:
        declared, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setup_times,
        "so_compiled_per_setup": [r["so_compiled"] for _, r in samples],
        "latency_samples": result["samples"],
        "fail_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "end_to_end": e2e,
        **{k: result[k] for k in ("host", "detail", "layers", "accounting") if k in result},
    }
    print("perfbench context " + json.dumps(context), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
