"""One benchmark process: set up a workload, measure it, check its outputs.

``run.py`` starts this file once per set-up sample, from the root of a
checkout, with a fresh private ``REPRO_CACHE_DIR``; it is not meant to be
run by hand.  It speaks a two-line protocol on stdout:

* ``PERFBENCH READY`` as soon as the first response has come back.  The
  parent times set-up from process start to this line; the first response
  is checked against its reference right after it, outside that time.
* ``PERFBENCH RESULT <json>`` at the end, with the measured phase(s), the
  per-layer numbers and the host context.

With ``--setup-only`` the process stops after checking the first response.
Every model, input and arrival time comes from fixed model seeds plus the
workload ``--seed``.  The program is driven only through the public
``repro`` API; per-layer numbers are timed around the calls into each layer
from here, or read from the engine's own ``profile=True`` timers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.infer import ExecutionContext, InferenceEngine, PlanConfig  # noqa: E402
from repro.infer.native import binding as native_binding  # noqa: E402
from repro.infer.native import toolchain  # noqa: E402
from repro.infer.plan import execute_ops  # noqa: E402
from repro.models.registry import build_network  # noqa: E402
from repro.nn.layers.norm import BatchNorm2d  # noqa: E402
from repro.quant.schemes import paper_schemes  # noqa: E402
from repro.quant.sparsify import sparsify_model  # noqa: E402
from repro.serve import (  # noqa: E402
    BatcherConfig,
    ClusterService,
    MicroBatcher,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
    percentile,
)
from repro.utils.cpu import effective_cpus  # noqa: E402
from repro.utils.profiler import PhaseProfiler, use_profiler  # noqa: E402

NETWORK_ID = 4
SCHEME = "FL_a"
NUM_CLASSES = 10
#: Bound on any single wait for a result; a stall this long is a failure.
RESULT_TIMEOUT_S = 30.0
#: Share by which the per-layer parts may miss the ``lat_ms_p50`` they
#: decompose.  Each part is timed on its own, so the parts need not add up:
#: engine per-op self times (plus the stale check) against the untraced
#: forward, whose gap is Python dispatch between kernel calls (the
#: profiler's own cost falls outside the op timers and is reported as
#: ``trace.overhead_ms``); for the batcher, the wait from submit to the
#: start of the batch's forward plus the engine's per-op times, leaving out
#: dispatch and result delivery; over HTTP, the round trip of a same-size
#: request the server rejects before submitting it, plus the service's
#: submit->result time.
ACCOUNTING_TOLERANCE = 0.25
#: Requests ``batcher_closed`` keeps in flight.  One thread submits them
#: back to back and waits for all, so every batch holds exactly this many
#: (one bound state of the traced program) after the batcher's default
#: 2 ms coalescing wait.  An open loop is not steady enough to bound: with
#: single-image Poisson arrivals batch sizes vary freely and the traced
#: program, which keeps four bound states per execution context, rebinds on
#: almost every batch; with 8-image bursts the submitting thread still ran
#: up to 17 ms late (p99) and lat_ms_p90 moved by 30% from run to run.
BATCHER_WINDOW = 8
HTTP_CLIENTS = 2
MODEL_NAME = "flightnn"
#: A model name the server does not know: a predict request naming it is
#: read and parsed in full, then answered 404 before anything is submitted.
UNKNOWN_MODEL = "perfbench-no-such-model"
#: End-to-end figures come from consecutive chunks of CHUNK images (one of
#: batcher_closed's windows, so a chunk's rate spans whole windows) and at
#: least two requests, read at the best BEST_SHARE of them (see Phase).
CHUNK = BATCHER_WINDOW
BEST_SHARE = 0.01

# Per-op profiler labels ("ir3:conv[dense]+lrelu+aq", "intq5:IntConvOp",
# "op9:MaxPoolOp") fold into a fixed set of op kinds, so the metric names
# stay the same when autotune flips a kernel or the path changes.
_OP_KINDS = (
    ("conv", re.compile(r":(conv|IntConvOp|ConvOp)")),
    ("linear", re.compile(r":(linear|IntLinearOp|LinearOp)")),
    ("pool", re.compile(r":(maxpool|avgpool|IntMaxPoolOp|MaxPoolOp|AvgPoolOp)")),
    ("gap", re.compile(r":(gap|IntGapSumOp|GlobalAvgPoolOp)")),
)
OP_KINDS = tuple(kind for kind, _ in _OP_KINDS) + ("other",)


def build_model(image_size: int, width_scale: float, dead_fraction: float = 0.0):
    """Config-4 FL_a network with trained-looking BN statistics; with
    ``dead_fraction`` that share of each conv layer's filters is made dead,
    as group-lasso training leaves a FLightNN."""
    model = build_network(
        NETWORK_ID,
        paper_schemes()[SCHEME],
        num_classes=NUM_CLASSES,
        image_size=image_size,
        width_scale=width_scale,
        rng=0,
    )
    rng = np.random.default_rng(1)
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            c = m.num_features
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0.0, 0.2, c)
            m.running_mean[...] = rng.normal(0.0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
    model.eval()
    if dead_fraction:
        sparsify_model(model, dead_fraction)
    return model


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ms_p(values_s, p: float) -> float:
    return percentile(list(values_s), p) * 1e3


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Phase:
    """Outcome of one measured window.

    ``lats_s[i]`` is a completed request's latency and ``ends_s[i]`` the
    time it completed.  The window is cut into consecutive chunks of
    :data:`CHUNK` images and at least two requests (eight batch-1 requests,
    two batch-64 ones), each with its own p50, p90 and image rate, and
    each end-to-end figure is the chunk value at the best
    :data:`BEST_SHARE` of chunks (1st percentile of the latencies, 99th of
    the rates).

    Why not a median: on a shared host, neighbour load switches the CPU
    between two speeds about 1.4x apart, in bursts of a fraction of a
    second to minutes, and the slow share of a run ranges from none to
    all.  A median moves from one speed to the other as that share crosses
    a half: over sets of ten runs of the same code, whole-window medians
    spread by 30%.  Fast stretches turn up in almost every run, so the best
    few short chunks read the program at the fast speed in quiet and busy
    periods alike; a slower program moves every chunk, those included.  In
    twelve 18-s ``engine_b1_f64`` runs on a 2-vCPU KVM guest, in a quiet
    and a busy period, the whole-window p50 ranged over 0.118-0.181 ms and
    this figure over 0.107-0.121 ms.  The whole-window figures (``*_run``)
    are reported beside them.
    """

    def __init__(self, lats_s, ends_s, start_s: float, images_per_request: int,
                 attempted: int, failures: "dict[str, int]"):
        order = np.argsort(ends_s, kind="stable")
        self.lats_s = np.asarray(lats_s)[order]
        self.ends_s = np.asarray(ends_s)[order]
        self.start_s = start_s
        self.images_per_request = images_per_request
        self.attempted = attempted
        self.failures = failures
        self.failed = sum(failures.values())

    def end_to_end(self) -> dict:
        n = len(self.lats_s)
        size = max(2, -(-CHUNK // self.images_per_request))
        # Whole chunks only; a window shorter than one chunk is one chunk.
        chunks = [np.arange(i, min(i + size, n)) for i in range(0, max(1, n - size + 1), size)]
        rates, p50s, p90s = [], [], []
        for c in chunks:
            begin = self.ends_s[c[0] - 1] if c[0] else self.start_s
            rates.append(len(c) * self.images_per_request / (self.ends_s[c[-1]] - begin))
            p50s.append(ms_p(self.lats_s[c], 50))
            p90s.append(ms_p(self.lats_s[c], 90))
        best = 100 * BEST_SHARE
        return {
            "img_per_s": float(np.percentile(rates, 100 - best)),
            "lat_ms_p50": float(np.percentile(p50s, best)),
            "lat_ms_p90": float(np.percentile(p90s, best)),
            "lat_ms_p99": ms_p(self.lats_s, 99),
            "ok_frac": 1.0 - self.failed / self.attempted,
            "img_per_s_run": len(self.lats_s) * self.images_per_request
            / (self.ends_s[-1] - self.start_s),
            "lat_ms_p50_run": ms_p(self.lats_s, 50),
            "lat_ms_p90_run": ms_p(self.lats_s, 90),
        }


class OpTimes:
    """Per-op-kind time per forward, from an engine's ``profile=True``
    timers (or a :class:`PhaseProfiler` around the interpreter)."""

    def __init__(self, timings_before: dict, timings_after: dict, forwards: int):
        totals = dict(timings_after["totals"])
        counts = dict(timings_after["counts"])
        for name, value in timings_before["totals"].items():
            totals[name] -= value
        for name, value in timings_before["counts"].items():
            counts[name] -= value
        self.per_op_ms = {name: 1e3 * t / forwards for name, t in totals.items()}
        self.kernel_calls = sum(counts.values()) / forwards
        self.by_kind = dict.fromkeys(OP_KINDS, 0.0)
        for name, ms in self.per_op_ms.items():
            kind = next((k for k, pattern in _OP_KINDS if pattern.search(name)), "other")
            self.by_kind[kind] += ms

    def metrics(self) -> dict:
        out = {f"engine.op_ms.{kind}": ms for kind, ms in self.by_kind.items()}
        out["fuse.kernel_calls"] = self.kernel_calls
        return out


def engine_timings(engine: InferenceEngine) -> dict:
    return engine.plan_summary()["timings"]


def plan_metrics(engine: InferenceEngine, compile_s: float, first_call_s: float) -> dict:
    """Plan, prune, autotune, native and intq counters of one engine."""
    summary = engine.plan_summary()
    intq = summary["intq"]
    if intq["enabled"]:
        backends = [layer["backend"] for layer in intq["layers"]]
        native_ops, numpy_ops = backends.count("native"), backends.count("numpy")
        per_img = intq["totals_per_image"]
    else:
        programs = summary["trace"]["programs"]
        counts = programs[0]["backends"] if programs else {}
        native_ops, numpy_ops = counts.get("native", 0), counts.get("numpy", 0)
        per_img = {"shift_ops": 0, "requant_mult_ops": 0}
    native = summary["native"]
    return {
        "plan.compile_s": compile_s,
        "plan.pruned_filters": summary["pruned_filters_total"],
        "autotune.native_ops": native_ops,
        "autotune.numpy_ops": numpy_ops,
        "fuse.peak_intermediate_bytes": summary["trace"]["peak_intermediate_bytes"],
        "native.first_call_s": first_call_s,
        "native.demoted": native.get("check_failures", 0),
        "native.declined": native.get("declined", 0),
        "intq.shifts_per_img": per_img["shift_ops"],
        "intq.requants_per_img": per_img["requant_mult_ops"],
    }


def autotune_choices(engine: InferenceEngine) -> list:
    """Each layer's kernel and backend decision, to spot autotune flips."""
    summary = engine.plan_summary()
    if summary["intq"]["enabled"]:
        return [
            {"op": layer["op_index"], "impl": layer["impl"], "backend": layer["backend"]}
            for layer in summary["intq"]["layers"]
        ]
    return [
        {"op": layer["op_index"], "kernel": layer["kernel"]} for layer in summary["layers"]
    ]


# -- engine workloads ------------------------------------------------------------


class EngineLoop:
    """Closed loop: one caller, back-to-back ``forward_batch`` calls."""

    parts_of_traced = False

    def __init__(self, seed: int, batch: int, config: PlanConfig, reference: PlanConfig,
                 dead_fraction: float) -> None:
        self.batch = batch
        self.config = config
        self.reference = reference
        self.dead_fraction = dead_fraction
        rng = np.random.default_rng(seed)
        # 64 distinct batch-1 inputs, or 4 distinct batch-64 inputs.
        self.inputs = rng.normal(0.0, 1.0, (max(4, 64 // batch), batch, 3, 32, 32))

    def setup(self) -> None:
        self.model = build_model(32, 1.0, self.dead_fraction)
        self.engine, self.compile_s = timed(lambda: InferenceEngine(self.model, config=self.config))
        self.first, self.first_call_s = timed(
            lambda: self.engine.forward_batch(self.inputs[0]).copy()
        )

    def check_first(self) -> bool:
        ref = InferenceEngine(self.model, config=self.reference)
        self.refs = [ref.forward_batch(x).copy() for x in self.inputs]
        return same_bytes(self.first, self.refs[0])

    def _loop(self, engine: InferenceEngine, seconds: float) -> Phase:
        lats, ends, mismatched, i = [], [], 0, 0
        start = time.perf_counter()
        end = start + seconds
        t1 = start
        while t1 < end:
            k = i % len(self.inputs)
            t0 = time.perf_counter()
            out = engine.forward_batch(self.inputs[k])
            t1 = time.perf_counter()
            lats.append(t1 - t0)
            ends.append(t1)
            mismatched += not same_bytes(out, self.refs[k])
            i += 1
        return Phase(lats, ends, start, self.batch, i, {"mismatched": mismatched})

    def run(self, seconds: float) -> Phase:
        return self._loop(self.engine, seconds)

    def run_traced(self, seconds: float) -> "tuple[Phase, dict, dict]":
        engine = InferenceEngine(self.model, config=self.config, profile=True)
        engine.forward_batch(self.inputs[0])  # bind and self-check outside the window
        before = engine_timings(engine)
        phase = self._loop(engine, seconds)
        ops = OpTimes(before, engine_timings(engine), phase.attempted)
        # forward_batch runs the version-counter stale check before the kernels.
        stale_ms = ms_p([timed(lambda: engine.check_stale(fingerprint=False))[1]
                         for _ in range(2000)], 50)
        layers = {
            **plan_metrics(self.engine, self.compile_s, self.first_call_s),
            **ops.metrics(),
            "engine.forward_ms_p50": ms_p(phase.lats_s, 50),
            "engine.stale_check_ms": stale_ms,
        }
        parts = {f"engine.op_ms.{k}": v for k, v in ops.by_kind.items()}
        parts["engine.stale_check_ms"] = stale_ms
        return phase, layers, {"parts_ms": parts, "per_op_ms": ops.per_op_ms}

    def context(self) -> dict:
        return {"batch": self.batch, "autotune": autotune_choices(self.engine)}

    def close(self) -> None:
        pass


# -- micro-batcher, open loop ----------------------------------------------------


class TimedEngine:
    """Engine-shaped pass-through that records each batch's forward span."""

    def __init__(self, engine: InferenceEngine) -> None:
        self._engine = engine
        self.spans: "list[tuple[float, float, int]]" = []

    @property
    def plan(self):
        return self._engine.plan

    def make_context(self):
        return self._engine.make_context()

    def forward_batch(self, images, check_stale=True, ctx=None):
        t0 = time.perf_counter()
        out = self._engine.forward_batch(images, check_stale=check_stale, ctx=ctx)
        self.spans.append((t0, time.perf_counter(), len(images)))
        return out


class BatcherClosed:
    """Closed loop: one thread submits :data:`BATCHER_WINDOW` images back to
    back into ``MicroBatcher.submit`` and waits for all of them; latency
    counts from each request's submit to the return of its result."""

    pool = 256
    parts_of_traced = True

    def __init__(self, seed: int) -> None:
        self.images = np.random.default_rng(seed).normal(0.0, 1.0, (self.pool, 3, 16, 16))

    def setup(self) -> None:
        self.model = build_model(16, 0.5)
        self.engine, self.compile_s = timed(lambda: InferenceEngine(self.model))
        self.batcher = MicroBatcher(self.engine, BatcherConfig()).start()
        self.first, self.first_call_s = timed(
            lambda: self.batcher.submit(self.images[0]).result(timeout=RESULT_TIMEOUT_S)
        )

    def check_first(self) -> bool:
        ref = InferenceEngine(self.model, config=PlanConfig(trace=False, backend="numpy"))
        self.refs = [ref.forward_batch(img[None])[0].copy() for img in self.images]
        return same_bytes(self.first, self.refs[0])

    def _loop(self, batcher: MicroBatcher, seconds: float) -> Phase:
        lats, ends, sent = [], [], []
        failures = {"refused": 0, "errored": 0, "mismatched": 0}
        attempted = 0
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            window = []
            for _ in range(BATCHER_WINDOW):
                k = attempted % self.pool
                attempted += 1
                t0 = time.perf_counter()
                try:
                    window.append((k, t0, batcher.submit(self.images[k])))
                except ReproError:  # refused at the door (queue full / closing)
                    failures["refused"] += 1
            for k, t0, future in window:
                try:
                    out = future.result(timeout=RESULT_TIMEOUT_S)
                except Exception:  # the batch failed, or no result in time
                    failures["errored"] += 1
                    continue
                t1 = time.perf_counter()
                lats.append(t1 - t0)
                ends.append(t1)
                sent.append(t0)
                failures["mismatched"] += not same_bytes(out, self.refs[k])
        phase = Phase(lats, ends, start, 1, attempted, failures)
        phase.sent = np.asarray(sent)
        return phase

    def run(self, seconds: float) -> Phase:
        return self._loop(self.batcher, seconds)

    def run_traced(self, seconds: float) -> "tuple[Phase, dict, dict]":
        engine = InferenceEngine(self.model, profile=True)
        timed_engine = TimedEngine(engine)
        with MicroBatcher(timed_engine, BatcherConfig()) as batcher:
            batcher.submit(self.images[0]).result(timeout=RESULT_TIMEOUT_S)
            timed_engine.spans.clear()
            before = engine_timings(engine)
            phase = self._loop(batcher, seconds)
        spans = timed_engine.spans
        ops = OpTimes(before, engine_timings(engine), len(spans))
        # One worker, one submitting thread: batches take requests in submit
        # order, so the r-th completed request ran in the batch whose
        # cumulative size covers r (refused requests and failed batches
        # appear in neither list).
        starts = np.repeat([s[0] for s in spans], [s[2] for s in spans])
        wait_ms = ms_p(starts - phase.sent, 50)
        parts = {"batcher.queue_wait_ms_p50": wait_ms}
        parts.update((f"engine.op_ms.{k}", v) for k, v in ops.by_kind.items())
        span_s = [s[1] - s[0] for s in spans]
        layers = {
            **plan_metrics(self.engine, self.compile_s, self.first_call_s),
            **ops.metrics(),
            "engine.forward_ms_p50": 1e3 * statistics.median(span_s),
            "batcher.batch_size_mean": batcher.metrics.snapshot()["batches"]["mean_size"],
            "batcher.queue_wait_ms_p50": wait_ms,
            "batcher.busy_frac": sum(span_s) / (phase.ends_s[-1] - phase.start_s),
        }
        return phase, layers, {"parts_ms": parts, "per_op_ms": ops.per_op_ms}

    def context(self) -> dict:
        return {
            "requests_in_flight": BATCHER_WINDOW,
            "batch_sizes": self.batcher.metrics.snapshot()["batches"]["histogram"],
            "batcher_config": vars(BatcherConfig()),
            "autotune": autotune_choices(self.engine),
        }

    def close(self) -> None:
        self.batcher.stop()


# -- HTTP into the cluster -------------------------------------------------------


class _TimedFuture:
    """Calls ``on_result`` when the server's handler has its result."""

    def __init__(self, future, on_result) -> None:
        self._future = future
        self._on_result = on_result

    def result(self, timeout=None):
        out = self._future.result(timeout=timeout)
        self._on_result()
        return out


class _TimedSubmit:
    """Model-entry-shaped: ``ModelServer`` calls ``entry.batcher.submit``."""

    def __init__(self, entry, probe: "RegistryProbe") -> None:
        self.name = entry.name
        self.batcher = self
        self._submit = entry.batcher.submit
        self._probe = probe

    def submit(self, image, **kwargs):
        t0 = time.perf_counter()
        future = self._submit(image, **kwargs)
        if not self._probe.recording:
            return future
        key = np.asarray(image).tobytes()
        spans = self._probe.spans
        return _TimedFuture(future, lambda: spans.__setitem__(key, time.perf_counter() - t0))


class RegistryProbe:
    """Registry-shaped pass-through handed to ``ModelServer``: while
    ``recording``, it times each request's submit→result inside the server,
    keyed by the image bytes the server parsed."""

    def __init__(self, service: ClusterService) -> None:
        self._service = service
        self.recording = False
        self.spans: "dict[bytes, float]" = {}

    def __getattr__(self, name):
        return getattr(self._service, name)

    def __len__(self) -> int:
        return len(self._service)

    def get(self, name=None):
        return _TimedSubmit(self._service.get(name), self)


class HttpCluster:
    """Closed loop: keep-alive ``PredictClient`` connections, HTTP/JSON into
    ``ModelServer`` over a two-worker ``ClusterService``."""

    pool = 64
    parts_of_traced = True

    def __init__(self, seed: int, traced: bool) -> None:
        self.traced = traced
        rng = np.random.default_rng(seed)
        self.images = rng.normal(0.0, 1.0, (self.pool, 3, 16, 16))

    def setup(self) -> None:
        model = build_model(16, 0.5)
        self.engine, self.compile_s = timed(lambda: InferenceEngine(model))
        self.service = ClusterService()
        self.service.register(MODEL_NAME, engines=self.engine)
        self.probe = RegistryProbe(self.service)
        registry = self.probe if self.traced else self.service
        t0 = time.perf_counter()
        self.server = ModelServer(registry, ServerConfig(port=0)).start()
        self.client = PredictClient(self.server.url, timeout_s=RESULT_TIMEOUT_S)
        self.first = self.client.predict(self.images[0]).logits
        self.start_s = time.perf_counter() - t0

    def check_first(self) -> bool:
        self.refs = [self.engine.forward_batch(img[None])[0].copy() for img in self.images]
        return same_bytes(self.first, self.refs[0])

    def _loop(self, seconds: float) -> Phase:
        # Per-client lists: each client thread appends only to its own.
        lats = [[] for _ in range(HTTP_CLIENTS)]
        ends = [[] for _ in range(HTTP_CLIENTS)]
        service = [[] for _ in range(HTTP_CLIENTS)]
        rejected = [[] for _ in range(HTTP_CLIENTS)]
        failures = [dict.fromkeys(("refused", "expired", "errored", "mismatched"), 0)
                    for _ in range(HTTP_CLIENTS)]
        attempted = [0] * HTTP_CLIENTS
        start = time.perf_counter()
        end = start + seconds

        def client(c: int) -> None:
            i = c  # client c sends only images c, c+2, ...: no key is shared in flight
            while time.perf_counter() < end:
                k = i % self.pool
                i += HTTP_CLIENTS
                attempted[c] += 1
                t0 = time.perf_counter()
                try:
                    logits = self.client.predict(self.images[k]).logits
                except ServeHTTPError as err:
                    kind = {503: "refused", 504: "expired"}.get(err.status, "errored")
                    failures[c][kind] += 1
                    continue
                except ReproError:  # transport retries exhausted
                    failures[c]["errored"] += 1
                    continue
                t1 = time.perf_counter()
                lats[c].append(t1 - t0)
                ends[c].append(t1)
                failures[c]["mismatched"] += not same_bytes(logits, self.refs[k])
                if self.probe.recording:
                    service[c].append(self.probe.spans.pop(self.images[k].tobytes()))
                    # Transport timed on its own: the same request, rejected
                    # by the server before it reaches the service.
                    attempted[c] += 1
                    t0 = time.perf_counter()
                    try:
                        self.client.predict(self.images[k], model=UNKNOWN_MODEL)
                    except ServeHTTPError as err:
                        if err.status == 404:
                            rejected[c].append(time.perf_counter() - t0)
                            continue
                    except ReproError:
                        pass
                    failures[c]["errored"] += 1

        threads = [threading.Thread(target=client, args=(c,)) for c in range(HTTP_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = {kind: sum(f[kind] for f in failures) for kind in failures[0]}
        phase = Phase(sum(lats, []), sum(ends, []), start, 1, sum(attempted), total)
        if self.probe.recording:
            phase.service_s = sum(service, [])
            phase.transport_s = [lat - span for lat, span in zip(sum(lats, []), phase.service_s)]
            phase.rejected_s = sum(rejected, [])
        return phase

    def run(self, seconds: float) -> Phase:
        return self._loop(seconds)

    def _interpreter_exec(self, rounds: int = 4) -> "tuple[list, OpTimes]":
        """The workers' path (op-by-op interpreter over the published plan
        payload) at batch 1, timed in this process."""
        payload = self.engine.plan.payload()
        ctx = ExecutionContext()
        profiler = PhaseProfiler()
        lats = []
        for _ in range(rounds):
            for img in self.images:
                with use_profiler(profiler):
                    _, dt = timed(lambda: execute_ops(
                        payload["ops"], img[None], ctx, payload["out_slot"], payload["dtype"]
                    ))
                lats.append(dt)
        timings = {"totals": profiler.totals, "counts": profiler.counts}
        return lats, OpTimes({"totals": {}, "counts": {}}, timings, len(lats))

    def run_traced(self, seconds: float) -> "tuple[Phase, dict, dict]":
        self.probe.recording = True
        try:
            phase = self._loop(seconds)
        finally:
            self.probe.recording = False
        exec_lats, ops = self._interpreter_exec()
        exec_ms = ms_p(exec_lats, 50)
        service_ms = ms_p(phase.service_s, 50)
        rejected_ms = ms_p(phase.rejected_s, 50)
        snapshot = self.service.metrics_snapshot()[MODEL_NAME]
        generation = self.service.get(MODEL_NAME).store.current
        # The workers run the published plan op by op, so the in-process
        # engine's autotune, native and fused-program figures do not apply.
        layers = {
            "plan.compile_s": self.compile_s,
            "plan.pruned_filters": self.engine.plan_summary()["pruned_filters_total"],
            **ops.metrics(),
            "http.service_ms_p50": service_ms,
            "http.transport_ms_p50": ms_p(phase.transport_s, 50),
            "http.rejected_ms_p50": rejected_ms,
            "http.req_bytes": statistics.fmean(self._req_bytes(img) for img in self.images),
            "http.resp_bytes": statistics.fmean(self._resp_bytes(r) for r in self.refs),
            "cluster.start_s": self.start_s,
            "cluster.exec_ms_p50": exec_ms,
            "cluster.ipc_ms_p50": service_ms - exec_ms,
            "cluster.shm_bytes": sum(h.total_bytes for h in generation.handles.values()),
            "cluster.restarts": snapshot["workers_lifecycle"]["restarts"],
            "cluster.redispatched": snapshot["workers_lifecycle"]["redispatched"],
            "cluster.shed": snapshot["requests"]["shed"],
        }
        parts = {
            "http.rejected_ms_p50": rejected_ms,
            "cluster.ipc_ms_p50": service_ms - exec_ms,
            "cluster.exec_ms_p50": exec_ms,
        }
        return phase, layers, {"parts_ms": parts, "per_op_ms": ops.per_op_ms}

    @staticmethod
    def _req_bytes(image) -> int:
        return len(json.dumps({"image": image.tolist()}).encode())

    @staticmethod
    def _resp_bytes(logits) -> int:
        body = {"model": MODEL_NAME, "logits": logits.tolist(),
                "prediction": int(np.argmax(logits))}
        return len(json.dumps(body).encode())

    def context(self) -> dict:
        return {"clients": HTTP_CLIENTS, "cluster_workers": self.service.cluster_config.workers}

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def make_workload(name: str, seed: int, traced: bool):
    if name == "engine_b1_f64":
        return EngineLoop(seed, 1, PlanConfig(), PlanConfig(trace=False, backend="numpy"), 0.5)
    if name == "engine_b64_int8":
        return EngineLoop(
            seed, 64, PlanConfig(dtype="int8"), PlanConfig(dtype="int8", backend="numpy"), 0.0
        )
    if name == "batcher_closed":
        return BatcherClosed(seed)
    if name == "http_cluster":
        return HttpCluster(seed, traced)
    raise SystemExit(f"unknown workload {name!r}")


# -- host context ----------------------------------------------------------------


def host_probe_ms(reps: int = 30) -> float:
    """Median time of a fixed single-threaded numpy kernel: a slow run with
    a slow probe points at the host, not at the program."""
    x = np.linspace(0.0, 1.0, 200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.exp(x).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def cpu_ticks() -> "tuple[int, int]":
    """(stolen, total) CPU ticks of the whole host since boot."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def _descendants(pid: int) -> "list[int]":
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                children = [int(c) for c in fh.read().split()]
        except OSError:
            continue
        for child in children:
            found += [child, *_descendants(child)]
    return found


def rss_peak_mb() -> float:
    """Peak resident set of this process plus its live worker processes."""
    total_kb = 0
    for pid in [os.getpid(), *_descendants(os.getpid())]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def host_context() -> dict:
    status = native_binding.status()
    compiler = status.get("compiler")
    version = None
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True, text=True, timeout=30)
        version = proc.stdout.splitlines()[0] if proc.stdout else None
    blas = status.get("blas") or {}
    return {
        "effective_cpus": effective_cpus(),
        "compiler": compiler,
        "compiler_version": version,
        "numpy": np.__version__,
        "blas": os.path.basename(blas["path"]) if blas.get("path") else blas.get("error"),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def cache_context() -> dict:
    native_dir = Path(toolchain.cache_root()) / "native"
    so_files = list(native_dir.glob("*.so")) if native_dir.is_dir() else []
    return {"cache_dir": toolchain.cache_root(), "so_compiled": len(so_files)}


# -- main ------------------------------------------------------------------------


def emit(tag: str, payload=None) -> None:
    line = f"PERFBENCH {tag}" + ("" if payload is None else " " + json.dumps(payload))
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
    workload = make_workload(args.workload, args.seed, bool(args.trace))
    workload.setup()
    emit("READY")
    try:
        first_ok = workload.check_first()
        if args.setup_only:
            emit("RESULT", {"first_ok": first_ok, **cache_context()})
            return 0
        probe_before = host_probe_ms()
        ticks_before = cpu_ticks()
        result: dict = {"first_ok": first_ok}
        if args.trace:
            untraced = workload.run(args.seconds / 2)
            traced, layers, accounting = workload.run_traced(args.seconds / 2)
            phases = (untraced, traced)
        else:
            untraced = workload.run(args.seconds)
            phases = (untraced,)
        rss = rss_peak_mb()
        ticks_after = cpu_ticks()
        probe_after = host_probe_ms()
        e2e = untraced.end_to_end()
        e2e["rss_peak_mb"] = rss
        result.update(
            attempted=sum(p.attempted for p in phases),
            failed=sum(p.failed for p in phases),
            failures={k: sum(p.failures[k] for p in phases) for k in phases[0].failures},
            end_to_end=e2e,
            samples=len(untraced.lats_s),
            host={**host_context(), "host.probe_ms_before": probe_before,
                  "host.probe_ms_after": probe_after,
                  # Share of CPU time the hypervisor gave to other guests
                  # while this run measured: neighbour load, not the program.
                  "steal_frac": (ticks_after[0] - ticks_before[0])
                  / max(1, ticks_after[1] - ticks_before[1])},
            detail=workload.context(),
            **cache_context(),
        )
        if args.trace:
            traced_e2e = traced.end_to_end()
            traced_p50 = traced_e2e["lat_ms_p50"]
            # The parts are averages or medians over the whole window, so
            # they decompose the whole window's p50.
            whole = (traced_e2e if workload.parts_of_traced else e2e)["lat_ms_p50_run"]
            parts = sum(accounting["parts_ms"].values())
            layers.update(
                {
                    "native.so_compiled": result["so_compiled"],
                    "host.probe_ms": statistics.fmean([probe_before, probe_after]),
                    "lat_ms_p99": e2e["lat_ms_p99"],
                    "trace.overhead_ms": traced_p50 - e2e["lat_ms_p50"],
                    "trace.accounted_frac": parts / whole,
                }
            )
            result["layers"] = layers
            result["accounting"] = {
                **accounting,
                "traced_lat_ms_p50": traced_p50,
                "untraced_lat_ms_p50": e2e["lat_ms_p50"],
                "parts_decompose": "traced" if workload.parts_of_traced else "untraced",
                "decomposed_lat_ms_p50": whole,
                "unaccounted_ms": whole - parts,
                "tolerance": ACCOUNTING_TOLERANCE,
                "within_tolerance": bool(abs(1.0 - parts / whole) <= ACCOUNTING_TOLERANCE),
            }
        emit("RESULT", result)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
