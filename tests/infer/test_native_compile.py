"""Native kernels compile concurrently at bind and are waited for at first call.

A traced program starts every uncached kernel's compiler while it binds
(at most ``toolchain._max_in_flight()`` at once) and each kernel waits for
its own compile at its first call.  These tests run hermetically: a private
``REPRO_CACHE_DIR`` and a ``$CC`` wrapper script that logs each compile's
start and end time, then runs the real compiler.
"""

from __future__ import annotations

import os
import stat
import sys
import threading
import time

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, kernels
from repro.infer.native import binding, toolchain
from repro.serve.registry import ModelRegistry
from repro.utils.cpu import effective_cpus

from tests.infer.conftest import build_small_network, sample_images

try:
    REAL_CC = toolchain.find_compiler()
except toolchain.NativeUnavailable:
    REAL_CC = None

pytestmark = pytest.mark.skipif(REAL_CC is None, reason="no C toolchain on this host")

_WRAPPER = """#!/bin/sh
src=""
for a in "$@"; do case "$a" in *.c) src=$(basename "$a");; esac; done
echo "S $$ $(date +%s.%N) $src" >> {log}
{before}
{cc} "$@"
rc=$?
echo "E $$ $(date +%s.%N) $src" >> {log}
exit $rc
"""


@pytest.fixture
def make_cc(monkeypatch, tmp_path):
    """Point ``$CC`` at a logging wrapper and the caches at ``tmp_path``.

    ``make_cc(before)`` installs the wrapper, running the shell line
    ``before`` ahead of the real compiler; it returns a function reading
    the log as ``{kernel source name: [(start, end), ...]}`` (the
    ``-march=native`` probe's ``p.c`` is left out).
    """
    log = tmp_path / "cc.log"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def install(before: str = ""):
        path = tmp_path / "cc-wrapper"
        path.write_text(_WRAPPER.format(log=log, before=before, cc=REAL_CC))
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("CC", str(path))
        binding.reset()
        kernels.clear_caches()
        return lambda: _read_log(log)

    yield install
    binding.reset()
    kernels.clear_caches()


def _read_log(log) -> dict:
    starts, compiles = {}, {}
    for line in log.read_text().splitlines() if log.exists() else []:
        tag, pid, at, src = line.split(" ", 3)
        # The key, without mkstemp's per-compile suffix.
        name = src.split("-")[0]
        if not name.startswith("k"):
            continue
        if tag == "S":
            starts[pid] = float(at)
        else:
            compiles.setdefault(name, []).append((starts.pop(pid), float(at)))
    assert not starts, f"compiles that never ended: {starts}"
    return compiles


def _max_overlap(intervals) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    most = now = 0
    for _, step in events:
        now += step
        most = max(most, now)
    return most


def _overlaps(a, b) -> bool:
    return any(s1 < e2 and s2 < e1 for s1, e1 in a for s2, e2 in b)


def _native_counts(engine) -> dict:
    counts: dict[str, int] = {}
    for prog in engine.plan._traced.values():
        for name, n in prog.backend_counts().items():
            counts[name] = counts.get(name, 0) + n
    return counts


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- (a) compiles overlap, within the bound ----------------------------------


class TestInFlight:
    def test_cold_program_compiles_concurrently_within_the_bound(self, make_cc):
        read = make_cc()
        engine = InferenceEngine(build_small_network(4))
        engine.predict_logits(sample_images(3))
        compiles = read()
        assert len(compiles) >= 4, compiles
        intervals = [iv for ivs in compiles.values() for iv in ivs]
        bound = toolchain._max_in_flight()
        assert 1 < _max_overlap(intervals) <= bound
        status = engine.plan_summary()["native"]
        assert 1 < status["max_in_flight"] <= bound
        assert status["compiles"] == len(intervals)
        assert status["compile_s"] > 0
        assert status["decline_reasons"] == {}

    def test_starting_past_the_bound_waits_for_a_free_slot(self, make_cc, monkeypatch):
        monkeypatch.setattr(toolchain, "_max_in_flight", lambda: 2)
        read = make_cc()
        engine = InferenceEngine(build_small_network(4))
        engine.predict_logits(sample_images(3))
        intervals = [iv for ivs in read().values() for iv in ivs]
        assert len(intervals) > 2
        assert _max_overlap(intervals) == 2
        assert binding.status()["max_in_flight"] == 2


# -- (b) threads share compiles, and never wait behind each other's ----------


class TestThreads:
    def test_same_program_compiles_each_source_once(self, make_cc):
        """More binding threads than CPUs, switching often: every source
        compiles once and the compile counters lose no update."""
        read = make_cc()
        engine = InferenceEngine(build_small_network(4))
        images = sample_images(3)
        n = 2 * effective_cpus() + 1
        barrier = threading.Barrier(n)
        got = [None] * n

        def bind(i: int) -> None:
            barrier.wait()
            got[i] = engine.predict_logits(images)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=bind, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        compiles = read()
        assert compiles and all(len(ivs) == 1 for ivs in compiles.values()), compiles
        assert binding.status()["compiles"] == len(compiles)
        assert all(_same_bytes(g, got[0]) for g in got)

    def test_different_programs_overlap_their_compiles(self, make_cc, monkeypatch):
        read = make_cc()
        started: dict[str, int] = {}
        real_start = toolchain.start_compile

        def start(source):
            job = real_start(source)
            started.setdefault(os.path.basename(job.so_path)[:-3], threading.get_ident())
            return job

        monkeypatch.setattr(toolchain, "start_compile", start)
        engines = [
            InferenceEngine(build_small_network(4)),
            InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8")),
        ]
        images = sample_images(3)
        barrier = threading.Barrier(2)

        def bind(engine) -> None:
            barrier.wait()
            engine.predict_logits(images)

        threads = [threading.Thread(target=bind, args=(e,)) for e in engines]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        compiles = read()
        by_thread: dict[int, list] = {}
        for name, ivs in compiles.items():
            by_thread.setdefault(started[name], []).extend(ivs)
        assert len(by_thread) == 2, by_thread.keys()
        first, second = by_thread.values()
        assert _overlaps(first, second)


# -- (c) a compile that fails after starting declines at the first call -------


class TestFailedCompile:
    @pytest.mark.parametrize("dtype", ["float", "int8"])
    def test_failure_found_at_first_call_serves_numpy(self, make_cc, dtype):
        # The -march=native probe (p.c) compiles; every kernel source fails.
        make_cc('case "$src" in k*) echo "kernel rejected" >&2; exit 1;; esac')
        model = build_small_network(4)
        images = sample_images(4, seed=3)
        engine = InferenceEngine(model, config=PlanConfig(dtype=dtype))
        got = engine.predict_logits(images)
        status = binding.status()
        assert status["available"] is True
        want = InferenceEngine(
            model, config=PlanConfig(dtype=dtype, backend="numpy")
        ).predict_logits(images)
        assert _same_bytes(got, want)
        assert status["check_failures"] == 0
        assert status["compiles"] > 0
        reasons = status["decline_reasons"]
        assert reasons and all(key.endswith("/compile") for key in reasons), reasons
        assert status["declined"] == sum(reasons.values())
        assert ("intconv/compile" in reasons) == (dtype == "int8")
        assert ("conv/compile" in reasons) == (dtype == "float")
        # The counters reach /metrics through the plan summary.
        registry = ModelRegistry()
        registry.register("m", engine=engine)
        served = registry.metrics_snapshot()["m"]["plan"]["native"]
        assert served["decline_reasons"] == reasons
        assert served["compiles"] == status["compiles"]
        assert _native_counts(engine).get("native", 0) == 0
        assert not any(
            rec.get("native_check_failed")
            for prog in engine.plan._traced.values()
            for rec in prog.node_backends.values()
        )


# -- (d) a process forked mid-compile binds on its own ------------------------


class TestFork:
    def test_child_forked_while_compiles_pend_serves_correctly(self, make_cc):
        read = make_cc("sleep 0.3")
        model = build_small_network(4)
        images = sample_images(3, seed=4)
        want = InferenceEngine(model, config=PlanConfig(backend="numpy")).predict_logits(images)
        engine = InferenceEngine(model)
        program = engine.plan.traced_program(images.shape)
        program._bind({})  # starts every compile; none has finished yet
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            ok = False
            try:
                got = engine.predict_logits(images)
                status = binding.status()
                ok = (
                    _same_bytes(got, want)
                    and status["check_failures"] == 0
                    and status["declined"] == 0
                    and _native_counts(engine).get("native", 0) > 0
                )
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 120
        while True:
            done, code = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(code) == 0
        assert _same_bytes(engine.predict_logits(images), want)
        assert binding.status()["check_failures"] == 0
        assert read()


# -- (e) a cold engine serves the bytes a warm one does -----------------------


CONFIGS = [PlanConfig(), PlanConfig(dtype="int8")]


@pytest.mark.parametrize("network_id", range(1, 9))
def test_cold_logits_equal_warm(monkeypatch, tmp_path, network_id):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    binding.reset()
    kernels.clear_caches()
    try:
        model = build_small_network(network_id)
        images = sample_images(5, seed=network_id)
        for config in CONFIGS:
            before = binding.status()["compiles"]
            cold = InferenceEngine(model, config=config).predict_logits(images)
            compiled = binding.status()["compiles"] - before
            kernels.clear_caches()  # in-process caches only; the .so files stay
            warm_engine = InferenceEngine(model, config=config)
            warm = warm_engine.predict_logits(images)
            assert binding.status()["compiles"] == before + compiled, config
            assert _same_bytes(cold, warm), config
            assert _native_counts(warm_engine).get("native", 0) > 0
        assert binding.status()["compiles"] > 0
        assert binding.status()["check_failures"] == 0
    finally:
        binding.reset()
        kernels.clear_caches()
