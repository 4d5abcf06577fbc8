"""Chaos drills for the supervised serving cluster (``chaos`` marker).

Every drill injects a deterministic fault (:mod:`repro.testing.faults`) into
a real multi-process pool and asserts the recovery invariants: **zero
dropped accepted requests**, **bitwise-identical logits across worker
restarts**, and a circuit breaker that walks trip → open → half-open →
recover instead of burning restarts forever.

Excluded from tier-1 (see ``pytest.ini``); run by the serve-chaos CI job
with per-test SIGALRM watchdogs so a wedged pool aborts loudly.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import CircuitOpenError
from repro.serve import ClusterConfig, ClusterService
from repro.testing import SharedMemoryCorruptionFault, WorkerCrashFault, WorkerHangFault

from tests.serve.conftest import build_small_network, sample_images

pytestmark = pytest.mark.chaos

FAST = dict(heartbeat_interval_s=0.05, restart_backoff_base_s=0.01, dispatch_wait_s=0.02)


def _serve(service, images):
    futures = [service.submit(img) for img in images]
    return np.stack([f.result(timeout=30) for f in futures])


def _await_state(breaker, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while breaker.state != state:
        if time.monotonic() > deadline:
            raise AssertionError(f"breaker never reached {state!r} (at {breaker.state!r})")
        time.sleep(0.02)


@pytest.mark.timeout(120)
def test_worker_crash_drops_nothing_and_restart_is_bitwise():
    """A SIGSEGV-style worker death mid-stream loses no accepted request,
    and the restarted worker serves bitwise-identical logits."""
    model = build_small_network(4)
    crash = WorkerCrashFault(on_request=3, fires=1)
    service = ClusterService(ClusterConfig(workers=2, chaos=(crash,), **FAST))
    entry = service.register("net4", model)
    service.start()
    try:
        images = sample_images(12, seed=51)
        expected = entry.engine.predict_logits(images)
        got = _serve(service, images)  # the crash strikes mid-stream
        np.testing.assert_array_equal(got, expected)
        assert crash.armed == 1
        # the same input after the restart reproduces its pre-crash logits
        replay = service.submit(images[0]).result(timeout=30)
        np.testing.assert_array_equal(replay, expected[0])
        lifecycle = service.metrics_snapshot()["net4"]["workers_lifecycle"]
        assert lifecycle["deaths"] == 1
        assert lifecycle["redispatched"] >= 1  # the in-flight victim was re-run
        # the monitor replaces the dead slot on its next tick (post-backoff)
        deadline = time.monotonic() + 10.0
        while service.metrics_snapshot()["net4"]["workers_lifecycle"]["restarts"] < 1:
            assert time.monotonic() < deadline, "dead worker slot was never respawned"
            time.sleep(0.02)
        while entry.supervisor.snapshot()["alive"] < 2:
            assert time.monotonic() < deadline, "pool never returned to full strength"
            time.sleep(0.02)
    finally:
        service.stop()


@pytest.mark.timeout(120)
def test_wedged_worker_is_detected_by_heartbeat_and_replaced():
    """A worker that stops answering (deadlock) is caught by the pong
    timeout, killed, and its in-flight request re-dispatched — the caller
    just sees correct logits, slower."""
    model = build_small_network(4)
    hang = WorkerHangFault(on_request=2, fires=1, hang_s=3600.0)
    service = ClusterService(
        ClusterConfig(workers=2, heartbeat_timeout_s=0.4, chaos=(hang,), **FAST)
    )
    entry = service.register("net4", model)
    service.start()
    try:
        images = sample_images(8, seed=52)
        got = _serve(service, images)
        np.testing.assert_array_equal(got, entry.engine.predict_logits(images))
        assert hang.armed == 1
        assert service.metrics_snapshot()["net4"]["workers_lifecycle"]["deaths"] == 1
    finally:
        service.stop()


@pytest.mark.timeout(120)
def test_breaker_trips_probes_half_open_and_recovers():
    """A crash loop exhausts the restart budget: the breaker opens (fast
    rejects with retry-after), half-opens after ``breaker_open_s``, and one
    successful probe restores the pool.  The request queued at trip time is
    served — accepted work survives even a breaker trip."""
    model = build_small_network(2)
    crash = WorkerCrashFault(on_request=2, fires=2)
    service = ClusterService(
        ClusterConfig(
            workers=1,
            restart_budget=1,
            breaker_open_s=0.5,
            chaos=(crash,),
            **FAST,
        )
    )
    entry = service.register("net2", model)
    breaker = entry.breaker
    service.start()
    try:
        images = sample_images(5, seed=53)
        expected = entry.engine.predict_logits(images)
        np.testing.assert_array_equal(
            service.submit(images[0]).result(timeout=30), expected[0]
        )
        # requests 2 and 3 each land on a worker's second predict → two
        # deaths; budget 1 → the second death trips the breaker with the
        # victim request still queued
        survivors = [service.submit(img) for img in images[1:3]]
        _await_state(breaker, "open")
        with pytest.raises(CircuitOpenError) as info:
            while True:  # the open window is short; hit it before it ends
                service.submit(images[3])
        assert info.value.retry_after_s <= 0.5
        # half-open probe serves the queued victim and closes the breaker
        got = np.stack([f.result(timeout=30) for f in survivors])
        np.testing.assert_array_equal(got, expected[1:3])
        _await_state(breaker, "closed")
        assert breaker.trips == 1
        # post-recovery serving is bitwise again
        np.testing.assert_array_equal(
            service.submit(images[4]).result(timeout=30), expected[4]
        )
    finally:
        service.stop()


@pytest.mark.timeout(120)
def test_corrupted_shared_memory_is_refused_then_republish_recovers():
    """Corrupted plan pages must never serve: respawning workers refuse the
    segment (checksum) and die fatal until the breaker opens; republishing a
    clean generation via refresh() lets the half-open probe recover."""
    model = build_small_network(2)
    service = ClusterService(
        ClusterConfig(workers=1, restart_budget=1, breaker_open_s=0.4, **FAST)
    )
    entry = service.register("net2", model)
    service.start()
    try:
        images = sample_images(2, seed=54)
        expected = entry.engine.predict_logits(images)
        np.testing.assert_array_equal(
            service.submit(images[0]).result(timeout=30), expected[0]
        )
        # poison the live generation, then kill the only worker: every
        # respawn attaches the corrupted pages, refuses them, and exits
        fault = SharedMemoryCorruptionFault(flips=16, seed=9)
        fault.apply(entry.store.current.handle)
        entry.supervisor.alive_workers()[0].process.kill()
        _await_state(entry.breaker, "open", timeout=20.0)
        assert service.metrics_snapshot()["net2"]["workers_lifecycle"]["deaths"] >= 2

        # republish clean pages (weights unchanged) — the next half-open
        # probe attaches generation 2 and serving resumes bitwise
        service.refresh("net2")
        _await_state(entry.breaker, "half_open")  # open window must lapse first
        np.testing.assert_array_equal(
            service.submit(images[1]).result(timeout=30), expected[1]
        )
        _await_state(entry.breaker, "closed")
        assert entry.store.current.generation == 2
    finally:
        service.stop()
