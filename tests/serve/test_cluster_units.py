"""Deterministic unit tests for the cluster's control-plane pieces.

Everything here runs single-process against injected fake clocks: circuit
breaker lifecycle, the router's admission (shape check, queue bound,
deadlines, pause, requeue, stop, breaker shed) against a fake supervisor,
config validation and the generational plan store.  The multi-process integration and chaos
drills live in ``test_cluster.py`` / ``test_cluster_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ClusterError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from repro.infer import PlanConfig
from repro.serve.cluster import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ClusterConfig,
    ClusterRouter,
    ShmPlanStore,
)
from repro.serve.metrics import ClusterMetrics


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestCircuitBreaker:
    def test_trips_only_past_budget_within_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=2, window_s=10.0, clock=clock)
        assert breaker.record_restart() is False
        assert breaker.record_restart() is False
        assert breaker.state == CLOSED and breaker.allow()
        assert breaker.record_restart() is True  # third death in window
        assert breaker.state == OPEN and breaker.trips == 1

    def test_window_expiry_forgives_old_deaths(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=1, window_s=5.0, clock=clock)
        breaker.record_restart()
        clock.advance(6.0)  # first death ages out of the window
        assert breaker.record_restart() is False
        assert breaker.restarts_in_window() == 1

    def test_open_rejects_with_countdown_then_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=1, window_s=30.0, open_s=2.0, clock=clock)
        breaker.record_restart(), breaker.record_restart()
        assert breaker.state == OPEN
        assert not breaker.allow() and breaker.rejections == 1
        clock.advance(1.5)
        assert breaker.retry_after_s() == pytest.approx(0.5)
        clock.advance(0.5)
        assert breaker.state == HALF_OPEN
        assert breaker.allow() and breaker.retry_after_s() == 0.0

    def test_probe_successes_close_and_clear_the_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            restart_budget=1, window_s=30.0, open_s=1.0, half_open_probes=2, clock=clock
        )
        breaker.record_restart(), breaker.record_restart()
        clock.advance(1.0)
        breaker.record_result(True)
        assert breaker.state == HALF_OPEN  # one of two probes in
        breaker.record_result(True)
        assert breaker.state == CLOSED
        assert breaker.restarts_in_window() == 0  # fresh budget after recovery

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=1, window_s=30.0, open_s=1.0, clock=clock)
        breaker.record_restart(), breaker.record_restart()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        breaker.record_result(False)
        assert breaker.state == OPEN and breaker.trips == 2

    def test_death_during_half_open_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=1, window_s=30.0, open_s=1.0, clock=clock)
        breaker.record_restart(), breaker.record_restart()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.record_restart() is True  # probe worker died
        assert breaker.state == OPEN

    def test_results_ignored_while_closed(self):
        breaker = CircuitBreaker(clock=FakeClock())
        breaker.record_result(False)
        assert breaker.state == CLOSED

    def test_snapshot_shape(self):
        snap = CircuitBreaker(clock=FakeClock()).snapshot()
        assert snap["state"] == CLOSED
        assert set(snap) >= {"trips", "rejections", "restarts_in_window", "retry_after_s"}


class TestClusterRouter:
    def test_queue_bound_sheds_in_fifo_order(self):
        """The router is never started, so nothing dispatches and the queue
        holds exactly what it admitted."""
        config = ClusterConfig(queue_depth=2)
        breaker = CircuitBreaker(clock=FakeClock())
        router = ClusterRouter("m", config, None, breaker, ClusterMetrics(), clock=FakeClock())
        images = [np.full((3, 4, 4), float(i)) for i in range(3)]
        router.submit(images[0])
        router.submit(images[1])
        with pytest.raises(QueueFullError):
            router.submit(images[2])
        assert [r.image[0, 0, 0] for r in router._queue] == [0.0, 1.0]
        requests = router.metrics.snapshot()["requests"]
        assert (requests["offered"], requests["accepted"], requests["shed"]) == (3, 2, 1)


class FakeWorker:
    """Records what the router sends; never answers."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight: dict = {}
        self.sent: list = []

    def send(self, msg: tuple) -> None:
        self.sent.append(msg)


class FakeSupervisor:
    """``pick_worker`` over fake workers, each taking up to ``capacity``."""

    def __init__(self, *workers: FakeWorker, capacity: int = 4) -> None:
        self.workers = workers
        self.capacity = capacity

    def pick_worker(self):
        return next((w for w in self.workers if len(w.inflight) < self.capacity), None)


def _await(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _image(value: float) -> np.ndarray:
    return np.full((3, 4, 4), value)


class TestRouterAdmission:
    """The router admits through the same queue as the micro-batcher
    (``test_batcher.py``); these cases drive it with a fake supervisor."""

    def _router(self, *workers, config=None, breaker=None, clock=None, **kwargs):
        clock = clock or FakeClock()
        return ClusterRouter(
            "m",
            config or ClusterConfig(dispatch_wait_s=0.01),
            FakeSupervisor(*workers),
            breaker or CircuitBreaker(clock=clock),
            ClusterMetrics(),
            clock=clock,
            **kwargs,
        )

    def _requests(self, router) -> tuple:
        snap = router.metrics.snapshot()["requests"]
        return snap["offered"], snap["accepted"], snap["shed"]

    def test_bad_shapes_raise_before_anything_is_queued(self):
        router = self._router(image_shape=(3, 4, 4))
        for bad in (np.zeros((1, 3, 4, 4)), np.zeros((4, 4)), np.zeros((3, 8, 8))):
            with pytest.raises(ShapeError):
                router.submit(bad)
        assert router.queue_depth == 0 and self._requests(router) == (0, 0, 0)
        # Unpinned, the first accepted image pins the shape.
        router = self._router()
        router.submit(_image(0.0))
        with pytest.raises(ShapeError):
            router.submit(np.zeros((3, 8, 8)))
        assert router.queue_depth == 1 and self._requests(router) == (1, 1, 0)

    def test_expired_request_never_reaches_a_worker(self):
        worker, clock = FakeWorker(), FakeClock()
        router = self._router(worker, clock=clock)
        router.start()
        try:
            router.pause()
            late = router.submit(_image(0.0), deadline_s=1.0)
            on_time = router.submit(_image(1.0), deadline_s=5.0)
            clock.advance(2.0)
            router.resume()
            with pytest.raises(DeadlineExceededError):
                late.result(timeout=5)
            _await(lambda: len(worker.sent) == 1)
            assert worker.sent[0][2][0, 0, 0, 0] == 1.0
            assert not on_time.done()
            assert router.metrics.snapshot()["requests"]["expired"] == 1
        finally:
            router.stop(drain=False)

    def test_stop_without_drain_fails_queued_futures(self):
        router = self._router(FakeWorker())
        router.start()
        router.pause()
        futures = [router.submit(_image(float(i))) for i in range(3)]
        router.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosedError):
                future.result(timeout=0)
        assert router.metrics.snapshot()["requests"]["cancelled"] == 3
        with pytest.raises(ServerClosedError):
            router.submit(_image(3.0))
        assert self._requests(router) == (4, 3, 1)

    def test_stop_without_drain_fails_requests_parked_for_a_worker(self):
        """No worker has capacity, so the dispatcher keeps parking the head
        request back on the queue; a stop must still fail every future."""
        router = self._router()  # a supervisor with no workers at all
        router.start()
        futures = [router.submit(_image(float(i))) for i in range(3)]
        time.sleep(0.05)  # let the dispatcher park the head a few times
        router.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosedError):
                future.result(timeout=0)

    def test_pause_holds_dispatch_and_resume_releases_it(self):
        worker = FakeWorker()
        router = self._router(worker)
        router.start()
        try:
            router.pause()
            router.submit(_image(0.0))
            router.submit(_image(1.0))
            time.sleep(0.1)
            assert worker.sent == [] and router.queue_depth == 2
            router.resume()
            _await(lambda: len(worker.sent) == 2)
            assert [msg[2][0, 0, 0, 0] for msg in worker.sent] == [0.0, 1.0]
            assert router.queue_depth == 0
        finally:
            router.stop(drain=False)

    def test_requeue_goes_to_the_front_in_original_order(self):
        worker = FakeWorker()
        router = self._router(worker)
        router.start()
        try:
            router.submit(_image(0.0))
            router.submit(_image(1.0))
            _await(lambda: len(worker.inflight) == 2)
            router.pause()
            router.submit(_image(2.0))
            with worker.lock:  # what the supervisor does when a worker dies
                lost = list(worker.inflight.values())
                worker.inflight.clear()
            router.requeue(lost)
            assert [r.image[0, 0, 0] for r in router._queue] == [0.0, 1.0, 2.0]
            assert router.metrics.redispatched.value == 2
        finally:
            router.stop(drain=False)

    def test_breaker_shed_counts_in_offered_equals_accepted_plus_shed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(restart_budget=1, open_s=1.0, clock=clock)
        breaker.record_restart(), breaker.record_restart()
        router = self._router(breaker=breaker, clock=clock)
        with pytest.raises(CircuitOpenError) as info:
            router.submit(_image(0.0))
        assert info.value.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)  # half-open admits the probe
        router.submit(_image(1.0))
        assert self._requests(router) == (2, 1, 1)
        assert router.queue_depth == 1


class TestClusterConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"start_method": "forkserver"},
            {"queue_depth": 0},
            {"max_inflight_per_worker": 0},
            {"request_retries": -1},
            {"heartbeat_timeout_s": 0.0},
            {"restart_budget": 0},
            {"breaker_half_open_probes": 0},
            {"dispatch_wait_s": 0.0},
            {"restart_backoff_max_s": -1.0},
            {"shm_min_bytes": -1},
            {"service_delay_s": -0.1},
        ],
    )
    def test_rejects_invalid_values(self, overrides):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**overrides)

    def test_defaults_are_valid_and_frozen(self):
        config = ClusterConfig()
        assert config.workers == 2 and config.chaos == ()
        with pytest.raises(AttributeError):
            config.workers = 4


class TestShmPlanStore:
    def _payload(self, fill: float):
        return {"ops": [], "out_slot": 0, "dtype": np.dtype(np.float64),
                "intq": None, "weights": np.full(2048, fill)}

    def test_generations_increment_and_previous_stays_alive(self):
        store = ShmPlanStore()
        try:
            first = store.publish(self._payload(1.0))
            second = store.publish(self._payload(2.0))
            assert (first.generation, second.generation) == (1, 2)
            assert store.current is second
            # the superseded segment is queued, not unlinked: attach still works
            from repro.utils.shm import load_object

            obj, seg = load_object(first.handle)
            assert obj["weights"][0] == 1.0
            seg.close()
        finally:
            store.close()

    def test_retire_unlinks_only_superseded_generations(self):
        store = ShmPlanStore()
        try:
            first = store.publish(self._payload(1.0))
            store.publish(self._payload(2.0))
            store.retire(first.generation)
            from repro.errors import SharedMemoryError
            from repro.utils.shm import load_object

            with pytest.raises(SharedMemoryError, match="missing"):
                load_object(first.handle)
            obj, seg = load_object(store.current.handle)
            assert obj["weights"][0] == 2.0
            seg.close()
        finally:
            store.close()

    def test_empty_publish_and_closed_store_raise(self):
        store = ShmPlanStore()
        with pytest.raises(ClusterError, match="empty"):
            store.publish({})
        store.close()
        with pytest.raises(ClusterError, match="closed"):
            store.publish(self._payload(0.0))


class TestWorkerProgram:
    """The worker's float program checks each new batch shape before the
    interpreter runs it (the ``http_cluster`` model: net 4, 16 px)."""

    def _program(self):
        from repro.infer import compile_network
        from repro.serve.cluster.worker import _Program

        from tests.infer.conftest import build_small_network

        self.model = build_small_network(4)
        return _Program(compile_network(self.model, config=PlanConfig(trace=False)).payload())

    @pytest.mark.parametrize("shape", [(1, 3, 2, 2), (1, 4, 16, 16), (3, 16, 16)])
    def test_unrunnable_shape_raises_shape_error(self, shape):
        program = self._program()
        with pytest.raises(ShapeError):
            program.run(np.ones(shape))
        assert shape not in program.shapes

    def test_runnable_shape_is_checked_once_and_matches_the_engine(self, monkeypatch):
        from repro.infer import InferenceEngine
        from repro.serve.cluster import worker

        program = self._program()
        images = np.random.default_rng(0).normal(size=(2, 3, 16, 16))
        calls = []
        real = worker.trace_plan
        monkeypatch.setattr(worker, "trace_plan", lambda *a: calls.append(a[1]) or real(*a))
        first = program.run(images).copy()
        second = program.run(images).copy()
        assert calls == [images.shape]
        want = InferenceEngine(self.model, config=PlanConfig(trace=False)).predict_logits(images)
        assert first.tobytes() == second.tobytes() == want.tobytes()
