"""Worker-pool supervisor: spawn, heartbeat, restart, reload.

One :class:`WorkerSupervisor` owns a model's pool of worker *processes*
(entry point :func:`~repro.serve.cluster.worker.worker_main`).  It:

* spawns workers with the current shared-memory plan generation and waits
  for each to attach, verify, and report ready;
* heartbeats every worker (``ping``/``pong``) and declares one *wedged*
  when its last pong is older than ``heartbeat_timeout_s`` — wedged workers
  are killed, crashed workers are detected by pipe EOF / process exit, and
  both paths converge on :meth:`_note_down`;
* on a death: re-queues the worker's in-flight requests at the front of
  the router's queue (zero accepted requests are dropped), records the
  death against the model's
  :class:`~repro.serve.cluster.breaker.CircuitBreaker`, and
  schedules a replacement with exponential backoff — unless the breaker is
  open, in which case the pool stays down until the half-open window admits
  a single probe worker;
* ships hot weight refreshes: a new plan generation is published first (so
  any restart during the refresh already comes up on it), then every alive
  worker reloads and acks before the old generation is retired.

Threading model: one receiver thread per worker (the only reader of that
worker's pipe), one monitor thread for heartbeats and pool maintenance.
Writes to a worker pipe are serialized by a per-worker send lock.  Lock
order is always ``supervisor lock → router condition``; supervisor methods
are never called while holding the router condition.  The router's queue
counts its own taken-but-unfinished requests, so waiting for an idle pool
(a draining stop) reads queue state only; the per-worker ``inflight`` maps
here serve dispatch balance and crash re-queueing.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time

from repro.errors import ClusterError
from repro.serve.cluster.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.shm_store import ShmPlanStore
from repro.serve.cluster.worker import worker_main
from repro.utils.logging import get_logger

_log = get_logger("serve.cluster.supervisor")

__all__ = ["WorkerHandle", "WorkerSupervisor"]


class WorkerHandle:
    """Supervisor-side state for one pool slot's current process."""

    def __init__(self, slot: int, process, conn, spawned_at: float) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.spawned_at = spawned_at
        self.alive = True
        self.ready = False
        self.fatal: "str | None" = None
        self.pid: "int | None" = None
        self.last_pong = spawned_at
        self.served = 0
        self.up_event = threading.Event()
        self.lock = threading.Lock()  # guards inflight
        self.inflight: dict = {}
        self._send_lock = threading.Lock()

    def send(self, msg: tuple) -> None:
        """Serialized write to the worker pipe (senders span threads)."""
        with self._send_lock:
            self.conn.send(msg)

    def inflight_count(self) -> int:
        with self.lock:
            return len(self.inflight)


class WorkerSupervisor:
    """Supervises one model's worker pool (see module docstring).

    Args:
        name: Model name (log/metrics labelling).
        config: The pool's :class:`ClusterConfig`.
        store: The model's :class:`ShmPlanStore`; its current generation is
            what freshly spawned workers attach.
        breaker: The model's circuit breaker; fed worker deaths and (via
            the receiver threads) probe outcomes.
        metrics: The model's :class:`~repro.serve.metrics.ClusterMetrics`.
        clock: Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        name: str,
        config: ClusterConfig,
        store: ShmPlanStore,
        breaker,
        metrics,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.config = config
        self.store = store
        self.breaker = breaker
        self.metrics = metrics
        self.router = None  # bound via bind() before start()
        self._clock = clock
        self._mp = multiprocessing.get_context(config.start_method)
        self._lock = threading.Lock()
        self._workers: "dict[int, WorkerHandle]" = {}
        self._next_spawn_at: "dict[int, float]" = {}
        self._epoch = itertools.count()
        self._stop_event = threading.Event()
        self._monitor: "threading.Thread | None" = None
        self._reload_cond = threading.Condition()
        self._pending_acks: set = set()

    def bind(self, router) -> None:
        """Wire the router that receives completions and re-queues."""
        self.router = router

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the full pool and wait for every worker to report ready."""
        if self.router is None:
            raise ClusterError("supervisor.bind(router) must be called before start()")
        if self.store.current is None:
            raise ClusterError("no plan generation published; publish before start()")
        self._stop_event.clear()
        handles = [self._spawn(slot) for slot in range(self.config.workers)]
        deadline = self._clock() + self.config.spawn_timeout_s
        for handle in handles:
            handle.up_event.wait(max(0.0, deadline - self._clock()))
            if handle.fatal is not None or not handle.ready:
                reason = handle.fatal or "did not report ready in time"
                self.stop()
                raise ClusterError(f"worker slot {handle.slot} failed to start: {reason}")
        self._monitor = threading.Thread(
            target=self._monitor_loop, name=f"cluster-monitor-{self.name}", daemon=True
        )
        self._monitor.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop the monitor and every worker (graceful, then SIGKILL)."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout_s)
            self._monitor = None
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            if handle.alive:
                try:
                    handle.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = self._clock() + timeout_s
        for handle in handles:
            handle.process.join(timeout=max(0.05, deadline - self._clock()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    # -- spawning --------------------------------------------------------------

    def _spawn(self, slot: int) -> WorkerHandle:
        generation = self.store.current
        directives = []
        for fault in self.config.chaos:
            directive = fault.arm(slot)
            if directive is not None:
                directives.append(directive)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=worker_main,
            args=(slot, child_conn, generation.handle, tuple(directives), self.config.service_delay_s),
            name=f"repro-worker-{self.name}-{slot}-e{next(self._epoch)}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(slot, process, parent_conn, self._clock())
        with self._lock:
            self._workers[slot] = handle
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle,),
            name=f"cluster-recv-{self.name}-{slot}",
            daemon=True,
        )
        receiver.start()
        _log.debug("spawned worker %s slot=%d pid=%s", self.name, slot, process.pid)
        return handle

    def pick_worker(self) -> "WorkerHandle | None":
        """Least-loaded ready worker with spare in-flight capacity."""
        with self._lock:
            handles = [h for h in self._workers.values() if h.alive and h.ready]
        best, best_load = None, None
        for handle in handles:
            load = handle.inflight_count()
            if load >= self.config.max_inflight_per_worker:
                continue
            if best_load is None or load < best_load:
                best, best_load = handle, load
        return best

    def alive_workers(self) -> "list[WorkerHandle]":
        with self._lock:
            return [h for h in self._workers.values() if h.alive]

    # -- receive path ----------------------------------------------------------

    def _receive_loop(self, handle: WorkerHandle) -> None:
        while True:
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "ready":
                handle.pid = msg[1]
                handle.ready = True
                handle.last_pong = self._clock()
                handle.up_event.set()
            elif kind == "pong":
                handle.last_pong = self._clock()
                handle.served = msg[2]
            elif kind == "ok":
                _, req_id, logits = msg
                with handle.lock:
                    request = handle.inflight.pop(req_id, None)
                if request is not None:
                    self.router.complete(request, logits)
                self.breaker.record_result(True)
            elif kind == "error":
                _, req_id, text = msg
                request = None
                if req_id is not None:
                    with handle.lock:
                        request = handle.inflight.pop(req_id, None)
                if request is not None:
                    self.router.fail(request, text)
                self.breaker.record_result(False)
            elif kind == "reloaded":
                with self._reload_cond:
                    self._pending_acks.discard(handle.slot)
                    self._reload_cond.notify_all()
            elif kind == "fatal":
                handle.fatal = msg[1]
                handle.up_event.set()
                _log.error("worker %s slot=%d fatal: %s", self.name, handle.slot, msg[1])
        self._note_down(handle, "pipe closed")

    # -- death and restart -----------------------------------------------------

    def _note_down(self, handle: WorkerHandle, reason: str) -> None:
        """Converge every death path; idempotent per handle."""
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
        handle.up_event.set()
        if handle.process.is_alive():
            handle.process.kill()
        try:
            handle.conn.close()
        except OSError:
            pass
        with handle.lock:
            pending = list(handle.inflight.values())
            handle.inflight.clear()
        with self._reload_cond:
            self._pending_acks.discard(handle.slot)
            self._reload_cond.notify_all()
        self.metrics.record_death()
        if not self._stop_event.is_set():
            tripped = self.breaker.record_restart()
            restarts = self.breaker.restarts_in_window()
            backoff = min(
                self.config.restart_backoff_base_s * (2 ** max(0, restarts - 1)),
                self.config.restart_backoff_max_s,
            )
            with self._lock:
                self._next_spawn_at[handle.slot] = self._clock() + backoff
            if tripped:
                _log.error(
                    "worker %s slot=%d down (%s); restart budget exhausted — breaker OPEN",
                    self.name,
                    handle.slot,
                    reason,
                )
            else:
                _log.warning(
                    "worker %s slot=%d down (%s); %d in-flight re-queued, restart in %.3fs",
                    self.name,
                    handle.slot,
                    reason,
                    len(pending),
                    backoff,
                )
        if pending and self.router is not None:
            self.router.requeue(pending)

    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        while not self._stop_event.wait(interval):
            now = self._clock()
            with self._lock:
                handles = list(self._workers.values())
            for handle in handles:
                if not handle.alive:
                    continue
                if not handle.process.is_alive():
                    self._note_down(handle, f"exited (code {handle.process.exitcode})")
                    continue
                if not handle.ready:
                    if now - handle.spawned_at > self.config.spawn_timeout_s:
                        self._note_down(handle, "spawn timeout")
                    continue
                if now - handle.last_pong > self.config.heartbeat_timeout_s:
                    self._note_down(handle, "wedged (heartbeat timeout)")
                    continue
                try:
                    handle.send(("ping", now))
                except (BrokenPipeError, OSError):
                    self._note_down(handle, "pipe broken")
            self._maintain_pool(now)

    def _maintain_pool(self, now: float) -> None:
        state = self.breaker.state
        if state == OPEN:
            return
        target = 1 if state == HALF_OPEN else self.config.workers
        with self._lock:
            alive = sum(1 for h in self._workers.values() if h.alive)
            spawnable = []
            for slot in range(self.config.workers):
                current = self._workers.get(slot)
                if current is not None and current.alive:
                    continue
                if self._next_spawn_at.get(slot, 0.0) <= now:
                    spawnable.append(slot)
        for slot in spawnable:
            if alive >= target:
                break
            self._spawn(slot)
            alive += 1
            self.metrics.record_restart()
            if state == HALF_OPEN:
                _log.info("worker %s slot=%d respawned as half-open probe", self.name, slot)

    # -- hot refresh -----------------------------------------------------------

    def refresh(self, payload: dict, timeout_s: "float | None" = None) -> int:
        """Publish a new plan generation and reload every alive worker.

        Call with the router paused for an atomic switch: the new
        generation is published *before* any reload is sent, so a worker
        restarting mid-refresh also comes up on it.
        Returns the new generation number once every alive worker acked.

        Raises:
            ClusterError: A worker failed to ack within ``timeout_s``.
        """
        timeout_s = self.config.spawn_timeout_s if timeout_s is None else timeout_s
        generation = self.store.publish(payload)
        targets = self.alive_workers()
        with self._reload_cond:
            self._pending_acks = {h.slot for h in targets}
        for handle in targets:
            try:
                handle.send(("reload", generation.generation, generation.handle))
            except (BrokenPipeError, OSError):
                self._note_down(handle, "pipe broken during reload")
        deadline = self._clock() + timeout_s
        with self._reload_cond:
            while self._pending_acks:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    stragglers = sorted(self._pending_acks)
                    raise ClusterError(
                        f"plan reload generation {generation.generation} not acked by "
                        f"worker slots {stragglers} within {timeout_s:g}s"
                    )
                self._reload_cond.wait(remaining)
        self.store.retire(generation.generation - 1)
        return generation.generation

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready per-worker gauge block for ``/metrics``."""
        with self._lock:
            handles = sorted(self._workers.values(), key=lambda h: h.slot)
        now = self._clock()
        return {
            "workers": [
                {
                    "slot": h.slot,
                    "pid": h.pid,
                    "alive": h.alive,
                    "ready": h.ready,
                    "inflight": h.inflight_count(),
                    "served": h.served,
                    "last_pong_age_s": round(now - h.last_pong, 4) if h.ready else None,
                }
                for h in handles
            ],
            "alive": sum(1 for h in handles if h.alive),
            "configured": self.config.workers,
        }
