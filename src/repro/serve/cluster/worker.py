"""Worker process entry point for the supervised serving cluster.

Each worker attaches the model's shared-memory plan generation (checksum
verified), builds a private :class:`~repro.infer.plan.ExecutionContext`
for it, and then serves a simple serial message loop over its pipe to the
supervisor:

========================  ============================================
parent → worker           worker → parent
========================  ============================================
``("predict", id, x)``     ``("ok", id, logits)`` / ``("error", id, msg)``
``("ping", token)``        ``("pong", token, served)``
``("reload", gen, h)``     ``("reloaded", gen)``
``("stop",)``              *(exits)*
========================  ============================================

A worker that cannot attach or verify its plan segment sends
``("fatal", reason)`` and exits — the supervisor counts that against the
restart budget rather than retrying forever against a poisoned segment.

Chaos directives (armed by the fault injectors in
:mod:`repro.testing.faults`) are plain dicts checked at each predict, so
crash/hang schedules survive the trip through ``fork``/``spawn`` and fire
deterministically.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.infer.plan import ExecutionContext, ExecutionPlan, execute_ops
from repro.infer.trace import trace_plan
from repro.utils.shm import load_object

__all__ = ["worker_main"]


class _Program:
    """The published plan bound to this worker's private scratch context.

    An int8 plan runs traced, as in the engine (it has no interpreter); a
    float plan runs op by op through :func:`execute_ops`, which checks no
    shapes.  So each new float batch shape is first traced symbolically
    (:func:`~repro.infer.trace.trace_plan`, which compiles nothing): a
    shape the plan cannot run raises :class:`~repro.errors.ShapeError`,
    and the shapes that pass are remembered.
    """

    def __init__(self, payload: dict) -> None:
        self.plan = ExecutionPlan(
            payload["ops"], payload["out_slot"], [], payload["dtype"], config=payload["config"]
        )
        self.plan.intq = payload["intq"]
        self.ctx = ExecutionContext()
        self.shapes: set = set()

    def run(self, images: np.ndarray) -> np.ndarray:
        plan = self.plan
        if plan.intq is not None:
            return plan.execute(images, self.ctx)
        if images.shape not in self.shapes:
            trace_plan(plan, images.shape)
            self.shapes.add(images.shape)
        return execute_ops(plan.ops, images, self.ctx, plan.out_slot, plan.dtype)


def _load_program(handle) -> "tuple[_Program, object]":
    payload, segment = load_object(handle)
    return _Program(payload), segment


def _exit_fatal(conn, reason: str) -> None:
    try:
        conn.send(("fatal", reason))
        conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - parent already gone
        pass
    os._exit(1)


def worker_main(
    slot: int,
    conn,
    handle,
    chaos: tuple = (),
    service_delay_s: float = 0.0,
) -> None:
    """Run one worker's serve loop until ``stop`` or parent disappearance.

    Args:
        slot: Stable pool-slot index (workers are addressed by slot; the
            process behind a slot changes across restarts).
        conn: This worker's end of the supervisor pipe.
        handle: :class:`~repro.utils.shm.ShmHandle` of the current plan
            generation.
        chaos: Armed chaos directives (dicts) for deterministic fault drills.
        service_delay_s: Artificial per-request service time (accelerator
            offload model; see :class:`~repro.serve.cluster.config.ClusterConfig`).
    """
    # The supervisor owns shutdown via the pipe; a terminal ^C must not kill
    # workers before the server has drained.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        program, segment = _load_program(handle)
    except Exception as exc:
        _exit_fatal(conn, f"{type(exc).__name__}: {exc}")
        return  # pragma: no cover - _exit_fatal does not return
    conn.send(("ready", os.getpid()))
    served = 0
    directives = [dict(d) for d in chaos]
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        kind = msg[0]
        if kind == "stop":
            try:
                conn.close()
            finally:
                os._exit(0)
        elif kind == "ping":
            conn.send(("pong", msg[1], served))
        elif kind == "reload":
            _, generation, new_handle = msg
            try:
                program, new_segment = _load_program(new_handle)
            except Exception as exc:
                _exit_fatal(conn, f"{type(exc).__name__}: {exc}")
                return  # pragma: no cover
            try:
                segment.close()
            except BufferError:  # pragma: no cover - stray view pins buffer
                pass
            segment = new_segment
            conn.send(("reloaded", generation))
        elif kind == "predict":
            _, req_id, images = msg
            served += 1
            for directive in directives:
                if directive.get("_fired") or served < int(directive.get("on_request", 1)):
                    continue
                directive["_fired"] = True
                if directive["kind"] == "crash":
                    os._exit(int(directive.get("exit_code", 9)))
                elif directive["kind"] == "hang":
                    time.sleep(float(directive.get("hang_s", 3600.0)))
            try:
                if service_delay_s > 0:
                    time.sleep(service_delay_s)
                out = np.array(program.run(np.asarray(images)), copy=True)
            except Exception as exc:
                conn.send(("error", req_id, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", req_id, out))
        else:
            conn.send(("error", None, f"unknown message kind {kind!r}"))
