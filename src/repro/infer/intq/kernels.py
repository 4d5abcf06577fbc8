"""The int8 program's node kernels, bound by the traced executor.

:class:`~repro.infer.fuse.TracedProgram` binds every node of a traced int8
program through :func:`bind_node`, the integer counterpart of the float
``bind_*`` functions in :mod:`repro.infer.kernels`: a numpy thunk over the
node's prebound register views, generated and cached in
:data:`repro.infer.kernels.KERNEL_CACHE` like the float kernels, and — for
conv, linear, max-pool and the input quantize — the C kernel from
:mod:`repro.infer.native.binding`, wrapped in the same first-call byte
check the float nodes use.  :func:`node_scratch` plans each node's typed
scratch in the program's liveness-shared registers.

Each conv/linear is one integer matmul against the decoded ``w_int``
matrix, then the requantization epilogue.  The paper's shift-accumulate
datapath is hardware; its shift/add counts come from the packed codes
(:mod:`repro.infer.intq.pack`) and feed :mod:`repro.hw` through the intq
summary, so no host kernel needs to execute the shifts.

The epilogue: the per-channel multiplier+shift requantization
(:mod:`repro.infer.intq.requant`) brings the accumulator onto the layer's
calibrated output grid, then the folded bias (``GB``) and the dead-input
bias map (``DMAP``) — both pre-rounded onto that *output* grid, where one
LSB is ``2**(1-MID_BITS)`` of the layer range — are added as integer
constants.  Any per-channel value a float path would multiply or add in
(BN scale, biases, pruned-channel constants) lives inside those integer
constants — the kernels contain no float arithmetic at all.

The epilogue then applies the **steps** the IR's epilogue-fusion pass
folded into the node: the LeakyReLU and activation-quantizer rescale (see
:data:`STEP_ARGS`), so the kernel writes final 8-bit-grid codes as they
leave the accumulator, the way the paper's shift-accumulate datapath does.
A step left standalone runs the same :func:`_step_lines` on its own, in
int64 on the same values, so fusing never changes an output bit.  These
numpy kernels are the reference the native kernels are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.infer import kernels
from repro.infer.kernels import KernelSpec, ScratchReq

__all__ = ["STEP_ARGS", "bind_node", "node_scratch", "step_struct"]

#: Epilogue steps: kind -> the integer arguments a step tuple carries after
#: its kind, e.g. ``("rshift", amount, rnd, lo, hi)``.  ``lrelu`` is
#: ``max(a, (a*m0 + rnd) >> sh)`` and ``lrelu0`` is ``max(a, 0)``; the three
#: rescale modes move ``a`` onto an activation grid and clip it to
#: ``[lo, hi]``.
STEP_ARGS = {
    "lrelu0": (),
    "lrelu": ("m0", "rnd", "sh"),
    "lshift": ("amount", "lo", "hi"),
    "rshift": ("amount", "rnd", "lo", "hi"),
    "requant": ("m0", "rnd", "amount", "lo", "hi"),
}


def step_struct(steps: tuple) -> tuple:
    """The structural part of epilogue steps (their kinds, no constants)."""
    return tuple(step[0] for step in steps)


def _step_lines(step: tuple) -> list[str]:
    """numpy statements applying one step to ``acc64`` in place."""
    kind, args = step[0], dict(zip(STEP_ARGS[step[0]], step[1:]))
    if kind == "lrelu0":
        return ["np.maximum(acc64, 0, out=acc64)"]
    if kind == "lrelu":
        return [
            f"np.multiply(acc64, {args['m0']}, out=tmp)",
            f"np.add(tmp, {args['rnd']}, out=tmp)",
            f"np.right_shift(tmp, {args['sh']}, out=tmp)",
            "np.maximum(acc64, tmp, out=acc64)",
        ]
    if kind == "lshift":
        lines = [f"np.left_shift(acc64, {args['amount']}, out=acc64)"]
    else:
        lines = []
        if kind == "requant":
            lines.append(f"np.multiply(acc64, {args['m0']}, out=acc64)")
        lines += [
            f"np.add(acc64, {args['rnd']}, out=acc64)",
            f"np.right_shift(acc64, {args['amount']}, out=acc64)",
        ]
    return lines + [f"np.clip(acc64, {args['lo']}, {args['hi']}, out=acc64)"]


def _epilogue_lines(flags: tuple, cast: bool, fused: tuple) -> list[str]:
    """The shared int64 requant epilogue; assumes ``acc`` holds the MAC sum."""
    lines = []
    if cast:
        lines.append("np.copyto(acc64, acc)")
    lines += [
        "np.multiply(acc64, M0, out=acc64)",
        "np.add(acc64, RND, out=acc64)",
        "np.right_shift(acc64, SH, out=acc64)",
    ]
    if "dead" in flags:
        lines.append("np.add(acc64, DMAP, out=acc64)")
    if "gb" in flags:
        lines.append("np.add(acc64, GB, out=acc64)")
    for step in fused:
        lines += _step_lines(step)
    lines.append("np.copyto(out, acc64)")
    return lines


# -- scratch -----------------------------------------------------------------


def _accumulators(tail: tuple, acc_dtype: "str | None", steps: tuple) -> list[ScratchReq]:
    """The MAC accumulator in ``acc_dtype`` (``None``: no MAC), its int64
    widening ``acc64`` (aliased when the accumulator is already int64) and
    the LeakyReLU temporary, shaped ``tail``."""
    reqs = [] if acc_dtype is None else [ScratchReq("acc", tail, dtype=acc_dtype)]
    if acc_dtype != "int64":
        reqs.append(ScratchReq("acc64", tail, dtype="int64"))
    if "lrelu" in step_struct(steps):
        reqs.append(ScratchReq("tmp", tail, dtype="int64"))
    return reqs


def node_scratch(node, vals) -> list[ScratchReq]:
    """Typed scratch requests (bind order) of one int node's numpy kernel."""
    op = node.op
    x = vals[node.srcs[0]]
    if node.kind == "conv":
        _, c, h, w = x.shape
        k, s, p = op.kernel, op.stride, op.padding
        length = ((h + 2 * p - k) // s + 1) * ((w + 2 * p - k) // s + 1)
        reqs = []
        if p:
            reqs.append(
                ScratchReq("pad", (c, h + 2 * p, w + 2 * p), True, True, str(x.dtype))
            )
        if not (k == 1 and s == 1 and p == 0 and x.dtype == op.acc_dtype):
            reqs.append(ScratchReq("cols", (c * k * k, length), dtype=op.acc_dtype))
        return reqs + _accumulators((op.filters, length), op.acc_dtype, node.epilogue)
    if node.kind == "linear":
        reqs = []
        if x.dtype != op.acc_dtype:
            reqs.append(ScratchReq("xin", x.shape[1:], dtype=op.acc_dtype))
        return reqs + _accumulators((op.filters,), op.acc_dtype, node.epilogue)
    if node.kind == "eltwise":
        head = node.head[0]
        if head == "quantize":
            return [ScratchReq("tmp", x.shape[1:], dtype="float64")]
        if head == "affine":
            return [ScratchReq("t", x.shape[1:], dtype="int64")]
        if head in STEP_ARGS:
            return _accumulators(x.shape[1:], None, (node.head,))
    if node.kind == "add":
        return [
            ScratchReq(name, x.shape[1:], dtype="int64")
            for name, tf in (("ta", op.tf1), ("tb", op.tf2))
            if tf[0] != "id"
        ]
    return []  # dequantize, pools, gap


# -- binding -----------------------------------------------------------------


def _thunk(kind: str, shape: tuple, dtype: str, flags, steps: tuple, args: dict, lines: list):
    spec = KernelSpec(kind, "intq", tuple(shape), dtype, tuple(flags), tuple(steps))
    return kernels._make(spec, args, lines)


def _bind_matmul(kind, op, x, out, scratch, steps, backend, record, verdicts):
    """conv: pad + im2col into the accumulator dtype, ``W @ cols``; linear:
    ``x @ W`` on the codes cast to the accumulator dtype; then the requant
    epilogue with ``steps`` folded in."""
    acc_dt = op.acc_dtype
    cast = acc_dt != "int64"
    args = dict(op.consts)
    args.update(out=out, acc=scratch["acc"], acc64=scratch.get("acc64", scratch["acc"]))
    if "tmp" in scratch:
        args["tmp"] = scratch["tmp"]
    flags = list(op.flags) + (["cast"] if cast else [])
    xin = x
    if kind == "conv":
        lines, views, cols = kernels._conv_views(op, x, scratch)
        args.update(views)
        lines.append(f"np.matmul(W, {cols}, out=acc)")
        flags += [name for name in ("pad", "cols") if name in scratch]
        shape = (x.shape[1:], op.consts["W"].shape, op.kernel, op.stride, op.padding)
    else:
        args["x"] = x
        lines, src = [], "x"
        if "xin" in scratch:
            xin = args["xin"] = scratch["xin"]
            lines.append("np.copyto(xin, x)")
            flags.append("xin")
            src = "xin"
        lines.append(f"np.matmul({src}, W, out=acc)")
        shape = (x.shape[1:], op.consts["W"].shape)
    lines += _epilogue_lines(op.flags, cast, steps)
    thunk = _thunk(kind, shape, acc_dt, sorted(flags), (("rq",),) + steps, args, lines)
    bound = kernels._bind_backend(
        backend, thunk, record, "make_int_producer", kind, op, xin, out, steps, thunk, record,
        verdicts,
    )
    if bound is thunk or xin is x:
        return bound

    def cast_then_native() -> None:  # the C linear reads accumulator-typed codes
        np.copyto(xin, x)
        bound()

    return cast_then_native


def _bind_eltwise(node, x, out, scratch, backend, record, verdicts):
    op, head = node.op, node.head
    args = {"x": x, "out": out, **scratch}
    if head[0] == "quantize":
        lines = [
            f"np.multiply(x, {op.inv_step!r}, out=tmp)",
            "np.rint(tmp, out=tmp)",
            f"np.clip(tmp, {op.lo}, {op.hi}, out=tmp)",
            'np.copyto(out, tmp, casting="unsafe")',
        ]
        consts = (("quantize", repr(op.inv_step), op.lo, op.hi),)
        thunk = _thunk("quantize", x.shape[1:], "int32", (), consts, args, lines)
        return kernels._bind_backend(
            backend, thunk, record, "make_int_quantize", op, x, out, thunk, record, verdicts
        )
    if head[0] == "dequantize":
        lines = [f"np.multiply(x, {op.step!r}, out=out)"]
        consts = (("dequantize", repr(op.step)),)
        thunk = _thunk("dequantize", x.shape[1:], str(x.dtype), (), consts, args, lines)
    elif head[0] == "affine":
        args.update(m0=op.m0, rnd=op.rnd, sh=op.sh, bg=op.bg)
        lines = [
            'np.multiply(x, m0, out=t, casting="unsafe")',
            "np.add(t, rnd, out=t)",
            "np.right_shift(t, sh, out=t)",
            "np.add(t, bg, out=t)",
            "np.copyto(out, t)",
        ]
        thunk = _thunk("affine", x.shape[1:], str(x.dtype), (), (), args, lines)
    else:  # a standalone step: widen, step, narrow
        lines = ["np.copyto(acc64, x)"] + _step_lines(head) + ["np.copyto(out, acc64)"]
        thunk = _thunk("step", x.shape[1:], str(out.dtype), (), (head,), args, lines)
    return kernels._bind_backend("numpy", thunk, record)


def _bind_add(op, a, b, out, scratch, record):
    """Align both operands onto the finer grid (in int64), then add."""
    args = {"a": a, "b": b, "out": out, **scratch}
    lines, names = [], []
    for src, t, tf in (("a", "ta", op.tf1), ("b", "tb", op.tf2)):
        if tf[0] == "id":
            names.append(src)
            continue
        lines.append(f"np.copyto({t}, {src})")
        if tf[0] == "lshift":
            lines.append(f"np.left_shift({t}, {tf[1]}, out={t})")
        else:
            _, m0, rnd, sh = tf
            lines += [
                f"np.multiply({t}, {m0}, out={t})",
                f"np.add({t}, {rnd}, out={t})",
                f"np.right_shift({t}, {sh}, out={t})",
            ]
        names.append(t)
    lines.append(f'np.add({names[0]}, {names[1]}, out=out, casting="unsafe")')
    thunk = _thunk("add", a.shape[1:], str(out.dtype), (), (op.tf1, op.tf2), args, lines)
    return kernels._bind_backend("numpy", thunk, record)


def bind_node(node, srcs: list, out: np.ndarray, scratch: dict, backend: str, record, verdicts):
    """Bind one int node over its source views ``srcs`` and output view.

    ``backend="native"`` tries the node's C kernel (conv, linear, max-pool,
    input quantize); the kernel byte-checks itself against the numpy thunk
    once per (context, op) — ``verdicts`` is the context's
    :attr:`~repro.infer.plan.ExecutionContext.verdicts` — and every other
    node runs its numpy thunk.  ``record`` receives the backend chosen.
    """
    kind, op, x = node.kind, node.op, srcs[0]
    if kind in ("conv", "linear"):
        if kind == "conv":
            out = out.reshape(out.shape[0], out.shape[1], -1)
        steps = tuple(node.epilogue)
        return _bind_matmul(kind, op, x, out, scratch, steps, backend, record, verdicts)
    if kind == "eltwise":
        return _bind_eltwise(node, x, out, scratch, backend, record, verdicts)
    if kind == "add":
        return _bind_add(op, x, srcs[1], out, scratch, record)
    if kind == "gap":  # the integer sum; its 1/(H*W) is in the next grid
        return kernels.bind_gap(x, out, {}, (), out.dtype, record=record)
    if kind == "avgpool":  # the integer window sum; its 1/k**2 likewise
        return kernels.bind_pool(
            kind, op.kernel, op.stride, x, out, {}, (), out.dtype, record=record
        )
    thunk = kernels.bind_pool(kind, op.kernel, op.stride, x, out, {}, (), out.dtype)
    return kernels._bind_backend(
        backend, thunk, record, "make_int_maxpool", op, x, out, thunk, record, verdicts
    )
