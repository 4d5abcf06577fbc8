"""Generated integer conv/linear kernels, cached in the codegen cache.

Like the float traced path (:mod:`repro.infer.kernels`), the integer hot
loops are *generated*: one Python function per (op kind, integer impl,
structural flags, exponent-group signature), compiled once and cached
process-wide in :data:`repro.infer.kernels.KERNEL_CACHE` under an
``intq_*`` impl tag — so int8 plans share the same cache, hit/miss
counters and ``/metrics`` surfacing as the float compiler.

Two variants per layer, bit-identical in their accumulator results
(integer addition is associative):

* ``intq_gemm`` — one integer matmul against the decoded ``w_int`` matrix,
  then the requantization epilogue;
* ``intq_shift`` — the hardware-faithful form: for each distinct exponent
  ``d`` in the packed codes, left-shift the quantized activations by ``d``
  and accumulate through that group's {-1, 0, +1} sign matrix.  No integer
  multiply appears anywhere in the MAC loop.

The epilogue is shared: the per-channel multiplier+shift requantization
(:mod:`repro.infer.intq.requant`) brings the accumulator onto the layer's
calibrated output grid, then the folded bias (``GB``) and the dead-input
bias map (``DMAP``) — both pre-rounded onto that *output* grid, where one
LSB is ``2**(1-MID_BITS)`` of the layer range — are added as integer
constants.  Any per-channel value a float path would multiply or add in
(BN scale, biases, pruned-channel constants) lives inside those integer
constants — the kernels contain no float arithmetic at all.

The epilogue then applies the layer's **fused steps**: the LeakyReLU and
activation-quantizer rescale that the lowering folded into the op (see
:data:`STEP_ARGS`), so the kernel writes final 8-bit-grid codes as they
leave the accumulator, the way the paper's shift-accumulate datapath does.
Each step replays its standalone op (``IntLeakyOp``/``IntRescaleOp``) in
int64 on the same values, so fusing never changes an output bit.  This
numpy epilogue is the reference the native kernels are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.infer.kernels import KERNEL_CACHE, KernelSpec

__all__ = ["STEP_ARGS", "bind_int_kernel", "step_struct"]

#: Fused epilogue steps: kind -> the integer arguments a step tuple carries
#: after its kind, e.g. ``("rshift", amount, rnd, lo, hi)``.  ``lrelu`` is
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
    """The structural part of fused steps (their kinds, no constants)."""
    return tuple(step[0] for step in steps)


def _build_source(const_names: list[str], params: list[str], lines: list[str]) -> str:
    src = ["def _factory(C):"]
    src.extend(f"    {name} = C[{name!r}]" for name in const_names)
    src.append(f"    def kernel({', '.join(params)}):")
    src.extend("        " + line for line in lines)
    src.append("    return kernel")
    return "\n".join(src) + "\n"


def _step_lines(step: tuple) -> list[str]:
    """numpy statements applying one fused step to ``acc64`` in place."""
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


def _mac_lines(kind: str, impl: str, group_shifts: tuple) -> tuple[list[str], list[str]]:
    """(const names, source lines) of the MAC portion for one variant."""
    if impl == "intq_gemm":
        if kind == "conv":
            return ["W"], ["np.matmul(W, x, out=acc)"]
        return ["W"], ["np.matmul(x, W, out=acc)"]
    consts, lines = [], []
    for i, d in enumerate(group_shifts):
        s = f"S{i}"
        consts.append(s)
        operand = "x"
        if d:
            lines.append(f"np.left_shift(x, {d}, out=shifted)")
            operand = "shifted"
        target = "acc" if i == 0 else "part"
        if kind == "conv":
            lines.append(f"np.matmul({s}, {operand}, out={target})")
        else:
            lines.append(f"np.matmul({operand}, {s}, out={target})")
        if i:
            lines.append("np.add(acc, part, out=acc)")
    return consts, lines


def bind_int_kernel(
    kind: str,
    impl: str,
    shape: tuple,
    acc_dtype: np.dtype,
    flags: tuple,
    group_shifts: tuple,
    consts: dict,
    fused: tuple = (),
):
    """Fetch (compiling on first use) the generated kernel for one int op.

    Args:
        kind: ``"conv"`` (``W @ x`` orientation) or ``"linear"``
            (``x @ W``).
        impl: ``"intq_gemm"`` or ``"intq_shift"``.
        shape: Shape signature for the cache key (batch, layer and output
            geometry) — the source itself depends only on the structure.
        acc_dtype: MAC accumulator dtype (int32 when the static bound
            allows it, else int64).
        flags: Structural source flags out of ``("dead", "gb")``.
        group_shifts: Distinct exponent shifts of the packed codes (shift
            variant only; ``()`` for GEMM).
        consts: Bind-time constant arrays (``W``/``S*``, ``M0``, ``RND``,
            ``SH``, optional ``DMAP``/``GB``).
        fused: Fused epilogue steps (see :data:`STEP_ARGS`); their
            constants are inlined, so they are part of the cache key.

    Returns:
        ``kernel(x, [shifted, part,] acc, acc64, out, tmp)`` — a compiled
        closure over ``consts``; ``acc64`` may alias ``acc`` when the
        accumulator is already int64, and ``tmp`` (an int64 scratch shaped
        like ``acc``) is only touched by a fused ``lrelu`` step.
    """
    cast = np.dtype(acc_dtype) != np.dtype(np.int64)
    mac_consts, mac_lines = _mac_lines(kind, impl, group_shifts)
    const_names = mac_consts + ["M0", "RND", "SH"]
    if "dead" in flags:
        const_names.append("DMAP")
    if "gb" in flags:
        const_names.append("GB")
    params = ["x"]
    if impl == "intq_shift":
        params += ["shifted", "part"]
    params += ["acc", "acc64", "out", "tmp"]
    lines = mac_lines + _epilogue_lines(flags, cast, fused)
    spec = KernelSpec(
        kind=kind,
        impl=impl,
        shape=tuple(shape),
        dtype=str(np.dtype(acc_dtype)),
        flags=tuple(sorted(flags)) + (("cast",) if cast else ()),
        epilogue=(("rq",),) + tuple(fused),
        extra=tuple(group_shifts),
    )
    factory = KERNEL_CACHE.get(spec, _build_source(const_names, params, lines))
    return factory(consts)
