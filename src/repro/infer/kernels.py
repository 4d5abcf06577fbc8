"""Shape-specialized fused kernels behind a compiled-program cache.

The traced execution path (:mod:`repro.infer.trace` / :mod:`repro.infer.fuse`)
does not interpret plan ops one dict lookup at a time — it *generates* one
Python function per (op kind, layer shape, dtype, epilogue)
combination, with every branch the interpreter would test per batch (padding?
1x1 fast path? bias? dead-channel map? which epilogue ops?) resolved at
codegen time and every scalar constant inlined literally.  All array views a
kernel needs (pad interiors, im2col window views, reshaped GEMM outputs,
pool window slices) are pre-built once at bind time, so the per-batch work
of a generated kernel is exactly its data movement and ufunc calls.

Bitwise parity is by construction: each generated body is the *same ufunc
sequence* the op-by-op engine runs (``plan.ConvOp.run`` etc.), with in-place
augmented assignments spelled as their equivalent explicit ``np.<ufunc>(...,
out=...)`` calls and scalars inlined via ``repr`` (which round-trips float64
exactly).  Fusing a conv with its LeakyReLU/ActQuant epilogue therefore
changes *where* the intermediate lives (it doesn't), never its value.

:data:`KERNEL_CACHE` holds the compiled kernel factories, keyed per
(layer shape, dtype, flags, epilogue).  Identical generated source is
compiled once (an inner source-text cache), so the per-spec entries are
cheap; hit/miss counters surface through ``ExecutionPlan.summary()`` and
serve ``/metrics``.

A weight refresh recompiles the whole plan, so its *traced programs*
(which hold the bound array views) are new; the shape-keyed entries here
stay valid because they close over nothing — binding fresh arrays to a
cached factory is what a "recompile" of the traced program mostly amounts
to.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "KernelSpec",
    "ScratchReq",
    "KERNEL_CACHE",
    "cache_stats",
    "cache_info",
    "clear_caches",
    "producer_scratch",
    "bind_producer",
    "eltwise_scratch",
    "epilogue_scratch",
    "bind_eltwise",
    "bind_pool",
    "bind_gap",
    "bind_add",
]


# -- caches -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Cache key of one generated kernel: everything the source depends on,
    plus the layer shape the program was specialized for."""

    kind: str  # conv | linear | eltwise | maxpool | avgpool | gap | add
    impl: str  # "" for the float kernels; the int8 GEMM variant; "native:"-prefixed
    shape: tuple  # layer/input shape signature
    dtype: str
    flags: tuple  # structural source flags, e.g. ("bias", "pad")
    epilogue: tuple  # (("lrelu", "0.1"), ("aq", inv, lo, hi, step), ...)
    extra: tuple = ()  # pool unroll / int input type, part of the source


class _KernelCache:
    """spec -> compiled factory, with an inner source-text dedupe cache.

    The per-spec map is a bounded LRU: long-lived cluster workers seeing
    many distinct input shapes would otherwise grow it without limit.
    Evicting an entry never orphans running code — bound thunks hold their
    factory (or native kernel entry) directly, and the inner
    ``_sources`` dedupe map stays unbounded because the number of distinct
    source texts is structurally small (it is what makes re-insertion after
    an eviction cheap).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self._factories: OrderedDict[KernelSpec, object] = OrderedDict()
        self._sources: dict[str, object] = {}
        self._lock = threading.Lock()
        self._max = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _insert(self, spec: KernelSpec, factory) -> None:
        self._factories[spec] = factory
        while len(self._factories) > self._max:
            self._factories.popitem(last=False)
            self.evictions += 1

    def get(self, spec: KernelSpec, source: str):
        with self._lock:
            factory = self._factories.get(spec)
            if factory is not None:
                self.hits += 1
                self._factories.move_to_end(spec)
                return factory
            self.misses += 1
            factory = self._sources.get(source)
            if factory is None:
                namespace: dict = {"np": np}
                exec(compile(source, f"<kernel {spec.kind}/{spec.impl}>", "exec"), namespace)
                factory = namespace["_factory"]
                self._sources[source] = factory
            self._insert(spec, factory)
            return factory

    def get_native(self, spec: KernelSpec, source: str, start):
        """Like :meth:`get` for native kernels: on a source miss,
        ``start(source)`` begins building the C entry point and returns an
        entry that waits for it when first used; one entry is kept per
        source.  ``start`` runs outside the lock, so other threads' lookups
        never wait behind a compile.  It may raise ``NativeUnavailable`` —
        nothing is cached then."""
        with self._lock:
            entry = self._factories.get(spec)
            if entry is not None:
                self.hits += 1
                self._factories.move_to_end(spec)
                return entry
            self.misses += 1
            entry = self._sources.get(source)
        if entry is None:
            entry = start(source)
        with self._lock:
            entry = self._sources.setdefault(source, entry)
            self._insert(spec, entry)
        return entry

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "specs": len(self._factories),
                "compiled_sources": len(self._sources),
                "evictions": self.evictions,
                "max_entries": self._max,
            }

    def clear(self) -> None:
        with self._lock:
            self._factories.clear()
            self._sources.clear()
            self.hits = self.misses = self.evictions = 0


KERNEL_CACHE = _KernelCache()


def cache_stats() -> dict:
    """Process-wide codegen cache counters (for summary/metrics)."""
    return {"kernels": KERNEL_CACHE.stats()}


def cache_info() -> dict:
    """Everything cached on this host: in-process counters plus the on-disk
    native compile cache (size and location).  The public entry point is
    ``repro.infer.cache_info()``."""
    info = cache_stats()
    try:
        from repro.infer.native import binding, toolchain

        cdir = toolchain.native_cache_dir()
        entries = [f for f in os.listdir(cdir) if f.endswith(".so")]
        info["native"] = {
            "cache_dir": cdir,
            "compiled_kernels": len(entries),
            "cache_bytes": sum(
                os.path.getsize(os.path.join(cdir, f)) for f in os.listdir(cdir)
            ),
            "status": binding.status(),
        }
    except Exception:  # pragma: no cover - cache dir races / defensive
        pass
    return info


def clear_caches(disk: bool = False) -> None:
    """Drop the kernel cache (tests / benchmarks wanting cold-start
    numbers); ``disk=True`` also empties the native compile cache directory
    (the ``--clear-cache`` CLI path).
    """
    KERNEL_CACHE.clear()
    if disk:
        try:
            from repro.infer.native import toolchain

            cdir = toolchain.native_cache_dir()
            for name in os.listdir(cdir):
                if name.endswith((".so", ".c")):
                    try:
                        os.unlink(os.path.join(cdir, name))
                    except OSError:
                        pass
        except Exception:  # pragma: no cover - defensive
            pass


_native_log = logging.getLogger("repro.infer.native")
_native_failed_once = False


def _native_make(maker: str, *args):
    """Call one ``repro.infer.native.binding.make_*`` entry point, treating
    *any* failure — import error, toolchain error, a bug in the binding —
    as a decline.  The native backend must never break plan compilation."""
    global _native_failed_once
    try:
        from repro.infer.native import binding
    except Exception:
        return None
    try:
        return getattr(binding, maker)(*args)
    except Exception:
        if not _native_failed_once:
            _native_failed_once = True
            _native_log.exception(
                "native backend %s raised unexpectedly; falling back to numpy", maker
            )
        return None


def _bind_backend(backend: str, thunk, record, maker: str = "", *args):
    """The native kernel ``maker`` binds over ``args`` when ``backend`` is
    ``"native"`` and it does not decline, else the numpy ``thunk``;
    ``record`` notes a numpy choice (the native binding notes its own)."""
    if backend == "native" and maker:
        native = _native_make(maker, *args)
        if native is not None:
            return native
    if record is not None:
        record.setdefault("backend", "numpy")
    return thunk


# -- source emission ----------------------------------------------------------


def _epilogue_sig(epilogue) -> tuple:
    """Source signature of an elementwise epilogue chain with every scalar
    pre-``repr``'d (float64 repr round-trips exactly, so inlined literals
    equal the op's runtime scalars bit for bit)."""
    sig = []
    for step in epilogue:
        if step[0] == "lrelu":
            sig.append(("lrelu", repr(float(step[1]))))
        elif step[0] == "aq":
            step_f, half = float(step[1]), float(step[2])
            sig.append(
                ("aq", repr(1.0 / step_f), repr(-half), repr(half - 1.0), repr(step_f))
            )
        else:  # pragma: no cover - guarded by the trace pass
            raise ValueError(f"unknown epilogue step {step[0]!r}")
    return tuple(sig)


def _emit_epilogue(lines: list[str], sig: tuple, out: str, scratch_names: list[str]) -> None:
    """Append the epilogue ufunc sequence operating in place on ``out``.

    Mirrors ``LeakyReluOp.run`` (in-place form) and ``ActQuantOp.run``: a
    LeakyReLU with nonzero slope consumes one scratch name per occurrence.
    """
    for step in sig:
        if step[0] == "lrelu":
            slope = step[1]
            if slope == "0.0":
                lines.append(f"np.maximum({out}, 0.0, out={out})")
            else:
                tmp = scratch_names.pop(0)
                lines.append(f"np.multiply({out}, {slope}, out={tmp})")
                lines.append(f"np.maximum({out}, {tmp}, out={out})")
        else:  # aq
            inv, lo, hi, stp = step[1], step[2], step[3], step[4]
            lines.append(f"np.multiply({out}, {inv}, out={out})")
            lines.append(f"np.rint({out}, out={out})")
            lines.append(f"np.clip({out}, {lo}, {hi}, out={out})")
            lines.append(f"np.multiply({out}, {stp}, out={out})")


def _build_source(arg_names: list[str], lines: list[str]) -> str:
    unpack = "\n".join(f"    {n} = A[{n!r}]" for n in arg_names)
    body = "\n".join(f"        {line}" for line in lines) or "        pass"
    return f"def _factory(A):\n{unpack}\n    def kernel():\n{body}\n    return kernel\n"


def _make(spec: KernelSpec, args: dict, lines: list[str]):
    source = _build_source(list(args), lines)
    return KERNEL_CACHE.get(spec, source)(args)


# -- scratch planning ---------------------------------------------------------


@dataclass(frozen=True)
class ScratchReq:
    """One scratch buffer a kernel needs, shapes *without* the batch dim.

    ``dedicated`` buffers are excluded from register reuse and ``zero``
    ones are zeroed once at bind (the conv pad buffer relies on a
    permanently-zero border, like ``ExecutionContext.buffer(zero=True)``).
    ``dtype`` defaults to the node's output dtype; the int8 kernels name
    theirs (accumulators, int64 widening, the quantize's float64 temp).
    """

    name: str
    tail: tuple
    dedicated: bool = False
    zero: bool = False
    dtype: str = ""


def epilogue_scratch(epilogue, out_tail: tuple) -> list[ScratchReq]:
    reqs = []
    for i, step in enumerate(epilogue):
        if step[0] == "lrelu" and float(step[1]) != 0.0:
            reqs.append(ScratchReq(f"etmp{i}", out_tail))
    return reqs


def producer_scratch(kind: str, op, x_shape: tuple, epilogue) -> list[ScratchReq]:
    """Scratch requests (bind order) of a conv/linear kernel on ``x_shape``;
    a GEMM over ``op.gemm_rows`` writes its rows into ``part`` first."""
    reqs: list[ScratchReq] = []
    if kind == "conv":
        c, h, w = x_shape[1], x_shape[2], x_shape[3]
        k, s, p = op.kernel, op.stride, op.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        length = oh * ow
        f = op.weight2d.shape[0]
        onebyone = k == 1 and s == 1 and p == 0
        if not onebyone:
            if p:
                reqs.append(ScratchReq("pad", (c, h + 2 * p, w + 2 * p), dedicated=True, zero=True))
            reqs.append(ScratchReq("cols", (c * k * k, length)))
        if op.gemm_rows is not None:
            reqs.append(ScratchReq("part", (op.gemm_rows.size, length)))
        reqs.extend(epilogue_scratch(epilogue, (f, length)))
    else:  # linear
        if op.gemm_rows is not None:
            reqs.append(ScratchReq("part", (op.gemm_rows.size,)))
        reqs.extend(epilogue_scratch(epilogue, (op.weight_t.shape[1],)))
    return reqs


# -- producer kernels (conv / linear) -----------------------------------------


def _conv_views(op, x, scratch: dict):
    """Pre-build the im2col machinery over concrete arrays.

    Returns ``(setup_lines, args, cols_name)`` — the data-movement lines and
    bound views feeding the GEMM, exactly as ``ConvOp.run`` arranges them.
    A 1x1 conv reads ``x`` in place unless ``scratch`` has ``cols`` (an int8
    conv whose codes need casting to its accumulator dtype).
    """
    nb, c, h, w = x.shape
    k, s, p = op.kernel, op.stride, op.padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if k == 1 and s == 1 and p == 0 and "cols" not in scratch:
        return [], {"cols": x.reshape(nb, c, h * w)}, "cols"
    if p:
        pad = scratch["pad"]
        source = pad
        setup = ["interior[...] = x"]
        args = {"x": x, "interior": pad[:, :, p:-p, p:-p]}
    else:
        source = x
        setup = []
        args = {"x": x}
    sn, sc, sh, sw = source.strides
    windows = as_strided(
        source,
        shape=(nb, c, k, k, oh, ow),
        strides=(sn, sc, sh, sw, sh * s, sw * s),
        writeable=False,
    )
    cols = scratch["cols"]
    args.update({"windows": windows, "cols": cols, "cols6": cols.reshape(nb, c, k, k, oh, ow)})
    setup.append("cols6[...] = windows")
    return setup, args, "cols"


def bind_producer(
    kind: str,
    op,
    x: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    epilogue,
    dtype: np.dtype,
    backend: str = "numpy",
    record: dict | None = None,
):
    """Bind one generated conv/linear kernel over concrete arrays.

    ``out`` is the flat GEMM output — ``(nb, F, oh*ow)`` for conv, ``(nb,
    F)`` for linear — a view of the destination register.  ``scratch`` maps
    :func:`producer_scratch` names to bound views.  With ``op.gemm_rows``
    the GEMM fills ``part`` and the rows are scattered into a zeroed
    ``out``, the ``ConvOp.run``/``LinearOp.run`` sequence.
    ``backend="native"`` tries the C backend over the same arrays
    (declining back to the numpy thunk on any precondition failure);
    ``record`` receives the choice.
    """
    sig = _epilogue_sig(epilogue)
    etmps = [n for n in scratch if n.startswith("etmp")]
    lines: list[str] = []
    flags: list[str] = []
    rows = None if op.gemm_rows is None else op.gemm_rows.size
    if kind == "conv":
        setup, args, cols_name = _conv_views(op, x, scratch)
        lines.extend(setup)
        if op.padding and not (op.kernel == 1 and op.stride == 1):
            flags.append("pad")
        if op.kernel == 1 and op.stride == 1 and op.padding == 0:
            flags.append("onebyone")
        args["w"], gemm = op.weight2d, f"np.matmul(w, {cols_name}, out={{}})"
        bias = None if op.bias is None else op.bias[:, None]
        shape_key = (x.shape[1:], op.weight2d.shape, op.kernel, op.stride, op.padding, rows)
    else:  # linear
        args = {"x": x, "w": op.weight_t}
        gemm = "np.matmul(x, w, out={})"
        bias = op.bias
        shape_key = (x.shape[1:], op.weight_t.shape, rows)
    args["out"] = out
    if rows is None:
        lines.append(gemm.format("out"))
    else:
        args.update(w=op.gemm_weight, part=scratch["part"], rows=op.gemm_rows)
        lines += [gemm.format("part"), "out[...] = 0.0", "out[:, rows] = part"]
    if bias is not None:
        args["bias"] = bias
        lines.append("np.add(out, bias, out=out)")
        flags.append("bias")
    if kind == "conv" and op.dead_in_weight2d is not None:
        args["dead"] = op._dead_bias_map(x.shape[2], x.shape[3])
        lines.append("np.add(out, dead, out=out)")
        flags.append("dead")
    for name in etmps:
        args[name] = scratch[name]
    _emit_epilogue(lines, sig, "out", list(etmps))
    spec = KernelSpec(
        kind=kind, impl="", shape=shape_key, dtype=str(dtype), flags=tuple(flags), epilogue=sig
    )
    thunk = _make(spec, args, lines)
    return _bind_backend(
        backend, thunk, record, "make_producer", kind, op, x, out, scratch, sig, spec, thunk,
        record,
    )


# -- elementwise chains (standalone LeakyReLU / ActQuant / Affine) ------------


def eltwise_scratch(chain, out_tail: tuple, inplace: bool) -> list[ScratchReq]:
    """Scratch for a standalone elementwise chain.

    A not-in-place chain whose head is a nonzero-slope LeakyReLU uses the
    destination itself as the multiply target (matching the op-by-op
    ``LeakyReluOp.run`` non-inplace branch, whose result buffer doubles as
    the scratch); only in-place heads and later LeakyReLUs need real
    scratch, one buffer per occurrence.
    """
    reqs: list[ScratchReq] = []
    for i, step in enumerate(chain):
        if step[0] == "lrelu" and float(step[1]) != 0.0 and (inplace or i > 0):
            reqs.append(ScratchReq(f"etmp{i}", out_tail))
    return reqs


def bind_eltwise(
    chain,
    x: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    dtype: np.dtype,
    backend: str = "numpy",
    record: dict | None = None,
):
    """Bind a standalone elementwise chain kernel (head + fused followers).

    ``out`` may alias ``x`` (the in-place case); the generated sequence
    replicates each op's ``run()`` bit for bit in both layouts.
    """
    inplace = out is x
    args: dict = {"x": x} if inplace else {"x": x, "out": out}
    outname = "x" if inplace else "out"
    lines: list[str] = []
    flags = ["inplace"] if inplace else []
    head, rest = chain[0], chain[1:]
    if head[0] == "lrelu":
        slope = repr(float(head[1]))
        if slope == "0.0":
            lines.append(f"np.maximum(x, 0.0, out={outname})")
        elif inplace:
            args["etmp0"] = scratch["etmp0"]
            lines.append(f"np.multiply(x, {slope}, out=etmp0)")
            lines.append("np.maximum(x, etmp0, out=x)")
        else:
            lines.append(f"np.multiply(x, {slope}, out=out)")
            lines.append("np.maximum(x, out, out=out)")
        sig_head = ("lrelu", slope)
    elif head[0] == "aq":
        step_f, half = float(head[1]), float(head[2])
        inv, lo, hi, stp = repr(1.0 / step_f), repr(-half), repr(half - 1.0), repr(step_f)
        lines.append(f"np.multiply(x, {inv}, out={outname})")
        lines.append(f"np.rint({outname}, out={outname})")
        lines.append(f"np.clip({outname}, {lo}, {hi}, out={outname})")
        lines.append(f"np.multiply({outname}, {stp}, out={outname})")
        sig_head = ("aq", inv, lo, hi, stp)
    elif head[0] == "affine":
        scale, shift = head[1], head[2]
        args["scale"] = scale[:, None, None]
        args["shift"] = shift[:, None, None]
        lines.append(f"np.multiply(x, scale, out={outname})")
        lines.append(f"np.add({outname}, shift, out={outname})")
        sig_head = ("affine",)
    else:  # pragma: no cover - guarded by the trace pass
        raise ValueError(f"unknown eltwise head {head[0]!r}")
    etmps = sorted(n for n in scratch if n.startswith("etmp") and n != "etmp0")
    for name in etmps:
        args[name] = scratch[name]
    sig_rest = _epilogue_sig(rest)
    _emit_epilogue(lines, sig_rest, outname, list(etmps))
    spec = KernelSpec(
        kind="eltwise",
        impl="",
        shape=tuple(x.shape[1:]),
        dtype=str(dtype),
        flags=tuple(flags),
        epilogue=(sig_head,) + sig_rest,
    )
    thunk = _make(spec, args, lines)
    return _bind_backend(
        backend, thunk, record, "make_eltwise", (sig_head,) + sig_rest, x, out, spec, thunk,
        record,
    )


# -- pools / gap / add --------------------------------------------------------


def bind_pool(
    pool_kind: str,
    kernel: int,
    stride: int,
    x: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    epilogue,
    dtype: np.dtype,
    backend: str = "numpy",
    record: dict | None = None,
):
    """Max/avg pool with the ``k*k`` shifted window views prebound.  At an
    integer ``dtype`` the avg pool is the int8 program's exact window sum:
    no ``1/k**2`` multiply (it is folded into the next grid's step)."""
    oh = (x.shape[2] - kernel) // stride + 1
    ow = (x.shape[3] - kernel) // stride + 1
    args: dict = {"out": out}
    lines: list[str] = []
    names = []
    for i in range(kernel):
        for j in range(kernel):
            name = f"v{len(names)}"
            args[name] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            names.append(name)
    lines.append(f"out[...] = {names[0]}")
    reducer = "np.maximum(out, {v}, out=out)" if pool_kind == "maxpool" else "np.add(out, {v}, out=out)"
    for v in names[1:]:
        lines.append(reducer.format(v=v))
    if pool_kind == "avgpool" and np.dtype(dtype).kind == "f":
        lines.append(f"np.multiply(out, {repr(1.0 / (kernel * kernel))}, out=out)")
    sig = _epilogue_sig(epilogue)
    etmps = sorted(n for n in scratch if n.startswith("etmp"))
    for name in etmps:
        args[name] = scratch[name]
    _emit_epilogue(lines, sig, "out", list(etmps))
    spec = KernelSpec(
        kind=pool_kind,
        impl="",
        shape=(x.shape[1:], kernel, stride),
        dtype=str(dtype),
        flags=(),
        epilogue=sig,
        extra=(len(names),),
    )
    thunk = _make(spec, args, lines)
    return _bind_backend(
        backend, thunk, record, "make_pool", pool_kind, kernel, stride, x, out, sig, spec,
        thunk, record,
    )


def bind_gap(
    x: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    epilogue,
    dtype: np.dtype,
    backend: str = "numpy",
    record: dict | None = None,
):
    """Global average pool; at an integer ``dtype`` the int8 program's exact
    spatial sum (its ``1/(H*W)`` is folded into the next grid's step)."""
    args: dict = {"x": x, "out": out}
    reduce = "mean" if np.dtype(dtype).kind == "f" else "sum"
    lines = [f"np.{reduce}(x, axis=(2, 3), out=out)"]
    sig = _epilogue_sig(epilogue)
    etmps = sorted(n for n in scratch if n.startswith("etmp"))
    for name in etmps:
        args[name] = scratch[name]
    _emit_epilogue(lines, sig, "out", list(etmps))
    spec = KernelSpec(
        kind="gap", impl="", shape=tuple(x.shape[1:]), dtype=str(dtype), flags=(), epilogue=sig
    )
    thunk = _make(spec, args, lines)
    return _bind_backend(backend, thunk, record, "make_gap", x, out, sig, spec, thunk, record)


def bind_add(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    epilogue,
    dtype: np.dtype,
    backend: str = "numpy",
    record: dict | None = None,
):
    args: dict = {"a": a, "b": b, "out": out}
    lines = ["np.add(a, b, out=out)"]
    sig = _epilogue_sig(epilogue)
    etmps = sorted(n for n in scratch if n.startswith("etmp"))
    for name in etmps:
        args[name] = scratch[name]
    _emit_epilogue(lines, sig, "out", list(etmps))
    spec = KernelSpec(
        kind="add", impl="", shape=tuple(a.shape[1:]), dtype=str(dtype), flags=(), epilogue=sig
    )
    thunk = _make(spec, args, lines)
    return _bind_backend(backend, thunk, record, "make_add", a, b, out, sig, spec, thunk, record)
