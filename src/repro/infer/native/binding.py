"""Bind generated C kernels over the same arrays the numpy codegen uses.

This is the bridge between :mod:`repro.infer.kernels` (which owns specs,
scratch planning and the numpy thunks) and the C side (:mod:`.codegen` /
:mod:`.toolchain` / :mod:`.blas`).  Each ``make_*`` function receives the
already-bound numpy kernel plus every array the fused node touches, and
returns a callable drop-in replacement — or ``None`` when the native
backend must decline (no toolchain, no verifiable BLAS, an epilogue step
with no C lowering, a non-contiguous view, a non-float64 dtype).

Fallback ladder (cheapest exit first):

1. *decline at bind* — any precondition above fails; the caller keeps the
   numpy thunk it already built.  Logged once per reason.
2. *first-call parity check* — the returned thunk's first invocation runs
   the C kernel, snapshots the output, re-runs the numpy kernel and
   compares **bytes**.  On mismatch it pins itself to numpy permanently
   (the numpy result, being last, is what downstream nodes consumed) and
   logs once.  On match it pins itself to the C kernel.
3. *never crash* — compile/load errors surface as
   :class:`~.toolchain.NativeUnavailable` and turn into a decline.

The parity check costs one extra kernel execution and one output copy per
bound thunk per process — amortized to nothing over a serving lifetime,
and it is what lets ``backend="auto"`` default to on: a miscompiled or
exotic-platform kernel demotes itself instead of corrupting results.
"""

from __future__ import annotations

import dataclasses
import logging
import threading

import numpy as np

from repro.infer.native import blas, codegen, toolchain

__all__ = [
    "available",
    "status",
    "reset",
    "make_producer",
    "make_eltwise",
    "make_pool",
    "make_gap",
    "make_add",
    "run_int_producer",
]

logger = logging.getLogger("repro.infer.native")

_lock = threading.Lock()
_logged: set = set()
_counters = {"bound": 0, "declined": 0, "check_failures": 0}


def _log_once(key, msg: str, *args) -> None:
    with _lock:
        if key in _logged:
            return
        _logged.add(key)
    logger.warning(msg, *args)


def _count(name: str) -> None:
    with _lock:
        _counters[name] += 1


def available() -> bool:
    """Can this process compile-or-load native kernels at all?"""
    try:
        toolchain.find_compiler()
        toolchain.compile_flags()
        return True
    except toolchain.NativeUnavailable as err:
        _log_once(("toolchain",), "native backend disabled: %s", err)
        return False


def status() -> dict:
    """Diagnostic block for ``ExecutionPlan.summary()`` / ``/metrics``."""
    info: dict = {"loader": None, "compiler": None, "blas": None}
    try:
        info["compiler"] = toolchain.find_compiler()
        info["flags"] = list(toolchain.compile_flags())
        info["available"] = True
    except toolchain.NativeUnavailable as err:
        info["available"] = False
        info["reason"] = str(err)
    try:
        info["loader"] = toolchain.loader_kind()
    except Exception:  # pragma: no cover - defensive
        pass
    try:
        b = blas.blas_info()
        info["blas"] = {"path": b["path"], "ilp64": b["ilp64"]}
    except blas.BlasUnavailable as err:
        info["blas"] = {"error": str(err)}
    try:
        from repro.infer.native.threading import runtime as _mtrt

        # Non-forcing: reports pool utilization when threaded kernels have
        # been bound, without compiling the runtime just to say so.
        info["threading"] = _mtrt.stats()
    except Exception:  # pragma: no cover - defensive
        info["threading"] = {"available": False, "reason": "runtime import failed"}
    with _lock:
        info.update(_counters)
    return info


def reset() -> None:
    """Forget memoized toolchain state and log-once keys (test helper)."""
    toolchain.reset()
    try:
        from repro.infer.native.threading import runtime as _mtrt

        _mtrt.reset()
    except Exception:  # pragma: no cover - defensive
        pass
    with _lock:
        _logged.clear()
        for k in _counters:
            _counters[k] = 0


# -- C ABI invocation ---------------------------------------------------------


def _addresses(arrays: list) -> tuple[list[int], list]:
    """(addresses, keep-alive refs); ``None`` -> NULL, ints pass through."""
    addrs: list[int] = []
    keep: list = []
    for a in arrays:
        if a is None:
            addrs.append(0)
        elif isinstance(a, int):
            addrs.append(a)
        else:
            keep.append(a)
            addrs.append(a.ctypes.data)
    return addrs, keep


def _pack_call(fn, arrays: list, dims: list, scalars: list):
    """A zero-argument callable invoking ``fn`` with prebuilt C argument
    blocks (addresses resolved once at bind time — array *identities* must
    therefore be stable across calls, which the bound-once register model
    guarantees)."""
    addrs, keep = _addresses(arrays)
    scal = [float(s) for s in scalars] or [0.0]
    idims = [int(d) for d in dims]
    if toolchain.loader_kind() == "cffi":
        f = toolchain.ffi()
        cptrs = f.new("void *[]", [f.cast("void *", a) for a in addrs])
        cdims = f.new("long long[]", idims)
        cscal = f.new("double[]", scal)
    else:
        import ctypes

        cptrs = (ctypes.c_void_p * len(addrs))(*addrs)
        cdims = (ctypes.c_longlong * len(idims))(*idims)
        cscal = (ctypes.c_double * len(scal))(*scal)

    def call() -> None:
        fn(cptrs, cdims, cscal)

    call._keep = (keep, cptrs, cdims, cscal)  # pin the argument blocks
    return call


def _native_fn(spec, source: str, prefix: str = "native:"):
    """Fetch (compiling on first use) the C entry point for ``spec``."""
    from repro.infer.kernels import KERNEL_CACHE

    nspec = dataclasses.replace(spec, impl=prefix + spec.impl)
    return KERNEL_CACHE.get_native(
        nspec,
        source,
        lambda src: toolchain.load_library(toolchain.compile_source(src), src),
    )


# -- the first-call parity check ----------------------------------------------


def _checked(native_call, numpy_thunk, out: np.ndarray, inputs: list, record, key):
    """Wrap ``native_call`` so its first invocation self-verifies bitwise.

    ``inputs`` are the arrays the numpy thunk *reads*; any that share
    memory with ``out`` (the in-place elementwise case, or register
    aliasing) are snapshotted before the native run and restored before
    the numpy re-run.
    """
    aliased = [a for a in inputs if np.shares_memory(a, out)]
    state: list = [None]  # None = unchecked, else the pinned callable

    def first() -> None:
        saved = [a.copy() for a in aliased]
        native_call()
        snap = out.copy()
        for a, s in zip(aliased, saved):
            a[...] = s
        numpy_thunk()
        if np.array_equal(snap.view(np.uint8), out.view(np.uint8)):
            state[0] = native_call
            if record is not None:
                record["backend"] = "native"
        else:
            state[0] = numpy_thunk
            _count("check_failures")
            if record is not None:
                record["backend"] = "numpy"
                record["native_check_failed"] = True
            _log_once(
                ("check", key),
                "native kernel %s failed the bitwise parity self-check; "
                "pinned to the numpy codegen",
                key,
            )

    def kernel() -> None:
        fn = state[0]
        if fn is None:
            first()
        else:
            fn()

    return kernel


# -- intra-op threaded variants -----------------------------------------------


def _mt_runtime(threads: int):
    """The parallel-for address when threaded kernels can run, else None
    (the caller then binds the serial untiled kernel — a host-consistent
    choice, so thread-count invariance is preserved either way)."""
    try:
        from repro.infer.native.threading import runtime
    except Exception:  # pragma: no cover - defensive
        return None
    if not runtime.available():
        _log_once(
            ("mt", "runtime"),
            "threading runtime unavailable; using serial native kernels",
        )
        return None
    runtime.ensure_pool(threads - 1)
    return runtime.pf_addr()


def _checked_mt(par_call, ser_call, out: np.ndarray, inputs: list, record, key):
    """First-call self-check for threaded conv/linear kernels.

    Tiled GEMMs are deliberately *not* bitwise-equal to the untiled numpy/
    BLAS path, so the reference here is the **serial dispatch of the same
    tile grid** — ``ser_call`` is the identical compiled kernel with the
    parallel-for pointer slot swapped for ``rt_serial_for``.  A mismatch
    means the threaded execution itself is broken (a race, a miscompile);
    the thunk then pins to serial tiled execution, which downstream nodes
    already consumed and which stays thread-count invariant trivially.
    """
    aliased = [a for a in inputs if np.shares_memory(a, out)]
    state: list = [None]

    def first() -> None:
        saved = [a.copy() for a in aliased]
        par_call()
        snap = out.copy()
        for a, s in zip(aliased, saved):
            a[...] = s
        ser_call()
        if np.array_equal(snap.view(np.uint8), out.view(np.uint8)):
            state[0] = par_call
        else:
            state[0] = ser_call
            _count("check_failures")
            if record is not None:
                record["mt_check_failed"] = True
            _log_once(
                ("mtcheck", key),
                "threaded kernel %s disagreed with serial dispatch of the same "
                "tiles; pinned to serial tiled execution",
                key,
            )

    def kernel() -> None:
        fn = state[0]
        if fn is None:
            first()
        else:
            fn()

    return kernel


def _pack_linear_weight(weight_t: np.ndarray) -> np.ndarray:
    """Pack a ``(IN, F)`` linear weight into ``(NP, IN, 8)`` column panels
    for the micro-kernel (zero-padded tail panel)."""
    in_f, f = weight_t.shape
    npan = (f + 7) // 8
    wp = np.zeros((npan, in_f, 8), np.float64)
    for p in range(npan):
        c0 = p * 8
        c1 = min(c0 + 8, f)
        wp[p, :, : c1 - c0] = weight_t[:, c0:c1]
    return np.ascontiguousarray(wp.reshape(-1))


def _mt_producer(kind, op, impl, epi, ilp64, spec, arrays, dims, scalars,
                 x, out, record, threads, info):
    """Bind the threaded conv/linear kernel, or None to fall back to the
    serial untiled path.  ``arrays``/``dims`` are the *serial* layouts —
    the threaded ABI is exactly those with the parallel-for address
    prepended to ``ptrs`` and the participant limit prepended to ``dims``
    (plus micro-kernel pack buffers appended)."""
    from repro.infer.native.threading import codegen as mtcodegen
    from repro.infer.native.threading import runtime

    pf = _mt_runtime(threads)
    if pf is None:
        return None
    spf = runtime.serial_addr()
    gv = getattr(op, "gemm", None) or "blas"
    if impl == "shift_plane" or gv not in ("blas", "micro"):
        gv = "blas"
    mt_arrays = [pf, *arrays]
    mt_dims = [threads, *dims]
    if kind == "conv":
        source = mtcodegen.conv_source_mt(
            impl, epi, ilp64,
            haspad=info["haspad"], onebyone=info["onebyone"],
            hb=info["hb"], hd=info["hd"], gemm=gv, consts=info["consts"],
        )
        if impl != "shift_plane" and gv == "micro":
            npan = (info["length"] + 7) // 8
            mt_arrays.append(np.empty(info["nb"] * npan * info["ckk"] * 8, np.float64))
    else:
        if impl != "shift_plane" and gv == "micro":
            mt_arrays[-1] = _pack_linear_weight(op.weight_t)
        source = mtcodegen.linear_source_mt(
            impl, epi, ilp64, hb=info["hb"], gemm=gv, consts=info["consts"],
        )
    nspec = dataclasses.replace(spec, extra=spec.extra + (("mt", gv),))
    try:
        fn = _native_fn(nspec, source, prefix="native-mt:")
    except toolchain.NativeUnavailable as err:
        _log_once(("mtcompile", kind), "threaded kernel compile failed: %s", err)
        return None
    _count("bound")
    if record is not None:
        record["backend"] = "native"
        record["threads"] = threads
        if impl != "shift_plane":
            record["gemm"] = gv
    par = _pack_call(fn, mt_arrays, mt_dims, scalars)
    ser = _pack_call(fn, [spf, *mt_arrays[1:]], mt_dims, scalars)
    return _checked_mt(par, ser, out, [x], record, f"{kind}/{impl}")


def _mt_simple(spec, source, arrays, dims, scalars, numpy_thunk, out, inputs,
               record, threads, key):
    """Threaded pool/gap/add/eltwise binding.  These tile grids preserve
    the numpy kernel's per-element operation order exactly, so the serial
    first-call parity check against numpy still applies unchanged."""
    pf = _mt_runtime(threads)
    if pf is None:
        return None
    try:
        fn = _native_fn(spec, source, prefix="native-mt:")
    except toolchain.NativeUnavailable as err:
        _log_once(("mtcompile", key), "threaded kernel compile failed: %s", err)
        return None
    _count("bound")
    if record is not None:
        record["backend"] = "native"
        record["threads"] = threads
    call = _pack_call(fn, [pf, *arrays], [threads, *dims], scalars)
    return _checked(call, numpy_thunk, out, inputs, record, key)


# -- bind-time gates ----------------------------------------------------------


def _contig_f64(*arrays) -> bool:
    return all(
        a is None or (a.dtype == np.float64 and a.flags.c_contiguous) for a in arrays
    )


def _const(a, dtype=np.float64):
    """Constant array in the exact layout C expects (copies are fine —
    these hold weights/indices, not per-batch data)."""
    return np.ascontiguousarray(a, dtype=dtype)


def _decline(key, why: str):
    _count("declined")
    _log_once(("decline", key), "native backend declined %s: %s", key, why)
    return None


def _blas_slots() -> list[int] | None:
    try:
        b = blas.blas_info()
    except blas.BlasUnavailable:
        return None
    return [b["gemm_addr"], b["gemv_addr"], b["dot_addr"]]


# -- float64 producers --------------------------------------------------------


def make_producer(kind, op, x, out, scratch, impl, sig, spec, numpy_thunk, record,
                  threads: int = 0):
    """Native conv/linear kernel bound over the fused node's arrays, or
    ``None``.  ``sig`` is the pre-``repr``'d epilogue signature and
    ``spec`` the numpy kernel's cache spec (reused, impl-prefixed, as the
    native cache key).  ``threads >= 1`` binds the tiled threaded variant
    (falling back to the serial untiled kernel if the runtime is out)."""
    if not available():
        return None
    if spec.dtype != "float64":
        return _decline((kind, "dtype"), f"dtype {spec.dtype} has no native kernels")
    epi = codegen.epilogue_struct(sig)
    if epi is None:
        return _decline((kind, "epilogue"), "epilogue step with no C lowering")
    bslots = _blas_slots()
    if bslots is None:
        return _decline((kind, "blas"), "no verifiable OpenBLAS for bitwise GEMMs")
    ilp64 = blas.blas_info()["ilp64"]
    if not _contig_f64(x, out):
        return _decline((kind, "layout"), "non-contiguous input/output view")
    shift = impl == "shift_plane" and getattr(op, "shift", None) is not None
    scalars = codegen.epilogue_scalars(sig)
    try:
        if kind == "conv":
            nb, c, h, w = x.shape
            k, s, p = op.kernel, op.stride, op.padding
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            length = oh * ow
            f, ckk = op.weight2d.shape
            onebyone = k == 1 and s == 1 and p == 0
            pad = scratch.get("pad")
            cols = scratch.get("cols")
            if not _contig_f64(pad, cols):
                return _decline((kind, "layout"), "non-contiguous scratch view")
            bias = None if op.bias is None else _const(op.bias)
            dead = None
            if op.dead_in_weight2d is not None:
                dead = _const(op._dead_bias_map(h, w))
                if dead.shape != (f, length):
                    return _decline((kind, "dead"), "unexpected dead-map shape")
            arrays = [*bslots, x, pad, cols, bias, dead, out]
            dims = [nb, c, h, w, k, s, p, f, ckk, length, oh, ow,
                    int(pad is not None), int(onebyone),
                    int(bias is not None), int(dead is not None)]
            if shift:
                dims.append(len(op.shift.planes))
                for j, plane in enumerate(op.shift.planes):
                    wj = _const(plane.weight)
                    idx = None if plane.col_index is None else _const(plane.col_index, np.int64)
                    rows = None if plane.rows is None else _const(plane.rows, np.int64)
                    sel = scratch.get(f"sel{j}")
                    part = scratch[f"part{j}"]
                    if not _contig_f64(sel, part):
                        return _decline((kind, "layout"), "non-contiguous plane scratch")
                    arrays += [wj, idx, sel, part, rows]
                    dims += [wj.shape[0], wj.shape[1],
                             int(idx is not None), int(rows is not None)]
            else:
                dims.append(0)
                arrays.append(_const(op.weight2d))
            consts = {"C": c, "H": h, "W": w, "K": k, "S": s, "P": p,
                      "F": f, "CKK": ckk, "L": length, "OH": oh, "OW": ow}
            source = codegen.conv_source(
                impl if shift else "dense",
                epi,
                ilp64,
                haspad=pad is not None,
                onebyone=onebyone,
                hb=bias is not None,
                hd=dead is not None,
                consts=consts,
            )
            mtinfo = {"haspad": pad is not None, "onebyone": onebyone,
                      "hb": bias is not None, "hd": dead is not None,
                      "consts": consts, "nb": nb, "ckk": ckk, "length": length}
        else:  # linear
            nb, in_f = x.shape
            f = op.weight_t.shape[1]
            bias = None if op.bias is None else _const(op.bias)
            arrays = [*bslots, x, bias, out]
            dims = [nb, in_f, f, int(bias is not None)]
            if shift:
                dims.append(len(op.shift.planes))
                for j, plane in enumerate(op.shift.planes):
                    wj = _const(plane.weight)
                    idx = None if plane.col_index is None else _const(plane.col_index, np.int64)
                    rows = None if plane.rows is None else _const(plane.rows, np.int64)
                    sel = scratch.get(f"sel{j}")
                    part = scratch[f"part{j}"]
                    if not _contig_f64(sel, part):
                        return _decline((kind, "layout"), "non-contiguous plane scratch")
                    arrays += [wj, idx, sel, part, rows]
                    dims += [wj.shape[1], wj.shape[0],
                             int(idx is not None), int(rows is not None)]
            else:
                dims.append(0)
                arrays.append(_const(op.weight_t))
            consts = {"IN": in_f, "F": f}
            source = codegen.linear_source(
                impl if shift else "dense",
                epi,
                ilp64,
                hb=bias is not None,
                consts=consts,
            )
            mtinfo = {"hb": bias is not None, "consts": consts, "nb": nb}
        if threads >= 1:
            mt = _mt_producer(kind, op, impl if shift else "dense", epi, ilp64,
                              spec, arrays, dims, scalars, x, out, record,
                              threads, mtinfo)
            if mt is not None:
                return mt
        fn = _native_fn(spec, source)
    except toolchain.NativeUnavailable as err:
        return _decline((kind, "compile"), str(err))
    _count("bound")
    if record is not None:
        record["backend"] = "native"
    call = _pack_call(fn, arrays, dims, scalars)
    return _checked(call, numpy_thunk, out, [x], record, f"{kind}/{impl}")


# -- float64 pools / add / eltwise --------------------------------------------


def make_pool(pool_kind, kernel, stride, x, out, sig, spec, numpy_thunk, record,
              threads: int = 0):
    if not available():
        return None
    if spec.dtype != "float64":
        return _decline((pool_kind, "dtype"), f"dtype {spec.dtype} has no native kernels")
    epi = codegen.epilogue_struct(sig)
    if epi is None:
        return _decline((pool_kind, "epilogue"), "epilogue step with no C lowering")
    if not _contig_f64(x, out):
        return _decline((pool_kind, "layout"), "non-contiguous input/output view")
    nb, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    consts = {"C": c, "H": h, "W": w, "K": kernel, "S": stride, "OH": oh, "OW": ow}
    scalars = [1.0 / (kernel * kernel)] + codegen.epilogue_scalars(sig)
    dims = [nb, c, h, w, kernel, stride, oh, ow, int(pool_kind == "avgpool")]
    if threads >= 1:
        from repro.infer.native.threading import codegen as mtcodegen

        mt = _mt_simple(
            spec,
            mtcodegen.pool_source_mt(epi, kernel, pool_kind == "avgpool", consts=consts),
            [x, out], dims, scalars, numpy_thunk, out, [x], record, threads, pool_kind,
        )
        if mt is not None:
            return mt
    try:
        fn = _native_fn(
            spec,
            codegen.pool_source(epi, kernel, pool_kind == "avgpool", consts=consts),
        )
    except toolchain.NativeUnavailable as err:
        return _decline((pool_kind, "compile"), str(err))
    _count("bound")
    if record is not None:
        record["backend"] = "native"
    call = _pack_call(fn, [x, out], dims, scalars)
    return _checked(call, numpy_thunk, out, [x], record, pool_kind)


def make_gap(x, out, sig, spec, numpy_thunk, record, threads: int = 0):
    if not available():
        return None
    if spec.dtype != "float64":
        return _decline(("gap", "dtype"), f"dtype {spec.dtype} has no native kernels")
    epi = codegen.epilogue_struct(sig)
    if epi is None:
        return _decline(("gap", "epilogue"), "epilogue step with no C lowering")
    if not _contig_f64(x, out):
        return _decline(("gap", "layout"), "non-contiguous input/output view")
    nb, c, h, w = x.shape
    consts = {"C": c, "HW": h * w}
    scalars = codegen.epilogue_scalars(sig)
    if threads >= 1:
        from repro.infer.native.threading import codegen as mtcodegen

        mt = _mt_simple(
            spec, mtcodegen.gap_source_mt(epi, consts=consts),
            [x, out], [nb, c, h * w], scalars, numpy_thunk, out, [x], record,
            threads, "gap",
        )
        if mt is not None:
            return mt
    try:
        fn = _native_fn(spec, codegen.gap_source(epi, consts=consts))
    except toolchain.NativeUnavailable as err:
        return _decline(("gap", "compile"), str(err))
    _count("bound")
    if record is not None:
        record["backend"] = "native"
    call = _pack_call(fn, [x, out], [nb, c, h * w], scalars)
    return _checked(call, numpy_thunk, out, [x], record, "gap")


def make_add(a, b, out, sig, spec, numpy_thunk, record, threads: int = 0):
    if not available():
        return None
    if spec.dtype != "float64":
        return _decline(("add", "dtype"), f"dtype {spec.dtype} has no native kernels")
    epi = codegen.epilogue_struct(sig)
    if epi is None:
        return _decline(("add", "epilogue"), "epilogue step with no C lowering")
    if not _contig_f64(a, b, out):
        return _decline(("add", "layout"), "non-contiguous input/output view")
    scalars = codegen.epilogue_scalars(sig)
    if threads >= 1:
        from repro.infer.native.threading import codegen as mtcodegen

        mt = _mt_simple(
            spec, mtcodegen.add_source_mt(epi), [a, b, out], [a.size], scalars,
            numpy_thunk, out, [a, b], record, threads, "add",
        )
        if mt is not None:
            return mt
    try:
        fn = _native_fn(spec, codegen.add_source(epi))
    except toolchain.NativeUnavailable as err:
        return _decline(("add", "compile"), str(err))
    _count("bound")
    if record is not None:
        record["backend"] = "native"
    call = _pack_call(fn, [a, b, out], [a.size], scalars)
    return _checked(call, numpy_thunk, out, [a, b], record, "add")


def make_eltwise(chain_sig, x, out, spec, numpy_thunk, record, threads: int = 0):
    """Standalone elementwise chain; ``chain_sig`` includes the head step
    (an affine head has no C lowering and declines)."""
    if not available():
        return None
    if spec.dtype != "float64":
        return _decline(("eltwise", "dtype"), f"dtype {spec.dtype} has no native kernels")
    struct = codegen.epilogue_struct(chain_sig)
    if struct is None:
        return _decline(("eltwise", "head"), "chain head with no C lowering")
    if not _contig_f64(x, out):
        return _decline(("eltwise", "layout"), "non-contiguous input/output view")
    scalars = codegen.epilogue_scalars(chain_sig)
    if threads >= 1:
        from repro.infer.native.threading import codegen as mtcodegen

        mt = _mt_simple(
            spec, mtcodegen.eltwise_source_mt(struct), [x, out], [x.size], scalars,
            numpy_thunk, out, [x], record, threads, "eltwise",
        )
        if mt is not None:
            return mt
    try:
        fn = _native_fn(spec, codegen.eltwise_source(struct))
    except toolchain.NativeUnavailable as err:
        return _decline(("eltwise", "compile"), str(err))
    _count("bound")
    if record is not None:
        record["backend"] = "native"
    call = _pack_call(fn, [x, out], [x.size], scalars)
    return _checked(call, numpy_thunk, out, [x], record, "eltwise")


# -- integer producers (intq) -------------------------------------------------


def _int_entry(ctx, op, kind: str):
    """Per-context cached native state for one integer op (ops are plain
    picklable dataclasses, so the invoker state lives on the context)."""
    cache = ctx.__dict__.setdefault("_native_int", {})
    entry = cache.get(op.index)
    if entry is not None and entry.get("op") is op:
        return entry
    entry = {"op": op, "mode": None, "fn": None, "consts": None}
    cache[op.index] = entry
    return entry


def run_int_producer(ctx, op, kind: str, data: np.ndarray, out: np.ndarray, numpy_run) -> bool:
    """Run one integer conv/linear natively; ``True`` iff ``out`` is filled.

    ``data`` is the prebuilt im2col columns (conv) or the cast activation
    matrix (linear), both in the op's accumulator dtype.  The first call
    per (context, op) runs the parity check against ``numpy_run``; a
    mismatch pins the op to numpy (returning ``False`` on later calls so
    the caller's numpy path runs).
    """
    entry = _int_entry(ctx, op, kind)
    if entry["mode"] == "numpy":
        return False
    acc_dt = np.dtype(op.acc_dtype)
    if entry["fn"] is None:
        if not available():
            entry["mode"] = "numpy"
            return False
        if not data.flags.c_contiguous or not out.flags.c_contiguous:
            entry["mode"] = "numpy"
            return False
        bslots = _blas_slots()
        threads = int(getattr(op, "threads", 0) or 0)
        mt_pf = _mt_runtime(threads) if threads >= 1 else None
        if mt_pf is not None:
            # Threaded integer kernels use the loops variant only: each
            # tile owns a per-worker int64 scratch row, and integer
            # exactness makes any tile order bitwise-identical anyway.
            variant = "mtloops"
        else:
            variant = "blas" if acc_dt == np.int32 and bslots is not None else "loops"
        ctype = "int32_t" if acc_dt == np.int32 else "int64_t"
        consts = op.consts
        f = op.filters
        prepared = {
            "M0": _const(consts["M0"], np.int64),
            "RND": _const(consts["RND"], np.int64),
            "SH": _const(consts["SH"], np.int64),
            "DMAP": _const(consts["DMAP"], np.int64) if "dead" in op.flags else None,
            "GB": _const(consts["GB"], np.int64) if "gb" in op.flags else None,
        }
        if variant == "blas":
            prepared["W"] = _const(consts["W"], np.float64)
            prepared["blas"] = bslots
        else:
            prepared["W"] = _const(consts["W"], acc_dt)
        from repro.infer.intq.kernels import step_struct
        from repro.infer.kernels import KernelSpec

        flags = tuple(sorted(op.flags)) + (("out32",) if out.dtype == np.int32 else ())
        fused = step_struct(op.fused)
        spec = KernelSpec(
            kind=f"int{kind}",
            impl=variant,
            shape=(),
            dtype=str(acc_dt),
            flags=flags,
            epilogue=(("rq", *fused),),
        )
        ilp64 = blas.blas_info()["ilp64"] if variant == "blas" else True
        if variant == "mtloops":
            from repro.infer.native.threading import codegen as mtcodegen

            mt_src = (
                mtcodegen.int_conv_source_mt if kind == "conv"
                else mtcodegen.int_linear_source_mt
            )
            src, prefix = mt_src(ctype, flags, fused), "native-mt:"
        else:
            src_fn = codegen.int_conv_source if kind == "conv" else codegen.int_linear_source
            src = src_fn(variant, ilp64=ilp64, ctype=ctype, flags=flags, fused=fused)
            prefix = "native:"
        try:
            fn = _native_fn(spec, src, prefix=prefix)
        except toolchain.NativeUnavailable as err:
            _log_once(("intcompile", kind), "native int kernel compile failed: %s", err)
            entry["mode"] = "numpy"
            return False
        entry.update(fn=fn, consts=prepared, variant=variant, pf=mt_pf, threads=threads)
        _count("bound")
    consts = entry["consts"]
    f = op.filters
    step_dims = [int(v) for step in op.fused for v in step[1:]]
    nb = data.shape[0]
    # Scratch and data buffers can be reallocated between batch sizes, so
    # the pointer blocks are rebuilt per call (unlike the float path, where
    # register identity is bind-stable).
    if kind == "conv":
        kdim, length = data.shape[1], data.shape[2]
        dims = [nb, f, kdim, length]
        if entry["variant"] == "mtloops":
            from repro.infer.native.threading import codegen as mtcodegen

            lim = entry["threads"]
            acc = ctx.buffer(op.index, "natmtacc", (lim, mtcodegen.FB * length), np.int64)
            arrays = [entry["pf"], data, consts["W"], acc,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
            dims = [lim, *dims]
        elif entry["variant"] == "blas":
            colsf = ctx.buffer(op.index, "natcolsf", (kdim, length), np.float64)
            accf = ctx.buffer(op.index, "nataccf", (f, length), np.float64)
            arrays = [*consts["blas"], data, consts["W"], colsf, accf,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
        else:
            acc = ctx.buffer(op.index, "natacc", (f, length), np.int64)
            arrays = [data, consts["W"], acc,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
    else:
        in_f = data.shape[1]
        dims = [nb, in_f, f]
        if entry["variant"] == "mtloops":
            lim = entry["threads"]
            row = ctx.buffer(op.index, "natmtrow", (lim, f), np.int64)
            arrays = [entry["pf"], data, consts["W"], row,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
            dims = [lim, *dims]
        elif entry["variant"] == "blas":
            xf = ctx.buffer(op.index, "natxf", (nb, in_f), np.float64)
            accf = ctx.buffer(op.index, "nataccf", (nb, f), np.float64)
            arrays = [*consts["blas"], data, consts["W"], xf, accf,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
        else:
            row = ctx.buffer(op.index, "natrow", (f,), np.int64)
            arrays = [data, consts["W"], row,
                      consts["M0"], consts["RND"], consts["SH"],
                      consts["DMAP"], consts["GB"], out]
    call = _pack_call(entry["fn"], arrays, dims + step_dims, [])
    if entry["mode"] == "native":
        call()
        return True
    # first call: parity check against the numpy kernel
    call()
    snap = out.copy()
    numpy_run()
    if np.array_equal(snap.view(np.uint8), out.view(np.uint8)):
        entry["mode"] = "native"
    else:
        entry["mode"] = "numpy"
        _count("check_failures")
        _log_once(
            ("intcheck", kind),
            "native int %s kernel failed the bitwise parity self-check; "
            "pinned to the numpy codegen",
            kind,
        )
    return True  # out holds the numpy (authoritative) result either way
