"""Bind generated C kernels over the same arrays the numpy codegen uses.

This is the bridge between :mod:`repro.infer.kernels` /
:mod:`repro.infer.intq.kernels` (which own specs, scratch planning and the
numpy thunks) and the C side (:mod:`.codegen` / :mod:`.toolchain` /
:mod:`.blas`).  Each ``make_*`` function — float64 nodes and, as
``make_int_*``, the int8 program's conv, linear, max-pool and input
quantize — receives the already-bound numpy kernel plus every array the
fused node touches, and returns a callable drop-in replacement — or
``None`` when the native backend must decline (no toolchain, no
verifiable BLAS, an epilogue step with no C lowering, a non-contiguous
view, a dtype with no C kernel).

Binding only *starts* a kernel's compile (:func:`.toolchain.start_compile`);
the compiler runs while the rest of the program binds, so a traced
program's kernels compile concurrently, at most twice the effective CPUs
at once.  Each kernel waits for its own compile at its first call.

Fallback ladder (cheapest exit first):

1. *decline at bind* — any precondition above fails (or no compile can
   start); the caller keeps the numpy thunk it already built.  Logged once
   per reason.
2. *first-call parity check* — the returned thunk's first invocation waits
   for the compile, runs the C kernel, snapshots the output, re-runs the
   numpy kernel and compares **bytes**.  On mismatch it pins itself to
   numpy permanently (the numpy result, being last, is what downstream
   nodes consumed) and logs once.  On match it pins itself to the C kernel.
3. *never crash* — compile/load errors surface as
   :class:`~.toolchain.NativeUnavailable`: at bind they are a decline; a
   compile that fails after starting is found at that first call, which
   runs and pins the numpy thunk and counts a decline too.

The parity check costs one extra kernel execution and one output copy per
bound float thunk, and per (context, op) for an int8 kernel (see
:func:`_checked`) — amortized to nothing over a serving lifetime,
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
    "int_gemm",
    "make_int_producer",
    "make_int_maxpool",
    "make_int_quantize",
]

logger = logging.getLogger("repro.infer.native")

_lock = threading.Lock()
_logged: set = set()
_counters = {"bound": 0, "declined": 0, "check_failures": 0}
_reasons: dict[str, int] = {}  # decline count per "kind/reason"


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


def bound_backend(backend: str) -> str:
    """The backend kernels bind under ``PlanConfig.backend``: native
    whenever a toolchain is present, unless the config asks for numpy."""
    try:
        return "native" if backend != "numpy" and available() else "numpy"
    except Exception:  # pragma: no cover - the native backend never breaks a build
        return "numpy"


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
        info["blas"] = {
            "path": b["path"], "ilp64": b["ilp64"], "sgemm": b["sgemm_addr"] is not None,
        }
    except blas.BlasUnavailable as err:
        info["blas"] = {"error": str(err)}
    info.update(toolchain.compile_stats())
    with _lock:
        info.update(_counters)
        info["decline_reasons"] = dict(_reasons)
    return info


def reset() -> None:
    """Forget memoized toolchain state, log-once keys and counters (test
    helper)."""
    toolchain.reset()
    with _lock:
        _logged.clear()
        _reasons.clear()
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


def _pack_call(entry, arrays: list, dims: list, scalars: list):
    """Build the C argument blocks now (addresses resolved once at bind
    time — array *identities* must therefore be stable across calls, which
    the bound-once register model guarantees); returns ``link``, which
    waits for ``entry``'s compile and returns the zero-argument callable
    invoking its entry point over those blocks.  ``link`` raises
    :class:`~.toolchain.NativeUnavailable` if the compile or load failed."""
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

    def link():
        fn = entry.resolve()

        def call() -> None:
            fn(cptrs, cdims, cscal)

        call._keep = (keep, cptrs, cdims, cscal)  # pin the argument blocks
        return call

    link.entry = entry
    return link


class _Entry:
    """A kernel's C entry point, compiling from bind until :meth:`resolve`
    first waits for it (one per source, shared by every binding)."""

    __slots__ = ("source", "job", "fn")

    def __init__(self, source: str) -> None:
        self.source = source
        self.job = toolchain.start_compile(source)
        self.fn = None

    def resolve(self):
        if self.fn is None:
            self.fn = toolchain.load_library(self.job.result(), self.source)
        return self.fn


def _native_fn(spec, source: str) -> _Entry:
    """The (possibly still compiling) C kernel entry for ``spec``."""
    from repro.infer.kernels import KERNEL_CACHE

    nspec = dataclasses.replace(spec, impl="native:" + spec.impl)
    return KERNEL_CACHE.get_native(nspec, source, _Entry)


# -- the first-call parity check ----------------------------------------------


def _note(record, passed: bool) -> None:
    if record is not None:
        record["backend"] = "native" if passed else "numpy"
        if not passed:
            record["native_check_failed"] = True


def _from_verdict(link, numpy_thunk, record, memo):
    """The callable an earlier verdict on this (context, op) pins, or
    ``None`` when there is none to go by.

    A passing verdict pins the C kernel only once it is loaded (always,
    unless the kernel cache was cleared since; then it is checked again).
    """
    if memo is None:
        return None
    verdicts, op = memo
    seen = verdicts.get(op.index)
    if seen is None or seen[0] is not op or (seen[1] and link.entry.fn is None):
        return None
    _note(record, seen[1])
    return link() if seen[1] else numpy_thunk


def _checked(link, numpy_thunk, out: np.ndarray, inputs: list, record, key, memo=None):
    """A thunk that links the kernel (``link``, from :func:`_pack_call`) and
    self-verifies it bitwise on its first invocation.

    The first call waits for the kernel's compile.  A compile or load
    failure found there pins the numpy thunk and counts as a decline under
    ``(kind, "compile")``, ``kind`` being ``key`` up to its first ``/``.
    Once pinned, the thunk's ``pinned`` attribute holds the chosen
    callable, so a caller that keeps the thunk may call that directly
    (:meth:`repro.infer.fuse.TracedProgram.run` does).

    ``inputs`` are the arrays the numpy thunk *reads*; any that share
    memory with ``out`` (the in-place elementwise case, or register
    aliasing) are snapshotted before the native run and restored before
    the numpy re-run.

    A float kernel is checked once per bound program.  An int8 kernel
    passes ``memo = (verdicts, op)``, its context's
    :attr:`~repro.infer.plan.ExecutionContext.verdicts`: the verdict is
    kept per (context, op) and looked up both at bind and at the first
    call, so the batch blocks of one program and rebinds of the op for
    another batch size pin from it instead of re-running the numpy
    reference, which is several times slower than the C kernel.
    """
    _count("bound")
    pinned = _from_verdict(link, numpy_thunk, record, memo)
    if pinned is not None:
        return pinned
    if record is not None:
        record["backend"] = "native"
    aliased = [a for a in inputs if np.shares_memory(a, out)]

    def first() -> None:
        pinned = _from_verdict(link, numpy_thunk, record, memo)
        if pinned is not None:
            kernel.pinned = pinned
            pinned()
            return
        try:
            native_call = link()
        except toolchain.NativeUnavailable as err:
            kernel.pinned = numpy_thunk
            if record is not None:
                record["backend"] = "numpy"
            _decline((key.partition("/")[0], "compile"), str(err))
            numpy_thunk()
            return
        saved = [a.copy() for a in aliased]
        native_call()
        snap = out.copy()
        for a, s in zip(aliased, saved):
            a[...] = s
        numpy_thunk()
        passed = np.array_equal(snap.view(np.uint8), out.view(np.uint8))
        kernel.pinned = native_call if passed else numpy_thunk
        _note(record, passed)
        if memo is not None:
            memo[0][memo[1].index] = (memo[1], passed)
        if not passed:
            _count("check_failures")
            _log_once(
                ("check", key),
                "native kernel %s failed the bitwise parity self-check; "
                "pinned to the numpy codegen",
                key,
            )

    def kernel() -> None:
        fn = kernel.pinned
        if fn is None:
            first()
        else:
            fn()

    kernel.pinned = None
    return kernel


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
    """Count and log (once per ``key = (kind, reason)``) a decline."""
    reason = "/".join(key)
    with _lock:
        _counters["declined"] += 1
        _reasons[reason] = _reasons.get(reason, 0) + 1
    _log_once(("decline", key), "native backend declined %s: %s", key, why)
    return None


def _blas_slots() -> list[int] | None:
    try:
        b = blas.blas_info()
    except blas.BlasUnavailable:
        return None
    return [b["gemm_addr"], b["gemv_addr"], b["dot_addr"]]


# -- float64 producers --------------------------------------------------------


def make_producer(kind, op, x, out, scratch, impl, sig, spec, numpy_thunk, record):
    """Native conv/linear kernel bound over the fused node's arrays, or
    ``None``.  ``sig`` is the pre-``repr``'d epilogue signature and
    ``spec`` the numpy kernel's cache spec (reused, impl-prefixed, as the
    native cache key)."""
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
        entry = _native_fn(spec, source)
    except toolchain.NativeUnavailable as err:
        return _decline((kind, "compile"), str(err))
    link = _pack_call(entry, arrays, dims, scalars)
    return _checked(link, numpy_thunk, out, [x], record, f"{kind}/{impl}")


# -- float64 pools / add / eltwise --------------------------------------------


def make_pool(pool_kind, kernel, stride, x, out, sig, spec, numpy_thunk, record):
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
    try:
        entry = _native_fn(
            spec,
            codegen.pool_source(epi, kernel, pool_kind == "avgpool", consts=consts),
        )
    except toolchain.NativeUnavailable as err:
        return _decline((pool_kind, "compile"), str(err))
    link = _pack_call(entry, [x, out], dims, scalars)
    return _checked(link, numpy_thunk, out, [x], record, pool_kind)


def make_gap(x, out, sig, spec, numpy_thunk, record):
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
    try:
        entry = _native_fn(spec, codegen.gap_source(epi, consts=consts))
    except toolchain.NativeUnavailable as err:
        return _decline(("gap", "compile"), str(err))
    link = _pack_call(entry, [x, out], [nb, c, h * w], scalars)
    return _checked(link, numpy_thunk, out, [x], record, "gap")


def make_add(a, b, out, sig, spec, numpy_thunk, record):
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
    try:
        entry = _native_fn(spec, codegen.add_source(epi))
    except toolchain.NativeUnavailable as err:
        return _decline(("add", "compile"), str(err))
    link = _pack_call(entry, [a, b, out], [a.size], scalars)
    return _checked(link, numpy_thunk, out, [a, b], record, "add")


def make_eltwise(chain_sig, x, out, spec, numpy_thunk, record):
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
    try:
        entry = _native_fn(spec, codegen.eltwise_source(struct))
    except toolchain.NativeUnavailable as err:
        return _decline(("eltwise", "compile"), str(err))
    link = _pack_call(entry, [x, out], [x.size], scalars)
    return _checked(link, numpy_thunk, out, [x], record, "eltwise")


# -- integer ops (intq) -------------------------------------------------------


def _nan_code(dtype) -> int:
    """What numpy's unsafe cast stores for a NaN on this platform."""
    with np.errstate(invalid="ignore"):
        return int(np.array([np.nan]).astype(dtype)[0])


def _int_codes(*arrays) -> bool:
    return all(a.dtype in (np.int32, np.int64) and a.flags.c_contiguous for a in arrays)


def int_gemm(acc_bound: int) -> str:
    """The GEMM the native int conv/linear runs for a layer whose static
    accumulator bound is ``acc_bound``: ``"sgemm"`` below 2**24 when the
    BLAS has a verified sgemm, else ``"loops"`` (the C MAC loops).

    Below 2**24 every code, weight, product and partial sum is an integer
    float32 holds exactly, so any summation order gives the exact sum.
    """
    if acc_bound >= 2**24:
        return "loops"
    try:
        return "sgemm" if blas.blas_info()["sgemm_addr"] else "loops"
    except blas.BlasUnavailable:
        return "loops"


def _int_consts(op, variant: str) -> dict:
    """``op``'s constants in the layout the C kernel reads, cached on the op
    (every context and batch size binds the same arrays; W in the
    variant's element type — float32 for sgemm, the accumulator dtype for
    the loops — is the one real copy)."""
    cached = op.native_consts.get(variant)
    if cached is None:
        consts = op.consts
        w_dt = np.float32 if variant == "sgemm" else np.dtype(op.acc_dtype)
        cached = {
            "W": _const(consts["W"], w_dt),
            "M0": _const(consts["M0"], np.int64),
            "RND": _const(consts["RND"], np.int64),
            "SH": _const(consts["SH"], np.int64),
            "DMAP": _const(consts["DMAP"], np.int64) if "dead" in op.flags else None,
            "GB": _const(consts["GB"], np.int64) if "gb" in op.flags else None,
        }
        op.native_consts[variant] = cached
    return cached


def make_int_producer(kind, op, x, out, steps, numpy_thunk, record, verdicts):
    """Native int conv/linear over the node's arrays, or ``None``.

    ``x`` is the conv's NCHW codes (padded and unrolled in C, one sample at
    a time, into scratch private to this thunk) or the linear's codes
    already in the accumulator dtype; ``steps`` are the epilogue steps the
    IR folded in.  :func:`int_gemm` picks the GEMM from ``op.acc_bound``:
    sgemm on float32 below 2**24 (exact: every product and partial sum is
    an integer float32 holds), else plain C MAC loops; ``record["gemm"]``
    notes the pick.  Checked once per (context, op) through ``verdicts``.
    """
    from repro.infer.intq.kernels import step_struct
    from repro.infer.kernels import KernelSpec

    if not available():
        return None
    key = ("int" + kind, "layout")
    acc_dt = np.dtype(op.acc_dtype)
    if not _int_codes(x, out) or (kind == "linear" and x.dtype != acc_dt):
        return _decline(key, "input/output not contiguous codes in a kernel dtype")
    variant = int_gemm(op.acc_bound)
    consts = _int_consts(op, variant)
    flags = tuple(sorted(op.flags)) + (("out32",) if out.dtype == np.int32 else ())
    fused = step_struct(steps)
    ctype = "int32_t" if acc_dt == np.int32 else "int64_t"
    xtype = "int32_t" if x.dtype == np.int32 else "int64_t"
    gemm, ilp64 = [], True
    if variant == "sgemm":
        info = blas.blas_info()
        gemm, ilp64 = [info["sgemm_addr"]], info["ilp64"]
    spec = KernelSpec(
        kind=f"int{kind}", impl=variant, shape=(), dtype=str(acc_dt), flags=flags,
        epilogue=(("rq", *fused),), extra=(xtype,),
    )
    try:
        if kind == "conv":
            source = codegen.int_conv_source(variant, ilp64, ctype, flags, fused, xtype)
        else:
            source = codegen.int_linear_source(variant, ilp64, ctype, flags, fused)
        entry = _native_fn(spec, source)
    except toolchain.NativeUnavailable as err:
        return _decline(("int" + kind, "compile"), str(err))
    f = op.filters
    # Element type of pad/cols/xf and of the accumulator scratch.
    et = consts["W"].dtype
    acc = et if gemm else np.int64
    tail = [consts["M0"], consts["RND"], consts["SH"], consts["DMAP"], consts["GB"], out]
    if kind == "conv":
        nb, c, h, w = x.shape
        k, s, p = op.kernel, op.stride, op.padding
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        ckk, length = c * k * k, oh * ow
        dims = [nb, c, h, w, k, s, p, f, ckk, length, oh, ow]
        pad = np.zeros((c, h + 2 * p, w + 2 * p), et)
        cols = np.empty((ckk, length), et)
        arrays = [x, consts["W"], pad, cols, np.empty((f, length), acc), *tail, *gemm]
    else:
        nb, in_f = x.shape
        dims = [nb, in_f, f]
        xf = np.empty((nb, in_f), et) if gemm else None
        accs = np.empty((nb, f) if gemm else f, acc)
        arrays = [x, consts["W"], xf, accs, *tail, *gemm]
    dims += [int(v) for step in steps for v in step[1:]]
    if record is not None:
        record["gemm"] = variant
    link = _pack_call(entry, arrays, dims, [])
    return _checked(link, numpy_thunk, out, [x], record, f"int{kind}", (verdicts, op))


def make_int_maxpool(op, x, out, numpy_thunk, record, verdicts):
    """Native int max-pool over the NCHW codes (the float pool's emitter at
    the codes' element type), or ``None``."""
    if not available():
        return None
    if not _int_codes(x, out) or out.dtype != x.dtype:
        return _decline(("intmaxpool", "layout"), "input/output not contiguous codes")
    from repro.infer.kernels import KernelSpec

    ct = "int32_t" if x.dtype == np.int32 else "int64_t"
    spec = KernelSpec("intmaxpool", "", (), str(x.dtype), (), (), (op.kernel,))
    try:
        entry = _native_fn(spec, codegen.pool_source((), op.kernel, ct=ct))
    except toolchain.NativeUnavailable as err:
        return _decline(("intmaxpool", "compile"), str(err))
    nb, c, h, w = x.shape
    k, s = op.kernel, op.stride
    dims = [nb, c, h, w, k, s, (h - k) // s + 1, (w - k) // s + 1, 0]
    link = _pack_call(entry, [x, out], dims, [])
    return _checked(link, numpy_thunk, out, [x], record, "intmaxpool", (verdicts, op))


def make_int_quantize(op, x, out, numpy_thunk, record, verdicts):
    """Native input quantize (float64 -> int32 codes), or ``None``."""
    if not available():
        return None
    if not (
        _contig_f64(x) and out.dtype == np.int32 and out.flags.c_contiguous
        and -(2**31) <= op.lo <= op.hi < 2**31
    ):
        return _decline(("intquantize", "layout"), "not a contiguous float64 -> int32 cast")
    from repro.infer.kernels import KernelSpec

    spec = KernelSpec("intquantize", "", (), "float64", (), ())
    try:
        entry = _native_fn(spec, codegen.eltwise_source(("aq",), "int32_t"))
    except toolchain.NativeUnavailable as err:
        return _decline(("intquantize", "compile"), str(err))
    link = _pack_call(
        entry, [x, out], [x.size, _nan_code(np.int32)], [op.inv_step, op.lo, op.hi, 1.0]
    )
    return _checked(link, numpy_thunk, out, [x], record, "intquantize", (verdicts, op))
