"""Locate numpy/scipy's bundled OpenBLAS and export raw CBLAS pointers.

Bitwise parity with ``np.matmul`` on float64 requires calling the *same*
BLAS build numpy calls, with the same per-shape dispatch numpy's matmul
umath loop uses:

* ``m > 1 and n > 1``  → ``cblas_dgemm(RowMajor, NoTrans, NoTrans, ...)``
* ``m == 1, n == 1``   → ``cblas_ddot``
* ``n == 1``           → ``cblas_dgemv(RowMajor, NoTrans, m, k, ...)``
* ``m == 1``           → ``cblas_dgemv(RowMajor, Trans,  k, n, ...)``

(Probed bitwise against np.matmul on this host before this design was
committed; gemm is *not* bitwise-equal to matmul when m or n is 1, which
is why generated C receives all three entry points and replicates the
dispatch at runtime.)

The wheel bundles OpenBLAS under ``numpy.libs`` (or ``scipy.libs``) with
mangled symbol names like ``scipy_cblas_dgemm64_``; we search the known
candidate name sets and record whether the build uses 64-bit (ILP64) or
32-bit integer dimensions so codegen can bake the matching ``blasint``
typedef.  The raw function addresses are handed to the generated kernels
through the pointer array — no linking involved.  The dlopen handle is
kept alive module-globally for the process lifetime.

``sgemm`` is probed next to the float64 entry points for the integer
kernels only: they sum exact integers, so no matmul dispatch needs
replicating, just a gemm that is exact on integer-valued float32.  A
missing or failing sgemm records ``sgemm_addr = None``: the integer
kernels then run their C loops, and the float64 kernels keep their BLAS.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import threading

import numpy as np

__all__ = ["blas_info", "BlasUnavailable"]


class BlasUnavailable(RuntimeError):
    pass


_lock = threading.Lock()
_info: dict | None = None
_handle = None  # keep the CDLL referenced forever

# (prefix applied to dgemm/dgemv/ddot, ilp64?) in preference order.  numpy
# >= 1.26 wheels ship scipy-openblas64 with the scipy_ prefix; older wheels
# used bare cblas_ names; a plain system libopenblas uses cblas_ too.
_SYMBOL_SETS = (
    ("scipy_cblas_", "64_", True),
    ("cblas_", "64_", True),
    ("scipy_cblas_", "", False),
    ("cblas_", "", False),
)


def _candidate_libs():
    seen = []
    for mod_dir in (os.path.dirname(np.__file__),):
        base = os.path.dirname(mod_dir)
        for pattern in (
            os.path.join(mod_dir, "*libs", "*openblas*"),
            os.path.join(base, "numpy.libs", "*openblas*"),
            os.path.join(base, "scipy.libs", "*openblas*"),
            os.path.join(mod_dir, "core", "*openblas*"),
            os.path.join(mod_dir, "_core", "*openblas*"),
        ):
            for path in sorted(glob.glob(pattern)):
                if path.endswith((".so", ".dylib")) or ".so." in os.path.basename(path):
                    if path not in seen:
                        seen.append(path)
    for name in ("openblas64_", "openblas", "blas"):
        found = ctypes.util.find_library(name)
        if found and found not in seen:
            seen.append(found)
    return seen


def _probe(path: str):
    lib = ctypes.CDLL(path, mode=ctypes.RTLD_GLOBAL)
    for prefix, suffix, ilp64 in _SYMBOL_SETS:
        try:
            gemm = getattr(lib, f"{prefix}dgemm{suffix}")
            gemv = getattr(lib, f"{prefix}dgemv{suffix}")
            dot = getattr(lib, f"{prefix}ddot{suffix}")
        except AttributeError:
            continue
        sgemm = getattr(lib, f"{prefix}sgemm{suffix}", None)
        return lib, {
            "path": path,
            "ilp64": ilp64,
            "gemm_addr": ctypes.cast(gemm, ctypes.c_void_p).value,
            "gemv_addr": ctypes.cast(gemv, ctypes.c_void_p).value,
            "dot_addr": ctypes.cast(dot, ctypes.c_void_p).value,
            "sgemm_addr": None if sgemm is None else ctypes.cast(sgemm, ctypes.c_void_p).value,
        }
    return None, None


def _gemm(addr: int, ilp64: bool, real, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through the row-major cblas ``?gemm`` at ``addr``."""
    (m, k), n = a.shape, b.shape[1]
    got = np.zeros((m, n), a.dtype)
    blasint = ctypes.c_longlong if ilp64 else ctypes.c_int
    ptr = ctypes.c_void_p
    # CBLAS order/transpose enums stay 32-bit ints even under ILP64.
    fn = ctypes.CFUNCTYPE(
        None, ctypes.c_int, ctypes.c_int, ctypes.c_int, blasint, blasint, blasint,
        real, ptr, blasint, ptr, blasint, real, ptr, blasint,
    )(addr)
    # 101 CblasRowMajor, 111 CblasNoTrans
    fn(101, 111, 111, m, n, k, 1.0, a.ctypes.data, k, b.ctypes.data, n, 0.0, got.ctypes.data, n)
    return got


def _verify(info: dict) -> bool:
    """One quick bitwise check that the located gemm matches np.matmul."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((5, 6))
    got = _gemm(info["gemm_addr"], info["ilp64"], ctypes.c_double, a, b)
    return np.array_equal((a @ b).view(np.uint8), got.view(np.uint8))


def _verify_sgemm(info: dict) -> bool:
    """sgemm on integer-valued float32 equals the exact integer product
    (sums up to ~2**22, a shape past the kernel's register tile)."""
    rng = np.random.default_rng(54321)
    a = rng.integers(-128, 128, (9, 75))
    b = rng.integers(-512, 512, (75, 37))
    a[0], b[:, 0] = 127, 511
    got = _gemm(info["sgemm_addr"], info["ilp64"], ctypes.c_float,
                a.astype(np.float32), b.astype(np.float32))
    return np.array_equal(got, (a @ b).astype(np.float32))


def blas_info() -> dict:
    """Resolve {gemm_addr, gemv_addr, dot_addr, sgemm_addr, ilp64, path};
    memoized.

    Raises :class:`BlasUnavailable` when no verifiable OpenBLAS is found;
    float64 producer kernels then stay on numpy (int kernels using pure C
    loops still work).  ``sgemm_addr`` is ``None`` when the library has
    no sgemm or it fails its integer probe.
    """
    global _info, _handle
    with _lock:
        if _info is not None:
            if _info.get("error"):
                raise BlasUnavailable(_info["error"])
            return _info
        last = "no OpenBLAS shared library found near numpy"
        for path in _candidate_libs():
            try:
                lib, info = _probe(path)
            except OSError as err:
                last = f"{path}: {err}"
                continue
            if info is None:
                last = f"{path}: no cblas dgemm/dgemv/ddot symbols"
                continue
            try:
                ok = _verify(info)
            except Exception as err:  # pragma: no cover - defensive
                last = f"{path}: verify crashed: {err}"
                continue
            if not ok:
                last = f"{path}: gemm result not bitwise-equal to np.matmul"
                continue
            if info["sgemm_addr"] is not None:
                try:
                    ok = _verify_sgemm(info)
                except Exception:  # pragma: no cover - defensive
                    ok = False
                if not ok:
                    info["sgemm_addr"] = None
            _handle = lib
            _info = info
            return _info
        _info = {"error": last}
        raise BlasUnavailable(last)
