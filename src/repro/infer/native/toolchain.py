"""C toolchain discovery, the on-disk compile cache, and library loading.

The native backend compiles small self-contained C translation units (no
``Python.h``; a single exported ``run`` entry point with a uniform pointer
ABI) with whatever host compiler exists.  Everything here degrades
gracefully: no compiler, a failing compile, an unwritable cache directory
or a corrupted cached ``.so`` must each surface as
:class:`NativeUnavailable` (or a silent recompile) — never an exception
escaping into plan compilation.

Layout of the disk cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)::

    <root>/native/k<sha256[:24]>.c    generated source (kept for debugging)
    <root>/native/k<sha256[:24]>.so   compiled shared object
    <root>/autotune_<hosthash>.json   persisted autotune decisions

The key hashes the *source text plus the compiler command line*, so a flag
or codegen change never reuses a stale binary; a warm plan build therefore
skips the toolchain entirely.  A cached ``.so`` that fails to ``dlopen``
(torn write, wrong arch after a cache-dir copy) is deleted and recompiled
once.

Compiler choice honors ``$CC`` *strictly* when set — pointing it at a
non-executable path (CI's ``CC=/nonexistent`` leg, the forced-fallback
tests) disables the backend rather than silently picking up ``cc``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

__all__ = [
    "NativeUnavailable",
    "cache_root",
    "native_cache_dir",
    "find_compiler",
    "compile_flags",
    "compile_source",
    "load_library",
    "loader_kind",
    "toolchain_fingerprint",
    "reset",
]

#: Baseline flags.  ``-ffp-contract=off`` matters for bitwise parity (gcc
#: contracts a*b+c into fma by default at -O2+); ``-ffast-math`` must never
#: appear.  ``-fno-math-errno``/``-fno-trapping-math`` are value-preserving —
#: they relax errno/FP-exception bookkeeping only, which lets the epilogue's
#: NaN-propagating compares and ``rint`` calls if-convert and vectorize.
#: ``-march=native`` is safe because the cache is host-local and keyed by the
#: full command line; it is probed once and dropped on compilers that reject
#: it.
_BASE_FLAGS = (
    "-O3",
    "-fPIC",
    "-shared",
    "-fno-math-errno",
    "-fno-trapping-math",
    "-ffp-contract=off",
)
_ARCH_FLAG = "-march=native"

_lock = threading.RLock()
_compiler: tuple | None = None  # memo: (path | None, reason | None)
_flags: tuple | None = None
_libs: dict[str, object] = {}  # so path -> loaded library (never closed)
_loader: str | None = None
_ffi = None


class NativeUnavailable(RuntimeError):
    """The native backend cannot be used here; callers fall back to numpy."""


def cache_root() -> str:
    root = os.environ.get("REPRO_CACHE_DIR")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return root


def native_cache_dir() -> str:
    """The compile-cache directory, created (or a tempdir fallback) on use."""
    path = os.path.join(cache_root(), "native")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        path = os.path.join(tempfile.gettempdir(), "repro-native-cache")
        os.makedirs(path, exist_ok=True)
        return path


def find_compiler() -> str:
    """Resolve the C compiler; raises :class:`NativeUnavailable` if none.

    ``$CC`` is authoritative when set (no fallback), so ``CC=/nonexistent``
    deterministically simulates a toolchain-free host.
    """
    global _compiler
    with _lock:
        if _compiler is None:
            env = os.environ.get("CC")
            if env:
                path = shutil.which(env)
                _compiler = (path, None if path else f"$CC={env!r} is not executable")
            else:
                path = next(
                    (p for c in ("cc", "gcc", "clang") if (p := shutil.which(c))), None
                )
                _compiler = (path, None if path else "no C compiler (cc/gcc/clang) on PATH")
        path, reason = _compiler
        if path is None:
            raise NativeUnavailable(reason)
        return path


def compile_flags() -> tuple:
    """Compiler flags, with ``-march=native`` probed once per process."""
    global _flags
    with _lock:
        if _flags is not None:
            return _flags
        cc = find_compiler()
        probe = "int probe_fn(int x) { return x + 1; }\n"
        with tempfile.TemporaryDirectory(prefix="repro-ccprobe-") as tmp:
            src = os.path.join(tmp, "p.c")
            out = os.path.join(tmp, "p.so")
            with open(src, "w") as fh:
                fh.write(probe)
            for flags in ((*_BASE_FLAGS, _ARCH_FLAG), _BASE_FLAGS):
                proc = subprocess.run(
                    [cc, *flags, "-o", out, src, "-lm"],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode == 0:
                    _flags = flags
                    return _flags
        raise NativeUnavailable(
            f"compiler {cc!r} failed the probe compile: {proc.stderr.strip()[:200]}"
        )


def toolchain_fingerprint() -> str:
    """Short stable id of (compiler, flags) for autotune host keys."""
    try:
        cc = find_compiler()
        flags = compile_flags()
    except NativeUnavailable:
        return "none"
    return hashlib.sha256((cc + " " + " ".join(flags)).encode()).hexdigest()[:12]


def _cache_key(source: str, cc: str, flags: tuple) -> str:
    blob = "\x00".join([source, cc, *flags]).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def compile_source(source: str) -> str:
    """Compile ``source`` (or reuse the disk cache); returns the ``.so`` path.

    The write is atomic (temp file + ``os.replace``), so concurrent
    processes racing on the same key both end up with a whole binary.
    The flags join the cache key, so a flag change never reuses a stale
    binary.
    """
    cc = find_compiler()
    flags = compile_flags()
    cdir = native_cache_dir()
    key = _cache_key(source, cc, flags)
    so_path = os.path.join(cdir, f"k{key}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp_c = tempfile.mkstemp(suffix=".c", prefix=f"k{key}-", dir=cdir)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, *flags, "-o", tmp_so, tmp_c, "-lm"], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"native kernel compile failed: {proc.stderr.strip()[:300]}"
            )
        os.replace(tmp_so, so_path)
        c_path = os.path.join(cdir, f"k{key}.c")
        try:
            os.replace(tmp_c, c_path)
        except OSError:
            pass
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return so_path


def loader_kind() -> str:
    """``"cffi"`` when available (lower per-call overhead), else ``"ctypes"``."""
    global _loader, _ffi
    with _lock:
        if _loader is None:
            try:
                import cffi

                _ffi = cffi.FFI()
                _ffi.cdef("void run(void **ptrs, long long *dims, double *scalars);")
                _loader = "cffi"
            except Exception:
                _loader = "ctypes"
        return _loader


def ffi():
    loader_kind()
    return _ffi


def _dlopen(so_path: str):
    if loader_kind() == "cffi":
        lib = _ffi.dlopen(so_path)
        return lib.run
    import ctypes

    lib = ctypes.CDLL(so_path)
    fn = lib.run
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.POINTER(ctypes.c_double),
    ]
    fn.restype = None
    return fn


def load_library(so_path: str, source: str | None = None):
    """``dlopen`` a compiled kernel, recovering once from a corrupt entry.

    Returns the raw ``run`` entry point (a cffi function or a ctypes
    function, per :func:`loader_kind`).  Libraries stay mapped for the
    process lifetime — the number of distinct sources is structurally
    bounded (a few dozen), so eviction of cache *entries* never unloads
    code that bound kernels still point into.
    """
    with _lock:
        fn = _libs.get(so_path)
        if fn is not None:
            return fn
        try:
            fn = _dlopen(so_path)
        except OSError as first_err:
            # Corrupted disk-cache entry (torn write / truncation / foreign
            # arch): drop it and recompile once if we still have the source.
            try:
                os.unlink(so_path)
            except OSError:
                pass
            if source is None:
                raise NativeUnavailable(f"cannot load {so_path}: {first_err}") from first_err
            rebuilt = compile_source(source)
            try:
                fn = _dlopen(rebuilt)
            except OSError as err:  # pragma: no cover - recompile also broken
                raise NativeUnavailable(f"cannot load recompiled kernel: {err}") from err
        _libs[so_path] = fn
        return fn


def reset() -> None:
    """Forget process-level memos (tests flip ``$CC`` / cache dirs)."""
    global _compiler, _flags
    with _lock:
        _compiler = None
        _flags = None
        _libs.clear()
