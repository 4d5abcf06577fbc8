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

The key hashes the *source text plus the compiler command line*, so a flag
or codegen change never reuses a stale binary; a warm plan build therefore
skips the toolchain entirely.  A cached ``.so`` that fails to ``dlopen``
(torn write, wrong arch after a cache-dir copy) is deleted and recompiled
once.

Compiles run concurrently: :func:`start_compile` spawns the compiler and
returns at once, and :meth:`CompileJob.result` waits for it.  At most
twice :func:`~repro.utils.cpu.effective_cpus` compilers run at once;
starting one more waits for whichever finishes first.  There is no thread
pool: a waiting caller polls its own process's compilers, and a process
forked while compiles run never waits on its parent's.

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
import time

from repro.utils.cpu import effective_cpus

__all__ = [
    "NativeUnavailable",
    "cache_root",
    "native_cache_dir",
    "find_compiler",
    "compile_flags",
    "start_compile",
    "compile_source",
    "compile_stats",
    "load_library",
    "loader_kind",
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


def _cache_key(source: str, cc: str, flags: tuple) -> str:
    blob = "\x00".join([source, cc, *flags]).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _max_in_flight() -> int:
    """How many compilers run at once: twice the CPUs this process may
    use.  On a 2-CPU host bounds of 2, 4 and 8 gave the float bench
    engine about the same first call (0.8-1.0 s); the bound only caps the
    compiler processes (and their memory) alive at once."""
    return 2 * effective_cpus()


class CompileJob:
    """One kernel compile, started by :func:`start_compile`.

    :meth:`result` waits for the compiler (if one still runs) and returns
    the cached binary's path, or raises :class:`NativeUnavailable`.  Any
    number of threads may wait on one job.  A process forked while the job
    runs never waits on its parent's compiler: there, :meth:`result`
    compiles the source afresh (or finds the parent's binary on disk).
    """

    def __init__(self, so_path: str, source: str, finished: bool) -> None:
        self.so_path = so_path
        self.source = source
        self.owner = os.getpid()
        self.finished = finished  # a cached binary has nothing to run
        self.error: NativeUnavailable | None = None
        self.proc = None  # the compiler, once spawned
        self.started = 0.0
        self._tmp_c = self._tmp_so = self._stderr = None

    def _spawn(self, cc: str, flags: tuple, cdir: str, key: str) -> None:
        """Write the source, wait for a compiler slot and start the
        compiler; an error here finishes the job as failed."""
        try:
            fd, self._tmp_c = tempfile.mkstemp(suffix=".c", prefix=f"k{key}-", dir=cdir)
            self._tmp_so = self._tmp_c[:-2] + ".so"
            with os.fdopen(fd, "w") as fh:
                fh.write(self.source)
            # A file, not a pipe: nobody drains stderr while gcc runs.
            self._stderr = tempfile.TemporaryFile()
            _take_slot(self)
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                [cc, *flags, "-o", self._tmp_so, self._tmp_c, "-lm"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._stderr,
            )
        except (OSError, subprocess.SubprocessError) as err:
            with _jobs_lock:
                if self in _running:
                    _running.remove(self)
                self.error = NativeUnavailable(f"cannot start the kernel compile: {err}")
                self._finish_locked()

    def result(self) -> str:
        if self.owner != os.getpid():
            return compile_source(self.source)
        while True:
            with _jobs_lock:
                _reap_locked()
                if self.finished:
                    break
            time.sleep(_POLL_S)
        if self.error is not None:
            raise self.error
        return self.so_path

    def _finish_locked(self) -> None:
        """Account for the exited compiler and move its binary into place."""
        self.finished = True
        _jobs.pop(self.so_path, None)
        if self.proc is not None:
            _stats["compiles"] += 1
            _stats["compile_s"] += time.perf_counter() - self.started
            if self.proc.returncode != 0:
                self._stderr.seek(0)
                err = self._stderr.read().decode(errors="replace").strip()
                self.error = NativeUnavailable(f"native kernel compile failed: {err[:300]}")
            else:
                try:
                    os.replace(self._tmp_so, self.so_path)
                    os.replace(self._tmp_c, self.so_path[:-3] + ".c")
                except OSError as err:
                    self.error = NativeUnavailable(f"cannot store the compiled kernel: {err}")
        if self._stderr is not None:
            self._stderr.close()
        for leftover in (self._tmp_c, self._tmp_so):
            if leftover:
                try:
                    os.unlink(leftover)
                except OSError:
                    pass


#: Compiles this process started and has not finished, by ``.so`` path, and
#: the ones whose compiler still runs (or holds a reserved slot).
_jobs: dict[str, CompileJob] = {}
_running: list[CompileJob] = []
_jobs_lock = threading.Lock()
_stats = {"compiles": 0, "compile_s": 0.0, "max_in_flight": 0}
#: Seconds between looks at the running compilers while a caller waits.
_POLL_S = 0.002


def _reap_locked() -> None:
    """Finish every job whose compiler has exited and free its slot."""
    alive = []
    for job in _running:
        if job.proc is None or job.proc.poll() is None:
            alive.append(job)
        else:
            job._finish_locked()
    _running[:] = alive


def _take_slot(job: CompileJob) -> None:
    """Wait until fewer than :func:`_max_in_flight` compilers run (for
    whichever finishes first), then reserve a slot for ``job``."""
    bound = _max_in_flight()
    while True:
        with _jobs_lock:
            _reap_locked()
            if len(_running) < bound:
                _running.append(job)
                _stats["max_in_flight"] = max(_stats["max_in_flight"], len(_running))
                return
        time.sleep(_POLL_S)


def _forget_parent_jobs() -> None:
    # A forked child must not poll its parent's compilers: waitpid on a
    # pid that is not its child reads as a clean exit, which would move a
    # half-written binary into the cache.
    global _jobs_lock
    _jobs_lock = threading.Lock()
    _jobs.clear()
    _running.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_jobs)


def start_compile(source: str) -> CompileJob:
    """Start compiling ``source`` unless its binary is cached; returns the
    job without waiting for the compiler.

    A source already compiling in this process shares that job.  The flags
    join the cache key, so a flag change never reuses a stale binary.
    Starting waits only when :func:`_max_in_flight` compilers already run.
    """
    cc = find_compiler()
    flags = compile_flags()
    cdir = native_cache_dir()
    key = _cache_key(source, cc, flags)
    so_path = os.path.join(cdir, f"k{key}.so")
    with _jobs_lock:
        job = _jobs.get(so_path)
        if job is not None:
            return job
        if os.path.exists(so_path):
            return CompileJob(so_path, source, finished=True)
        job = _jobs[so_path] = CompileJob(so_path, source, finished=False)
    job._spawn(cc, flags, cdir, key)
    return job


def compile_source(source: str) -> str:
    """Compile ``source`` (or reuse the disk cache); returns the ``.so`` path.

    The write is atomic (temp file + ``os.replace``), so concurrent
    processes racing on the same key both end up with a whole binary.
    """
    return start_compile(source).result()


def compile_stats() -> dict:
    """Compiler processes run, their summed wall time and the most that ran
    at once, since the last :func:`reset`.  A compiler's wall time ends
    when a waiter or a new compile sees it exit, within ``_POLL_S`` while
    anyone waits."""
    with _jobs_lock:
        return dict(_stats)


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
    with _jobs_lock:
        _stats.update(compiles=0, compile_s=0.0, max_in_flight=0)
