"""Native C backend: bitwise parity, fallback ladder and cache plumbing.

Every native kernel must be *bitwise* identical to the numpy codegen it
replaces — 8 Table-1 configs x {float64, int8} x {full-row, live-row
GEMMs} — and the backend must degrade to numpy (never crash) when the
toolchain is missing or a cached binary is corrupt.  Parity runs even on a
toolchain-free host (both sides are then numpy and trivially equal); the
"native actually executed" assertions are gated on
:func:`binding.available`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig
from repro.infer import kernels
from repro.infer.native import binding, toolchain

from tests.infer.conftest import apply_dead_rows, build_small_network, sample_images

ALL_CONFIGS = tuple(range(1, 9))
#: Full-row and live-row GEMMs (see ``DEAD_ROW_CASES``).
ROWS = ("dense", "shift_plane")

NATIVE_OK = binding.available()
needs_toolchain = pytest.mark.skipif(
    not NATIVE_OK, reason="no C toolchain on this host"
)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-level equality (``==`` would let ``-0.0 == 0.0`` hide a drift)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _int8_kernel_backends(engine, shape: tuple) -> dict:
    """Backend of each node with a C kernel (conv, linear, max-pool, input
    quantize) in the int8 engine's bound program for ``shape``, by phase."""
    program = engine.plan.traced_program(shape)
    return {
        p.phase: program.node_backends[p.node.index]["backend"]
        for p in program.node_plans
        if p.node.kind in ("conv", "linear", "maxpool") or p.node.head == ("quantize",)
    }


def _traced_backend_counts(engine) -> dict:
    counts: dict[str, int] = {}
    for prog in engine.plan._traced.values():
        for name, n in prog.backend_counts().items():
            counts[name] = counts.get(name, 0) + n
    return counts


# -- bitwise parity -----------------------------------------------------------


class TestBitwiseParity:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_float64(self, network_id, rows):
        """The default (native) backend reproduces backend="numpy"
        byte-for-byte, on full-row and on live-row GEMMs."""
        model = build_small_network(network_id)
        prune = apply_dead_rows(model, rows)
        images = sample_images(5, seed=network_id)
        want = InferenceEngine(
            model, config=PlanConfig(prune=prune, backend="numpy")
        ).predict_logits(images)
        native_engine = InferenceEngine(model, config=PlanConfig(prune=prune))
        got = native_engine.predict_logits(images)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            counts = _traced_backend_counts(native_engine)
            assert counts.get("native", 0) > 0, counts

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_int8(self, network_id, rows):
        """The integer program's native kernels are exact: same bits, with
        and without dead filters kept in the plan."""
        model = build_small_network(network_id)
        prune = apply_dead_rows(model, rows)
        images = sample_images(4, seed=network_id)
        want = InferenceEngine(
            model, config=PlanConfig(dtype="int8", prune=prune, backend="numpy")
        ).predict_logits(images)
        native_engine = InferenceEngine(model, config=PlanConfig(dtype="int8", prune=prune))
        got = native_engine.predict_logits(images)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            backends = _int8_kernel_backends(native_engine, images.shape)
            assert set(backends.values()) == {"native"}, backends
            assert native_engine.plan_summary()["native"]["check_failures"] == 0

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_int8_backend_is_native_exactly_when_available(self, backend):
        """No tournament: int8 ops take native whenever a toolchain is
        present and the config does not ask for numpy."""
        engine = InferenceEngine(
            build_small_network(2), config=PlanConfig(dtype="int8", backend=backend)
        )
        want = "native" if backend == "auto" and binding.available() else "numpy"
        images = sample_images(3, seed=5)
        engine.predict_logits(images)
        backends = _int8_kernel_backends(engine, images.shape)
        assert {name.split(":")[1].split("[")[0] for name in backends} >= {
            "conv", "linear", "quantize"
        }
        assert set(backends.values()) == {want}
        layers = engine.plan_summary()["intq"]["layers"]
        assert {(l["impl"], l["backend"]) for l in layers} == {("intq_gemm", want)}

    def test_batch_size_does_not_change_native_bits(self):
        """Kernels are rebound per batch shape; every binding must agree."""
        model = build_small_network(4)
        images = sample_images(16, seed=2)
        engine = InferenceEngine(model)
        ref = engine.predict_logits(images, batch_size=16)
        for bs in (1, 3, 16):
            assert _bitwise_equal(engine.predict_logits(images, batch_size=bs), ref)


# -- fallback ladder ----------------------------------------------------------


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a host without a C compiler, hermetically.

    ``$CC`` points at a non-executable path (honored strictly by
    :func:`toolchain.find_compiler`), the cache root moves to a tempdir so
    nothing touches the real host caches, and the process-wide memo /
    kernel caches are cleared on both sides so no previously compiled
    native function can leak in (the kernel cache is keyed spec-first).
    """
    monkeypatch.setenv("CC", "/nonexistent-compiler")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    binding.reset()
    kernels.clear_caches()
    yield
    binding.reset()
    kernels.clear_caches()


class TestFallback:
    def test_missing_toolchain_serves_numpy(self, no_toolchain):
        """No compiler: the plan builds, serves, and binds zero native ops."""
        assert not binding.available()
        model = build_small_network(4)
        images = sample_images(5, seed=9)
        engine = InferenceEngine(model)
        got = engine.predict_logits(images)
        want = InferenceEngine(
            model, config=PlanConfig(backend="numpy")
        ).predict_logits(images)
        assert _bitwise_equal(got, want)
        counts = _traced_backend_counts(engine)
        assert counts.get("native", 0) == 0, counts
        assert counts.get("numpy", 0) > 0

    def test_missing_toolchain_int8_serves_numpy(self, no_toolchain):
        """No compiler: every int8 op is built on numpy, and serves the
        same bytes as an explicit backend="numpy" plan."""
        model = build_small_network(6)
        images = sample_images(3, seed=1)
        engine = InferenceEngine(model, config=PlanConfig(dtype="int8"))
        assert {l["backend"] for l in engine.plan_summary()["intq"]["layers"]} == {"numpy"}
        want = InferenceEngine(
            model, config=PlanConfig(dtype="int8", backend="numpy")
        ).predict_logits(images)
        assert _bitwise_equal(engine.predict_logits(images), want)
        assert set(_int8_kernel_backends(engine, images.shape).values()) == {"numpy"}

    def test_status_reports_reason(self, no_toolchain):
        info = binding.status()
        assert info["available"] is False
        assert "reason" in info


@needs_toolchain
class TestDiskCache:
    SOURCE = (
        "void run(void **ptrs, long long *dims, double *scalars)\n"
        "{ (void)ptrs; (void)dims; (void)scalars; }\n"
    )

    @pytest.fixture(autouse=True)
    def hermetic_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        binding.reset()
        yield
        binding.reset()

    def test_corrupted_so_is_recompiled(self):
        """A torn/garbage cached binary is dropped and rebuilt once."""
        so_path = toolchain.compile_source(self.SOURCE)
        assert os.path.exists(so_path)
        with open(so_path, "wb") as fh:
            fh.write(b"\x7fELFgarbage")
        toolchain.reset()  # drop the mapped-library memo
        fn = toolchain.load_library(so_path, self.SOURCE)
        assert fn is not None
        assert os.path.getsize(so_path) > len(b"\x7fELFgarbage")

    def test_corrupted_so_without_source_raises_unavailable(self):
        so_path = toolchain.compile_source(self.SOURCE)
        with open(so_path, "wb") as fh:
            fh.write(b"junk")
        toolchain.reset()
        with pytest.raises(toolchain.NativeUnavailable):
            toolchain.load_library(so_path)

    def test_compile_cache_hits_on_identical_source(self):
        first = toolchain.compile_source(self.SOURCE)
        mtime = os.path.getmtime(first)
        second = toolchain.compile_source(self.SOURCE)
        assert first == second
        assert os.path.getmtime(second) == mtime  # reused, not rebuilt


# -- cache plumbing (satellites 1 & 2) ---------------------------------------


class TestKernelCacheLRU:
    def test_eviction_counter_and_bound(self):
        cache = kernels._KernelCache(max_entries=2)
        for i in range(4):
            spec = kernels.KernelSpec("conv", "dense", (("s", i),), "float64", (), ())
            cache.get_native(spec, f"src{i}", lambda s: object())
        stats = cache.stats()
        assert stats["specs"] == 2
        assert stats["evictions"] == 2
        assert stats["max_entries"] == 2
        # Sources are never evicted (they are the cheap re-insertion path).
        assert stats["compiled_sources"] == 4

    def test_reinsertion_after_eviction_skips_rebuild(self):
        cache = kernels._KernelCache(max_entries=1)
        builds = []
        spec0 = kernels.KernelSpec("conv", "dense", (("s", 0),), "float64", (), ())
        spec1 = kernels.KernelSpec("conv", "dense", (("s", 1),), "float64", (), ())
        cache.get_native(spec0, "srcA", lambda s: builds.append(s) or object())
        cache.get_native(spec1, "srcB", lambda s: builds.append(s) or object())
        cache.get_native(spec0, "srcA", lambda s: builds.append(s) or object())
        assert builds == ["srcA", "srcB"]  # spec0 re-entry reused srcA


class TestCacheInfo:
    def test_cache_info_shape(self):
        info = kernels.cache_info()
        assert set(info["kernels"]) >= {
            "hits", "misses", "specs", "compiled_sources", "evictions", "max_entries"
        }
        assert "autotune" not in info
        if NATIVE_OK:
            assert "native" in info
            assert "cache_dir" in info["native"]
            assert "status" in info["native"]

    def test_public_reexport(self):
        import repro.infer

        assert repro.infer.cache_info is kernels.cache_info
