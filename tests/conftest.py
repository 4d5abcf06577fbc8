"""Shared pytest fixtures."""

from __future__ import annotations

import os

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_repro_cache(request, tmp_path_factory):
    """Keep the session's compiled kernels out of the user's cache.

    ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) roots the native
    compile cache, and the experiments' result cache when it is set.
    Unless the caller already set it, the session points it under pytest's
    cache directory, so repeated runs stay warm yet never share files with
    a user's engines; with the cache provider off (``-p no:cacheprovider``)
    it falls back to a session temp dir.  Forked cluster workers inherit it.
    """
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    cache = getattr(request.config, "cache", None)
    root = cache.mkdir("repro") if cache is not None else tmp_path_factory.mktemp("repro")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)
