"""The test session never compiles into the user's default cache."""

from __future__ import annotations

import os

from repro.infer.native import toolchain


def test_native_cache_root_is_not_the_users_default():
    default = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    root = toolchain.cache_root()
    assert os.path.realpath(root) != os.path.realpath(default)
    assert os.path.realpath(toolchain.native_cache_dir()).startswith(os.path.realpath(root))
