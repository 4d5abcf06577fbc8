"""Public-API surface checks: every exported name resolves and is documented."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.quant",
    "repro.models",
    "repro.data",
    "repro.train",
    "repro.infer",
    "repro.infer.intq",
    "repro.testing",
    "repro.serve",
    "repro.serve.cluster",
    "repro.hw",
    "repro.hw.fpga",
    "repro.hw.asic",
    "repro.analysis",
    "repro.experiments",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for exported in module.__all__:
        assert hasattr(module, exported), f"{name}.{exported} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    """Every public class/function reachable from __all__ carries a docstring."""
    module = importlib.import_module(name)
    undocumented = []
    for exported in module.__all__:
        obj = getattr(module, exported)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(exported)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_inference_path_does_not_import_scipy():
    """Serving and inference never generate data, so importing them must
    not load scipy (only the synthetic-data generator uses it)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repro.infer, repro.serve; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
