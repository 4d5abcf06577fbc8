"""Shared builders for inference-engine tests.

Networks are built at reduced width (``WIDTH_SCALE``) so that every Table-1
structure — including the ResNet-18s — stays unit-test cheap, while the op
mix (conv+BN folding, residual adds, pooling, activation quantizers) matches
the full-size models exactly.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.models.network import QuantizedNetwork
from repro.models.registry import build_network
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.tensor import Tensor, no_grad
from repro.quant.schemes import paper_schemes
from repro.quant.sparsify import sparsify_model

# Per-network width multipliers keeping each structure test-sized.
WIDTH_SCALE = {1: 0.25, 2: 0.125, 3: 0.0625, 4: 0.5, 5: 0.25, 6: 0.125, 7: 0.0625, 8: 0.125}

IMAGE_SIZE = 16
NUM_CLASSES = 10


def randomize_bn_stats(model: QuantizedNetwork, rng: np.random.Generator) -> None:
    """Give every BN layer non-trivial affine params and running statistics.

    Freshly initialised BN (gamma=1, beta=0, mean=0, var=1) folds into an
    identity affine, which would let a broken fold pass parity tests.
    """
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            c = m.num_features
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0.0, 0.2, c)
            m.running_mean[...] = rng.normal(0.0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)


def build_small_network(
    network_id: int, scheme_key: str = "FL_a", seed: int = 0
) -> QuantizedNetwork:
    """A scaled-down Table-1 network with randomized BN state, in eval mode."""
    scheme = paper_schemes()[scheme_key]
    model = build_network(
        network_id,
        scheme,
        num_classes=NUM_CLASSES,
        image_size=IMAGE_SIZE,
        width_scale=WIDTH_SCALE[network_id],
        rng=seed,
    )
    randomize_bn_stats(model, np.random.default_rng(seed + 1))
    model.eval()
    return model


#: Dead-row cases for parity tests, each a ``(dead fraction, prune)`` pair.
#: ``"dense"``: no dead filters, so every GEMM computes all of its rows.
#: ``"shift_plane"``: 40% of filters dead and kept in the plan
#: (``prune=False``), so every GEMM computes its live rows only.
#: ``"auto"``: the same dead filters under the default plan, which prunes
#: what it can and skips the rows it must keep.  The ids are the float
#: kernel families (dense GEMM, per-level shift planes, a per-layer choice)
#: whose rows the one live-row GEMM now covers.
DEAD_ROW_CASES = {"dense": (0.0, True), "shift_plane": (0.4, False), "auto": (0.4, True)}


def apply_dead_rows(model: QuantizedNetwork, case: str) -> bool:
    """Sparsify ``model`` in place for ``case``; return the plan's ``prune``."""
    dead_fraction, prune = DEAD_ROW_CASES[case]
    if dead_fraction:
        sparsify_model(model, dead_fraction)
    return prune


def sample_images(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, 3, IMAGE_SIZE, IMAGE_SIZE))


def eager_logits(model: QuantizedNetwork, images: np.ndarray) -> np.ndarray:
    """Reference logits from the eager eval-mode forward pass."""
    mode = model.training
    model.eval()
    with no_grad():
        out = model(Tensor(images)).numpy()
    model.train(mode)
    return out


def traced_int_chain(x: np.ndarray, chain: list, backend: str = "auto"):
    """A traced int8 program over hand-built IR, for kernel-level tests.

    ``chain`` lists ``(op, kind, head, out_shape, out_dtype)``; each node
    reads the previous value and the program input has ``x``'s shape and
    dtype (integer codes, where a real int8 program starts from float64).
    The result is optimized like any traced program, so adjacent steps fold
    into a conv/linear epilogue unless the fusion pass is patched out.
    """
    from repro.infer import PlanConfig, fuse
    from repro.infer.trace import IRNode, IRProgram, Val

    vals = [Val(0, tuple(x.shape), x.dtype)]
    nodes = []
    for op, kind, head, shape, dtype in chain:
        node = IRNode(op.index, kind, op, (len(vals) - 1,), len(vals), head=head)
        vals[-1].readers.append(node)
        vals.append(Val(len(vals), tuple(shape), np.dtype(dtype), producer=node))
        nodes.append(node)
    ir = IRProgram(nodes, vals, len(vals) - 1, tuple(x.shape), intq=True)
    return fuse.optimize(ir, SimpleNamespace(config=PlanConfig(backend=backend)))
