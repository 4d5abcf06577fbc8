"""Quantized network wrapper with hardware-analysis hooks.

:class:`QuantizedNetwork` wraps a feature extractor + classifier built from
quantized layers and exposes the bookkeeping the experiments need: storage
under the scheme's encoding, per-filter shift counts, and access to the
largest convolutional layer (the layer the paper implements on FPGA/ASIC).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.models.configs import NetworkConfig
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.quant.qlayers import QConv2d, QLinear
from repro.quant.schemes import QuantizationScheme

__all__ = ["QuantizedNetwork"]


class QuantizedNetwork(Module):
    """A feature/classifier pair built under one quantization scheme.

    Args:
        features: Convolutional trunk; consumes NCHW, produces NCHW or (N, D).
        classifier: Head mapping trunk output to logits.
        scheme: The quantization scheme used to build the layers.
        config: The Table-1 configuration this instance realises.
        image_size: Input spatial size the network was built for.
        in_channels: Input channel count.
    """

    def __init__(
        self,
        features: Module,
        classifier: Module,
        scheme: QuantizationScheme,
        config: NetworkConfig,
        image_size: int,
        in_channels: int = 3,
    ) -> None:
        super().__init__()
        self.features = features
        self.classifier = classifier
        self.scheme = scheme
        self.config = config
        self.image_size = image_size
        self.in_channels = in_channels

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))

    def compile(self, batch_size: int = 32, on_stale: str = "refresh", config=None):
        """Compile this network into an :class:`~repro.infer.InferenceEngine`.

        The engine quantizes each layer's weights once, folds batch-norm
        into the convolutions and serves grad-free batched prediction; see
        :mod:`repro.infer`.  ``config`` forwards a
        :class:`~repro.infer.PlanConfig` controlling the sparsity passes
        (dead-filter pruning, traced execution, compute dtype, backend).
        """
        # Imported here to avoid a models <-> infer import cycle.
        from repro.infer.engine import InferenceEngine

        return InferenceEngine(self, batch_size=batch_size, on_stale=on_stale, config=config)

    # -- layer access ------------------------------------------------------------

    def conv_layers(self) -> list[QConv2d]:
        """All quantized convolutional layers, in module order."""
        return [m for m in self.modules() if isinstance(m, QConv2d)]

    def linear_layers(self) -> list[QLinear]:
        """All quantized linear layers."""
        return [m for m in self.modules() if isinstance(m, QLinear)]

    def probe(self, batch_size: int = 1) -> Tensor:
        """Run one dummy forward pass so layers record their input sizes."""
        x = Tensor(np.zeros((batch_size, self.in_channels, self.image_size, self.image_size)))
        mode = self.training
        self.eval()
        with no_grad():
            out = self.forward(x)
        self.train(mode)
        return out

    def largest_conv_layer(self) -> QConv2d:
        """The widest convolution — the paper's FPGA/ASIC target layer.

        Table 1 defines a network's "width" as the filter count of its
        largest layer, so "largest" ranks by output channels, breaking ties
        by multiply-accumulate count.  Runs a probe forward pass if input
        sizes have not been recorded yet.
        """
        convs = self.conv_layers()
        if not convs:
            raise ConfigurationError("network has no quantized conv layers")
        if any(c.last_input_hw is None for c in convs):
            self.probe()
        return max(convs, key=lambda c: (c.out_channels, _conv_macs(c)))

    # -- cost reporting ------------------------------------------------------------

    def storage_mb(self, include_overhead: bool = False) -> float:
        """Model storage in MB under the scheme's weight encoding.

        Conv and linear weights are counted at their quantized bit widths
        (per-filter for FLightNN).  With ``include_overhead`` the 32-bit
        biases and batch-norm affines are added; the paper's storage column
        tracks the weight payload, so the default omits them.
        """
        bits = 0.0
        for layer in self.conv_layers() + self.linear_layers():
            per_filter_bits = layer.bits_per_weight()
            weights_per_filter = layer.weight.data[0].size
            bits += float(per_filter_bits.sum()) * weights_per_filter
        if include_overhead:
            quant_weight_ids = {
                id(layer.weight) for layer in self.conv_layers() + self.linear_layers()
            }
            for p in self.parameters():
                if id(p) not in quant_weight_ids:
                    bits += 32.0 * p.size
        return bits / 8.0 / 1e6

    def filter_k_per_layer(self) -> list[np.ndarray]:
        """Per-layer arrays of per-filter shift counts."""
        return [layer.filter_k() for layer in self.conv_layers()]

    def mean_filter_k(self) -> float:
        """Average shift count across every convolutional filter.

        2.0 for LightNN-2, 1.0 for LightNN-1, in between for a trained
        FLightNN; 0.0 for non-shift schemes.
        """
        ks = np.concatenate(self.filter_k_per_layer())
        return float(ks.mean()) if ks.size else 0.0

    def __repr__(self) -> str:
        return (
            f"QuantizedNetwork(id={self.config.network_id}, {self.config.structure}-"
            f"{self.config.depth}, width={self.config.width}, scheme={self.scheme.name})"
        )


def _conv_macs(conv: QConv2d) -> int:
    """Multiply-accumulates of one conv layer given its recorded input size."""
    if conv.last_input_hw is None:
        raise ConfigurationError("conv layer has no recorded input size; call probe()")
    oh, ow = conv.output_spatial(*conv.last_input_hw)
    return oh * ow * conv.out_channels * conv.in_channels * conv.kernel_size**2
