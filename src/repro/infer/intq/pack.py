"""Bit-packed integer weight representation for the intq program.

FLightNN/LightNN weights are sums of ``<= k`` signed powers of two.  This
module routes each layer through the Fig. 3 plane decomposition
(:mod:`repro.quant.decompose`) and the hardware shift-code encoding
(:mod:`repro.quant.encoding`), then stores what an integer datapath would
hold:

* ``exponent_codes`` — int8 planes of biased exponents (code 0 = gated-off
  zero term, otherwise ``shift = code - 1`` relative to ``2**exp_min``);
* ``sign_bits`` — the sign planes packed 8-to-a-byte (``np.packbits``);
* ``w_int`` — the integer weight matrix those codes decode to
  (``weight == w_int * 2**exp_min``), used by the integer GEMM kernel;
* ``groups`` — per-shift-amount {-1, 0, +1} accumulation matrices: the
  hardware shift-accumulate schedule (one shifted add per distinct
  exponent), whose presence the intq summary's shift counts read.

``w_int`` and ``groups`` are decoded *from the packed bitmask and codes*,
not from the float weights, so a packing bug cannot cancel out.  Weight
strategies that are exactly dyadic but not plane-decomposable (fixed-point,
binary) fall back to a direct integer lift ``w_int = w * 2**f`` and have
no shift schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompileError
from repro.quant.decompose import decompose_filter_bank, decompose_lightnn_bank
from repro.quant.encoding import encode_terms
from repro.quant.qlayers import FLightNNWeights, LightNNWeights

__all__ = ["PackedWeights", "pack_weights"]

# Maximum dyadic-lift exponent tried for non-plane strategies (covers every
# fixed-point format the repo ships; arbitrary floats fail fast).
_MAX_LIFT_BITS = 32


@dataclass
class PackedWeights:
    """One layer's weights in packed integer form, in ``(F, cols)`` layout.

    Attributes:
        exponent_codes: int8 ``(k_max, F, cols)`` biased-exponent planes
            (``None`` for dyadic-lift layers with no plane decomposition).
        sign_bits: uint8 ``(k_max, ceil(F*cols/8))`` packed sign bitmask
            (``None`` for dyadic-lift layers).
        w_int: int64 ``(F, cols)`` integer weights; the real weight is
            ``w_int * weight_scale``.
        weight_scale: The power of two one integer unit represents.
        groups: ``[(shift, S)]`` pairs of the shift-accumulate schedule:
            ``sum_d (S_d @ (x << d)) == w_int @ x`` with ``S_d`` entries in
            {-1, 0, +1}; ``None`` for dyadic lifts.
        k_max: Number of decomposition planes (0 for dyadic lifts).
        nonzero_terms: Count of active (non-gated) shift terms — the
            hardware shift/add work per output position.
    """

    exponent_codes: np.ndarray | None
    sign_bits: np.ndarray | None
    w_int: np.ndarray
    weight_scale: float
    groups: list[tuple[int, np.ndarray]] | None
    k_max: int
    nonzero_terms: int


def supports_shift_planes(layer) -> bool:
    """Whether ``layer``'s strategy decomposes into power-of-two planes."""
    return isinstance(getattr(layer, "strategy", None), (FLightNNWeights, LightNNWeights))


def _layer_bank(layer):
    """``(term bank, pow2 config)`` of a plane-decomposable layer."""
    quantizer = layer.strategy.quantizer
    if isinstance(layer.strategy, FLightNNWeights):
        bank = decompose_filter_bank(layer.weight.data, layer.thresholds.data, quantizer)
    else:
        bank = decompose_lightnn_bank(layer.weight.data, quantizer.config.k, quantizer.config.pow2)
    return bank, quantizer.config.pow2


def _slice_planes(
    planes: np.ndarray, live_rows: np.ndarray | None, col_index: np.ndarray | None
) -> np.ndarray:
    if live_rows is not None:
        planes = planes[:, live_rows]
    if col_index is not None:
        planes = planes[:, :, col_index]
    return planes


def _dyadic_lift(weight2d: np.ndarray, layer_name: str) -> tuple[np.ndarray, float]:
    """Lift an exactly-dyadic weight matrix to integers: ``w = w_int * 2**-f``."""
    for f in range(_MAX_LIFT_BITS + 1):
        scaled = weight2d * float(2**f)
        if np.all(scaled == np.rint(scaled)) and float(np.abs(scaled).max(initial=0.0)) < 2**40:
            return np.rint(scaled).astype(np.int64), float(2.0**-f)
    raise CompileError(
        f"{layer_name}: weights are not dyadic rationals — the integer-only "
        "plan supports FLightNN/LightNN (shift planes) and exactly-dyadic "
        "strategies such as fixed-point or binary weights"
    )


def pack_weights(
    layer,
    live_rows: np.ndarray | None = None,
    col_index: np.ndarray | None = None,
) -> PackedWeights:
    """Pack one quantized conv/linear layer into :class:`PackedWeights`.

    Args:
        layer: A quantized layer.  FLightNN/LightNN strategies go through
            the full plane decomposition + shift-code encoding; other
            strategies must have exactly-dyadic quantized weights.
        live_rows: Filter rows surviving dead-filter pruning (``None`` =
            all) — packing happens in the plan op's slimmed row space.
        col_index: Weight-column indices surviving upstream pruning.

    Raises:
        CompileError: If the layer's weights cannot be represented exactly
            in integer form.
    """
    if supports_shift_planes(layer):
        bank, pow2 = _layer_bank(layer)
        encoded = encode_terms(bank, pow2)
        k_max = int(encoded.signs.shape[0])
        filters = int(encoded.signs.shape[1])
        codes = encoded.exponent_codes.reshape(k_max, filters, -1).astype(np.int8)
        signs = encoded.signs.reshape(k_max, filters, -1).astype(np.uint8)
        codes = _slice_planes(codes, live_rows, col_index)
        signs = _slice_planes(signs, live_rows, col_index)
        plane_size = int(codes[0].size)
        sign_bits = np.packbits(np.ascontiguousarray(signs).reshape(k_max, -1), axis=1)
        # Decode from the packed store: the kernels must compute from what
        # the "weight memory" holds, not from a float shadow copy.
        unpacked = (
            np.unpackbits(sign_bits, axis=1)[:, :plane_size].reshape(codes.shape).astype(bool)
        )
        codes64 = codes.astype(np.int64)
        magnitude = np.where(codes64 > 0, np.int64(1) << np.maximum(codes64 - 1, 0), 0)
        unit = np.where(codes64 > 0, np.where(unpacked, np.int64(-1), np.int64(1)), 0)
        w_int = (unit * magnitude).sum(axis=0)
        groups: list[tuple[int, np.ndarray]] = []
        for d in np.unique(codes64[codes64 > 0]) - 1:
            s_d = np.where(codes64 - 1 == d, unit, 0).sum(axis=0)
            groups.append((int(d), np.ascontiguousarray(s_d)))
        return PackedWeights(
            exponent_codes=codes,
            sign_bits=sign_bits,
            w_int=np.ascontiguousarray(w_int),
            weight_scale=float(2.0**pow2.exp_min),
            groups=groups,
            k_max=k_max,
            nonzero_terms=int((codes > 0).sum()),
        )
    # Dyadic fallback: quantized-but-not-plane strategies (fixed point,
    # binary) and anything else whose deployed weights are exact dyadics.
    from repro.infer.plan import _layer_weight

    weight2d = np.asarray(_layer_weight(layer), dtype=np.float64)
    weight2d = weight2d.reshape(weight2d.shape[0], -1)
    if live_rows is not None:
        weight2d = weight2d[live_rows]
    if col_index is not None:
        weight2d = weight2d[:, col_index]
    w_int, weight_scale = _dyadic_lift(weight2d, type(layer).__name__)
    return PackedWeights(
        exponent_codes=None,
        sign_bits=None,
        w_int=w_int,
        weight_scale=weight_scale,
        groups=None,
        k_max=0,
        nonzero_terms=int((w_int != 0).sum()),
    )
