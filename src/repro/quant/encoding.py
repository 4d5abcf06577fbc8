"""Hardware encoding of power-of-two weights.

A deployed (F)LightNN stores each weight as ``k`` codes of
``1 + exponent_bits`` bits: a sign bit and a biased exponent selecting the
shift amount, with a reserved all-zeros exponent code for the value 0 (a
gated-off shifter).  This module packs quantized filter banks into those
integer code arrays — what an FPGA weight memory actually holds — and
decodes them back, bit-exactly.

The encoding operates on the Fig. 3 decomposition: level ``j``'s
single-shift term becomes code plane ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.quant.decompose import DecomposedFilterBank
from repro.quant.power_of_two import PowerOfTwoConfig

__all__ = ["EncodedWeights", "encode_terms", "decode_plane", "decode_terms"]

_ZERO_CODE = 0  # reserved exponent code for a gated-off (zero) term


@dataclass
class EncodedWeights:
    """Packed shift-code planes for one filter bank.

    Attributes:
        signs: uint8 array (k_max, *weight_shape); 1 = negative.
        exponent_codes: uint8 array, same shape; 0 is the reserved zero
            code, otherwise ``code = exponent - exp_min + 1``.
        config: The exponent window the codes are relative to.
        filter_k: Effective shifts per filter (for per-filter storage).
    """

    signs: np.ndarray
    exponent_codes: np.ndarray
    config: PowerOfTwoConfig
    filter_k: np.ndarray

    @property
    def bits_per_code(self) -> int:
        """Bits of one stored code: sign + exponent field (zero included)."""
        levels = self.config.levels + 1  # exponents plus the zero code
        return 1 + int(np.ceil(np.log2(levels)))

    @property
    def total_bits(self) -> int:
        """Storage with per-filter k: only active planes of each filter."""
        weights_per_filter = int(np.prod(self.signs.shape[2:]))
        return int(self.filter_k.sum()) * weights_per_filter * self.bits_per_code


def encode_terms(bank: DecomposedFilterBank, config: PowerOfTwoConfig) -> EncodedWeights:
    """Pack a decomposed filter bank into sign/exponent code planes.

    Raises:
        QuantizationError: If any term value is not zero or ``±2^e`` with
            ``e`` inside the window.
    """
    signs = []
    codes = []
    for term in bank.terms:
        term = np.asarray(term, dtype=np.float64)
        sign_plane = (term < 0).astype(np.uint8)
        magnitude = np.abs(term)
        zero = magnitude == 0
        with np.errstate(divide="ignore"):
            exponent = np.where(zero, config.exp_min, np.log2(np.where(zero, 1.0, magnitude)))
        if not np.all(exponent == np.rint(exponent)):
            raise QuantizationError("term contains a non power-of-two magnitude")
        exponent = np.rint(exponent).astype(np.int64)
        if (~zero & ((exponent < config.exp_min) | (exponent > config.exp_max))).any():
            raise QuantizationError("term exponent outside the configured window")
        code_plane = np.where(zero, _ZERO_CODE, exponent - config.exp_min + 1)
        signs.append(sign_plane)
        codes.append(code_plane.astype(np.uint8))
    return EncodedWeights(
        signs=np.stack(signs),
        exponent_codes=np.stack(codes),
        config=config,
        filter_k=bank.filter_k.copy(),
    )


def decode_plane(encoded: EncodedWeights, level: int) -> np.ndarray:
    """Decode one shift-code plane back to its signed power-of-two values.

    Plane ``level`` is exactly the level-``level`` single-shift term of
    the Fig. 3 decomposition.
    """
    if not 0 <= level < encoded.signs.shape[0]:
        raise QuantizationError(
            f"plane index {level} outside encoded k_max={encoded.signs.shape[0]}"
        )
    config = encoded.config
    sign_plane = encoded.signs[level]
    code_plane = encoded.exponent_codes[level]
    zero = code_plane == _ZERO_CODE
    exponent = code_plane.astype(np.int64) - 1 + config.exp_min
    values = np.where(zero, 0.0, np.exp2(exponent.astype(np.float64)))
    return np.where(sign_plane.astype(bool), -values, values)


def decode_terms(encoded: EncodedWeights) -> np.ndarray:
    """Reconstruct the quantized weights exactly from the code planes."""
    total = np.zeros(encoded.signs.shape[1:], dtype=np.float64)
    for level in range(encoded.signs.shape[0]):
        total += decode_plane(encoded, level)
    return total
