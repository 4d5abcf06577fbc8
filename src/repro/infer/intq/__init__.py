"""Integer-only compiled inference (``PlanConfig(dtype="int8")``).

Lowers a compiled float :class:`~repro.infer.plan.ExecutionPlan` into an
:class:`~repro.infer.intq.build.IntQProgram` that computes the whole
network in integer arithmetic: bit-packed shift-code weights
(:mod:`~repro.infer.intq.pack`), calibrated fixed-point activation grids,
integer-GEMM kernels
(:mod:`~repro.infer.intq.kernels`) and gemmlowp-style multiplier+shift
requantization (:mod:`~repro.infer.intq.requant`), with static overflow
bounds checked at compile time.  The program runs through the same traced
compiler as float plans (:mod:`repro.infer.trace`, :mod:`repro.infer.fuse`).
"""

from repro.infer.intq.build import GridSpec, IntQProgram, build_intq_program
from repro.infer.intq.pack import PackedWeights, pack_weights
from repro.infer.intq.requant import (
    quantize_multiplier,
    quantize_multiplier_array,
    requantize,
    rounding_right_shift,
)

__all__ = [
    "GridSpec",
    "IntQProgram",
    "PackedWeights",
    "build_intq_program",
    "pack_weights",
    "quantize_multiplier",
    "quantize_multiplier_array",
    "requantize",
    "rounding_right_shift",
]
