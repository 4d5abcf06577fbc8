"""Compiled inference engine (plan / trace / fuse / shard / sparsity).

Turns a trained :class:`~repro.models.network.QuantizedNetwork` into a flat
grad-free execution plan with quantized-weight caching, conv+BN folding,
scratch-buffer reuse and thread batch sharding.  Dead filters are
eliminated at plan time under :class:`~repro.infer.plan.PlanConfig`; a
layer whose dead rows pruning must keep runs its GEMM over the live rows
only.  Execution then goes through shape-specialized traced programs —
fused, codegen'd kernels with liveness-reused buffers (:mod:`repro.infer.trace`,
:mod:`repro.infer.fuse`, :mod:`repro.infer.kernels`) — bitwise-identical to
the op-by-op interpreter.  An int8 plan (:mod:`repro.infer.intq`) lowers
to an integer program that runs through the same traced compiler.  See
:class:`~repro.infer.engine.InferenceEngine` for the entry point.
"""

from repro.infer.engine import InferenceEngine, shard_slices
from repro.infer.fold import bn_eval_affine, dead_filter_rows
from repro.infer.intq import IntQProgram, PackedWeights, build_intq_program, pack_weights
from repro.infer.kernels import cache_info, clear_caches
from repro.infer.plan import (
    ExecutionContext,
    ExecutionPlan,
    PlanConfig,
    compile_network,
    plan_dtype,
)
from repro.infer.trace import build_traced_program, trace_plan

__all__ = [
    "InferenceEngine",
    "ExecutionContext",
    "ExecutionPlan",
    "PlanConfig",
    "compile_network",
    "plan_dtype",
    "bn_eval_affine",
    "dead_filter_rows",
    "build_traced_program",
    "trace_plan",
    "shard_slices",
    "IntQProgram",
    "PackedWeights",
    "build_intq_program",
    "pack_weights",
    "cache_info",
    "clear_caches",
]
