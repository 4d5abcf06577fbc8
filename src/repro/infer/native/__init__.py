"""Native C kernel backend for the traced plan compiler.

Lowers the same fused IR the numpy codegen executes into small C
translation units — dense GEMM (over the live rows where some are all
zero) + im2col, the conv→BN→LeakyReLU→ActQuant epilogues, and the intq GEMM/requant path —
compiled per structural signature via cffi (ctypes fallback) with an
on-disk compile cache.  Every kernel self-verifies bitwise against the
numpy codegen on its first call; any failure anywhere in the ladder
(no compiler, compile error, no verifiable BLAS, parity mismatch) falls
back to the numpy kernels without crashing.  See DESIGN.md §11.

Import of this package itself must never fail on a toolchain-free host —
heavy probing happens lazily inside :func:`binding.available`.
"""

from repro.infer.native.binding import available, reset, status
from repro.infer.native.toolchain import NativeUnavailable, cache_root

__all__ = ["available", "status", "reset", "NativeUnavailable", "cache_root"]
