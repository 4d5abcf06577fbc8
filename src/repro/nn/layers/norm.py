"""Batch normalisation.

The paper follows every convolution with batch-norm and Leaky ReLU
(Sec. 5.1); batch-norm is also what lets aggressively quantized weights keep
activations in a trainable range.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn import init
from repro.nn.arena import active_arena
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["BatchNorm2d"]


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW tensors.

    Args:
        num_features: Channel count ``C``.
        eps: Variance floor for numerical stability.
        momentum: Running-statistics update rate.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features < 1:
            raise ConfigurationError("BatchNorm2d num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)), name="bn.gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="bn.beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expects (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            arena = active_arena()
            # count == 1 (a single value per channel) degenerates the
            # backward's reductions to no-ops in the eager graph; the fused
            # path keeps its sums, which would normalize -0.0 gradients.
            # Vanishingly rare in practice — just take the reference path.
            if arena is not None and x.size > self.num_features:
                return self._fused_train_forward(x, arena)
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=(0, 2, 3), keepdims=True)
            # Update running statistics outside the autograd graph.
            m = self.momentum
            self.running_mean[...] = (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            n = x.size / self.num_features
            unbiased = var.data.reshape(-1) * (n / max(n - 1, 1))
            self.running_var[...] = (1 - m) * self.running_var + m * unbiased
            self.buffers_version += 1
            x_hat = centred / (var + self.eps).sqrt()
        else:
            mean = self.running_mean.reshape(1, -1, 1, 1)
            std = np.sqrt(self.running_var + self.eps).reshape(1, -1, 1, 1)
            x_hat = (x - mean) * (1.0 / std)
        gamma = self.gamma.reshape(1, self.num_features, 1, 1)
        beta = self.beta.reshape(1, self.num_features, 1, 1)
        return x_hat * gamma + beta

    def _fused_train_forward(self, x: Tensor, arena) -> Tensor:
        """Training forward with one hand-written backward closure.

        Replays the exact arithmetic of the eager Tensor-graph chain
        (``mean -> centred -> var -> x_hat -> gamma*x_hat + beta``) with
        arena scratch and in-place ufuncs, and replicates the eager
        backward's accumulation expressions *and order* term by term, so
        both directions are bitwise identical to the graph version (the
        fast-path parity tests assert this).  What it saves is the graph
        bookkeeping: ~10 Tensor nodes per layer, their defensive gradient
        copies, and every intermediate allocation.
        """
        xd = x.data
        shape = xd.shape
        count = shape[0] * shape[2] * shape[3]
        c = 1.0 / count
        reduced = (1, self.num_features, 1, 1)
        # The eager backward reduces via Tensor._unbroadcast, which sums
        # only the axes that actually broadcast (size > 1).  Summing a
        # size-1 axis is a value no-op but normalizes -0.0, so the fused
        # reductions must select the same axes to stay bitwise identical.
        raxes = tuple(i for i in (0, 2, 3) if shape[i] > 1)

        s1 = xd.sum(axis=(0, 2, 3), keepdims=True)
        mean = s1 * c
        centred = arena.take(shape, xd.dtype)
        np.subtract(xd, mean, out=centred)
        sq = arena.take(shape, xd.dtype)
        np.multiply(centred, centred, out=sq)
        var = sq.sum(axis=(0, 2, 3), keepdims=True) * c

        m = self.momentum
        self.running_mean[...] = (1 - m) * self.running_mean + m * mean.reshape(-1)
        n = xd.size / self.num_features
        unbiased = var.reshape(-1) * (n / max(n - 1, 1))
        self.running_var[...] = (1 - m) * self.running_var + m * unbiased
        self.buffers_version += 1

        std = np.sqrt(var + self.eps)
        x_hat = arena.take(shape, xd.dtype)
        np.divide(centred, std, out=x_hat)
        gamma_r = self.gamma.data.reshape(reduced)
        beta_r = self.beta.data.reshape(reduced)
        out_data = arena.take(shape, xd.dtype)
        np.multiply(x_hat, gamma_r, out=out_data)
        np.add(out_data, beta_r, out=out_data)

        gamma, beta = self.gamma, self.beta

        def backward(g: np.ndarray) -> None:
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=raxes, keepdims=True).reshape(-1))
            full = arena.take(shape, g.dtype)
            if gamma.requires_grad:
                np.multiply(g, x_hat, out=full)
                gamma.accumulate_grad(
                    full.sum(axis=raxes, keepdims=True).reshape(-1)
                )
            if not x.requires_grad:
                return
            gxh = arena.take(shape, g.dtype)
            np.multiply(g, gamma_r, out=gxh)
            # d std: eager computes (-gxh * centred) / std**2, then
            # unbroadcasts (sums) to the reduced shape.  Multiply/divide and
            # round-to-nearest are sign-symmetric, so negating the *sum* of
            # the un-negated product is bit-identical and saves a full pass.
            np.multiply(gxh, centred, out=full)
            np.divide(full, std**2, out=full)
            gsd = -(full.sum(axis=raxes, keepdims=True))
            # Through sqrt and the two scalar-multiply nodes down to the
            # squared-deviation gradient, broadcast back to full size.
            gs2 = (gsd * 0.5 / std) * c
            # d centred: first the divide path, then the square path twice
            # (eager visits centred twice as the two factors of
            # ``centred * centred``) — same order, same three terms.
            gct = arena.take(shape, g.dtype)
            np.divide(gxh, std, out=gct)
            np.multiply(gs2, centred, out=full)
            gct += full
            gct += full
            # d x: the subtract path passes gct straight through; the mean
            # path contributes -(sum(gct)) * c.  Negating the sum equals the
            # eager sum of negated values bit for bit (IEEE rounding is
            # sign-symmetric), saving a full-size negation pass.
            gs1 = -(gct.sum(axis=raxes, keepdims=True)) * c
            gct += gs1
            x.accumulate_grad(gct, own=True)

        return Tensor.from_op(out_data, (x, gamma, beta), backward)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps}, momentum={self.momentum})"
