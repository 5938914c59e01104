"""Tied-weight linear autoencoder trained on reconstruction MSE.

The model is a :class:`spectral.LinearCodec`: one matrix ``A`` of shape
(n, m) does both directions, so the round trip is ``A A^T x`` and it
encodes and decodes through the same :mod:`spectral` functions as a
graph Fourier basis.  No biases, no nonlinearity - the model is
deliberately the data-driven counterpart of a truncated orthonormal
basis, and its best achievable reconstruction error is the rank-m
principal-subspace error of the training data.  This module adds only
its initialisation, loss gradient and training.
"""

from __future__ import annotations

import numpy as np

from . import linalg, optim
from .optim import TrainSchedule
from .rng import Rng
from .spectral import LinearCodec


def init_codec(n: int, m: int, seed: int) -> LinearCodec:
    """Entries i.i.d. uniform on [-1/sqrt(n), 1/sqrt(n)], seeded."""
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range [1, {n}]")
    bound = 1.0 / np.sqrt(n)
    return LinearCodec(Rng(seed).uniform_matrix(n, m, -bound, bound))


def loss_and_grad(codec: LinearCodec, batch) -> tuple[float, np.ndarray]:
    """Reconstruction loss and its analytic gradient on a frame batch.

    For a batch X of B rows, the loss is ``mean((X A A^T - X)^2)`` over
    all B*n entries.  With the per-sample residual r = A A^T x - x the
    gradient is ``(2 / (B n)) * sum_b (r x^T A + x r^T A)``, evaluated
    here in batched form.
    """
    x = linalg.as_array(np.atleast_2d(batch), 2, "batch")
    if x.size == 0:
        raise ValueError("batch must be non-empty")
    if x.shape[1] != codec.n:
        raise ValueError(f"frame length {x.shape[1]} != n={codec.n}")
    return _loss_and_grad(codec.a, x)


def _loss_and_grad(a: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Unchecked kernel of :func:`loss_and_grad` for a validated (B, n) batch."""
    b, n = x.shape
    z = x @ a                 # (B, m) latents
    r = z @ a.T               # (B, n) residuals
    r -= x
    loss = float(np.mean(r * r))
    grad = r.T @ z
    grad += x.T @ (r @ a)
    grad *= 2.0 / (b * n)
    return loss, grad


def train(codec: LinearCodec, frames, schedule: TrainSchedule,
          seed: int) -> tuple[LinearCodec, np.ndarray]:
    """Train the codec with :func:`optim.train`, one frame per item.

    Returns the trained codec and the per-epoch mean training loss.  The
    frames are validated once; each batch runs the unchecked loss kernel
    on the working matrix, and the codec is built only at the end.
    """
    x = linalg.as_array(frames, 2, "frames")
    if x.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if x.shape[1] != codec.n:
        raise ValueError(f"frame length {x.shape[1]} != n={codec.n}")
    a, history = optim.train(codec.a, x.shape[0], schedule, seed,
                             lambda a, idx: _loss_and_grad(a, x[idx]),
                             lambda a: [("codec matrix", a)])
    return LinearCodec(a), history
