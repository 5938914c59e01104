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

from . import linalg
from .optim import TrainSchedule, adam_init, adam_step, schedule_at
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
    x = linalg.as_matrix(np.atleast_2d(np.asarray(batch, dtype=np.float64)),
                         "batch")
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
    """SGD over shuffled mini-batches with Adam; deterministic per seed.

    Returns the trained codec and the per-epoch mean training loss
    (batch losses weighted by batch size).  The mini-batch order is
    reshuffled every epoch; a final partial batch is used as-is.

    The frames are validated once, on entry.  Each batch then runs the
    unchecked loss kernel on the working matrix and one Adam step; no
    codec is built until the end.  A step that leaves a non-finite
    entry raises the ``ValueError`` that building the codec would.
    """
    x = linalg.as_matrix(frames, "frames")
    if x.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if x.shape[1] != codec.n:
        raise ValueError(f"frame length {x.shape[1]} != n={codec.n}")

    a = codec.a.copy()
    state = adam_init(a.shape)
    num = x.shape[0]
    history = np.zeros(schedule.epochs)
    orders = Rng(seed).permutations(num, schedule.epochs)
    for epoch, order in enumerate(orders):
        lr, wd = schedule_at(schedule, epoch)
        total = 0.0
        for start in range(0, num, schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            loss, grad = _loss_and_grad(a, x[chunk])
            a = adam_step(state, a, grad, lr, wd)
            if not np.isfinite(a).all():
                raise ValueError("codec matrix contains non-finite entries")
            total += loss * len(chunk)
        history[epoch] = total / num
    return LinearCodec(a), history
