"""Tied-weight linear autoencoder trained on reconstruction MSE.

One matrix ``A`` of shape (n, m) does both directions: encoding is
``A^T x``, decoding is ``A z``, so the round trip is ``A A^T x``.  No
biases, no nonlinearity - the model is deliberately the data-driven
counterpart of a truncated orthonormal basis, and its best achievable
reconstruction error is the rank-m principal-subspace error of the
training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .optim import TrainSchedule, adam_init, adam_step, schedule_at
from .rng import Rng


@dataclass(frozen=True)
class LinearCodec:
    """Shared encode/decode matrix ``a`` of shape (n, m)."""

    n: int
    m: int
    a: np.ndarray

    def __post_init__(self):
        w = linalg.as_matrix(self.a, "codec matrix")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m={self.m} out of range [1, {self.n}]")
        if w.shape != (self.n, self.m):
            raise ValueError(f"codec shape {w.shape} != ({self.n}, {self.m})")
        object.__setattr__(self, "a", w)


def init_codec(n: int, m: int, seed: int) -> LinearCodec:
    """Entries i.i.d. uniform on [-1/sqrt(n), 1/sqrt(n)], seeded."""
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range [1, {n}]")
    bound = 1.0 / np.sqrt(n)
    return LinearCodec(n, m, Rng(seed).uniform_matrix(n, m, -bound, bound))


def encode(codec: LinearCodec, x) -> np.ndarray:
    v = linalg.as_vector(x, "signal")
    if v.shape[0] != codec.n:
        raise ValueError(f"signal length {v.shape[0]} != n={codec.n}")
    return codec.a.T @ v


def decode(codec: LinearCodec, z) -> np.ndarray:
    v = linalg.as_vector(z, "latent")
    if v.shape[0] != codec.m:
        raise ValueError(f"latent length {v.shape[0]} != m={codec.m}")
    return codec.a @ v


def encode_frames(codec: LinearCodec, frames) -> np.ndarray:
    f = linalg.as_matrix(frames, "frames")
    if f.shape[1] != codec.n:
        raise ValueError(f"frame length {f.shape[1]} != n={codec.n}")
    return f @ codec.a


def decode_frames(codec: LinearCodec, coeffs) -> np.ndarray:
    c = linalg.as_matrix(coeffs, "latents")
    if c.shape[1] != codec.m:
        raise ValueError(f"latent length {c.shape[1]} != m={codec.m}")
    return c @ codec.a.T


def reconstruction_mse(codec: LinearCodec, frames) -> float:
    f = linalg.as_matrix(frames, "frames")
    return linalg.mse(f, decode_frames(codec, encode_frames(codec, f)))


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


def save_codec(codec: LinearCodec, path) -> None:
    """Persist the codec matrix as a GTS1 tensor with dims [n, m]."""
    from . import data
    data.save_tensor(path, (codec.n, codec.m), codec.a)


def load_codec(path) -> LinearCodec:
    """Load a codec written by :func:`save_codec` (float32 rounded)."""
    from . import data
    dims, values = data.load_tensor(path)
    if len(dims) != 2:
        raise ValueError(f"{path}: codec tensor must be rank 2, got {dims}")
    return LinearCodec(dims[0], dims[1], values)


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

    rng = Rng(seed)
    a = codec.a.copy()
    state = adam_init(a.shape)
    num = x.shape[0]
    history = np.zeros(schedule.epochs)
    for epoch in range(schedule.epochs):
        lr, wd = schedule_at(schedule, epoch)
        order = list(range(num))
        rng.shuffle(order)
        order = np.array(order)
        total = 0.0
        for start in range(0, num, schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            loss, grad = _loss_and_grad(a, x[chunk])
            a = adam_step(state, a, grad, lr, wd)
            if not np.isfinite(a).all():
                raise ValueError("codec matrix contains non-finite entries")
            total += loss * len(chunk)
        history[epoch] = total / num
    return LinearCodec(codec.n, codec.m, a), history
