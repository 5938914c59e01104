"""Fully connected LSTM cell, warm-up/free-run rollout, and BPTT training.

The cell works directly in the latent dimension m: the hidden state
after consuming frame t *is* the prediction of frame t+1 (no output
projection).  A rollout starts from zero hidden and cell state, feeds
the first ``warmup`` real frames, then feeds the model its own previous
prediction for the remaining steps.  Training minimises the MSE over
all predicted frames (teacher-forced and free-run alike); evaluation
scores only the free-run part.

Gradients are exact backpropagation through time through that forward
graph, including through the fed-back predictions (an input that was a
previous prediction routes its gradient back into the step that
produced it).

The kernel runs on gate blocks.  A cell is one flat parameter buffer
that holds the input weights as a (4, m, m) stack in i, f, g, o order,
then the recurrent weights, then the input and recurrent bias stacks
(:func:`_blocks`).  Each step fills one (4, B, m) block of gate
pre-activations with one stacked matmul per weight stack and one add
per bias, and runs one sigmoid over the block (the g gate's tanh then
overwrites its part); backward builds the gate gradients as one block
the same way.  A stacked matmul still runs one GEMM per gate, and
every elementwise op is the per-gate kernel's op on the same operands,
so all results are bitwise those of the per-gate kernel.  Fusing
further changes results or costs time:

* one (B, m) x (m, 4m) forward GEMM rounds differently from four
  per-gate GEMMs on OpenBLAS (seen at m=64, B=6), and so does one K=4m
  GEMM for the input and recurrent gradients at every m tried, which
  therefore stay four GEMMs summed in gate order;
* one (4m, m) weight-gradient GEMM per step is bitwise, but adding its
  (4, m, m) temporary runs out of cache at m=256, so those GEMMs stay
  per gate;
* the block is gate-major, not (B, 4m): at m=1 a (B, 4m) block turns
  each weight gradient from a dot product into a matrix-vector product
  and changes the order of the bias sums, and both round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, optim
from .optim import TrainSchedule
from .rng import Rng


@dataclass(frozen=True)
class LstmCell:
    """Latent dimension ``m`` and one flat float64 buffer of length 8m(m+1).

    ``flat`` holds the weight stacks ``W_x`` and ``W_h`` and the bias
    stacks ``b_x`` and ``b_h`` back to back, each in i, f, g, o gate
    order; :func:`_blocks` reads it.
    """

    m: int
    flat: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("latent dimension must be at least 1")
        flat = np.ascontiguousarray(linalg.as_array(self.flat, 1, "flat"))
        size = 8 * self.m * (self.m + 1)
        if flat.size != size:
            raise ValueError(f"flat length {flat.size} != 8m(m+1) = {size}")
        object.__setattr__(self, "flat", flat)

    def params(self) -> dict[str, np.ndarray]:
        """Views of ``flat`` keyed ``w_x``, ``w_h``, ``b_x``, ``b_h``."""
        return _named(self.flat, self.m)


def init_cell(m: int, seed: int) -> LstmCell:
    """Weights uniform on [-1/sqrt(m), 1/sqrt(m)], biases zero."""
    if m < 1:
        raise ValueError("latent dimension must be at least 1")
    bound = 1.0 / np.sqrt(m)
    weights = Rng(seed).uniform_matrix(8 * m, m, -bound, bound)
    flat = np.zeros(8 * m * (m + 1))
    flat[:8 * m * m] = weights.ravel()
    return LstmCell(m, flat)


def _sigmoid(z):
    # exp overflow on the negative tail saturates to inf, and
    # 1/(1+inf) == 0 is exactly the right limit; callers run under
    # np.errstate(over="ignore") so that overflow is not reported
    return 1.0 / (1.0 + np.exp(-z))


def _sequences(z, m: int, warmup: int) -> np.ndarray:
    """``z`` as a non-empty finite (S, T, m) float64 stack with T >= 2
    and 1 <= ``warmup`` <= T-1; each entry point checks it here once."""
    s = linalg.as_array(z, 3, "sequences")
    if s.shape[0] == 0:
        raise ValueError("sequences must be a non-empty (S, T, m) array")
    num_frames = s.shape[1]
    if num_frames < 2:
        raise ValueError("sequences need at least 2 frames")
    if not 1 <= warmup <= num_frames - 1:
        raise ValueError(f"warmup {warmup} outside [1, {num_frames - 1}]")
    if s.shape[2] != m:
        raise ValueError(f"frame length {s.shape[2]} != m={m}")
    return s


def _blocks(flat: np.ndarray, m: int):
    """(W_x, W_h, b_x, b_h) gate-major views of a flat parameter buffer.

    The (4, m, m) weight stacks come first, then the (4, 1, m) bias
    stacks, each in i, f, g, o order.
    """
    w = 4 * m * m
    return (flat[:w].reshape(4, m, m), flat[w:2 * w].reshape(4, m, m),
            flat[2 * w:2 * w + 4 * m].reshape(4, 1, m),
            flat[2 * w + 4 * m:].reshape(4, 1, m))


def _named(flat: np.ndarray, m: int) -> dict[str, np.ndarray]:
    """The :func:`_blocks` views keyed ``w_x``, ``w_h``, ``b_x``, ``b_h``."""
    return dict(zip(("w_x", "w_h", "b_x", "b_h"), _blocks(flat, m)))


def _forward(flat: np.ndarray, batch: np.ndarray, warmup: int,
             keep_cache: bool):
    """Batched rollout over (B, T, m) sequences of the cell in ``flat``.

    Returns (predictions, cache); predictions has shape (B, T-1, m).
    The cache stores everything the backward pass needs, one tuple
    ``(x, h, c, a, tanh(c_new))`` per step, where ``a`` is the
    (4, B, m) block of activated gates.
    """
    bsz, t_total, m = batch.shape
    w_x, w_h, b_x, b_h = _blocks(flat, m)
    w_xt, w_ht = w_x.transpose(0, 2, 1), w_h.transpose(0, 2, 1)
    z = np.empty((4, bsz, m))        # gate pre-activations
    zh = np.empty_like(z)            # their recurrent part
    h = np.zeros((bsz, m))
    c = np.zeros((bsz, m))
    preds = np.empty((bsz, t_total - 1, m))
    cache = []
    with np.errstate(over="ignore"):  # see _sigmoid
        for k in range(t_total - 1):
            x = batch[:, k, :] if k < warmup else preds[:, k - 1, :]
            np.matmul(x, w_xt, out=z)
            np.matmul(h, w_ht, out=zh)
            z += b_x
            z += zh
            z += b_h
            a = _sigmoid(z)
            np.tanh(z[2], out=a[2])
            i, f, g, o = a
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            if keep_cache:
                cache.append((x, h, c, a, tc))
            h, c = h_new, c_new
            preds[:, k, :] = h_new
    return preds, cache


def _backward(flat: np.ndarray, warmup: int, preds: np.ndarray, cache,
              dpreds: np.ndarray, gflat: np.ndarray) -> None:
    """Exact BPTT through the forward graph of :func:`_forward`.

    ``dpreds`` is the loss gradient w.r.t. each prediction.  Where a
    prediction was fed back as the next input, its gradient receives
    the input path on top of the recurrent path.  The parameter
    gradients are added into ``gflat``, laid out like ``flat``, so pass
    a zeroed buffer to get the gradient itself.
    """
    bsz, steps, m = preds.shape
    w_x, w_h, _, _ = _blocks(flat, m)
    gw_x, gw_h, gb_x, gb_h = _blocks(gflat, m)
    dgate = np.empty((4, bsz, m))    # loss gradient of the gates
    d = np.empty_like(dgate)         # ... and of their pre-activations
    di, df, dg, do = dgate
    dag = d[2]
    # per gate: one (4m, m) weight-gradient GEMM makes a (4, m, m)
    # temporary, and adding it runs out of cache at m=256
    wgrads = [(gw_x[k], gw_h[k], d[k].T) for k in range(4)]
    dh_carry = np.zeros((bsz, m))
    dc_carry = np.zeros_like(dh_carry)
    for k in reversed(range(steps)):
        x, h_prev, c_prev, a, tc = cache[k]
        i, f, g, o = a
        dh = dpreds[:, k, :] + dh_carry
        np.multiply(dh, tc, out=do)
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        np.multiply(dc, g, out=di)
        np.multiply(dc, i, out=dg)
        np.multiply(dc, c_prev, out=df)
        dc_carry = dc * f

        # sigmoid derivative over the whole block, then the g gate's
        # tanh derivative over its part
        np.multiply(dgate, a, out=d)
        d *= 1.0 - a
        np.multiply(dg, 1.0 - g * g, out=dag)

        for gw_xg, gw_hg, d_gt in wgrads:
            gw_xg += d_gt @ x
            gw_hg += d_gt @ h_prev
        s = d.sum(1, keepdims=True)
        gb_x += s
        gb_h += s

        p = np.matmul(d, w_h)
        dh_carry = p[0] + p[1] + p[2] + p[3]
        if k >= warmup:  # input was preds[:, k-1, :]
            p = np.matmul(d, w_x)  # dx, summed before it joins dh_carry
            dh_carry = dh_carry + (p[0] + p[1] + p[2] + p[3])


def _batch_loss(flat: np.ndarray, batch: np.ndarray, warmup: int):
    preds, cache = _forward(flat, batch, warmup, keep_cache=True)
    targets = batch[:, 1:, :]
    diff = preds - targets
    loss = float(np.mean(diff * diff))
    dpreds = (2.0 / diff.size) * diff
    return loss, preds, cache, dpreds


def loss_and_grad(cell: LstmCell, frames, warmup: int):
    """Training loss and exact parameter gradients for one sequence.

    Loss is the MSE between frames 2..T and all T-1 predictions; the
    gradient is one fresh buffer laid out like ``cell.flat``, returned
    as its views keyed like :meth:`LstmCell.params`.
    """
    f = _sequences(linalg.as_array(frames, 2, "frames")[None], cell.m, warmup)
    loss, preds, cache, dpreds = _batch_loss(cell.flat, f, warmup)
    gflat = np.zeros_like(cell.flat)
    _backward(cell.flat, warmup, preds, cache, dpreds, gflat)
    return loss, _named(gflat, cell.m)


def train(cell: LstmCell, sequences, schedule: TrainSchedule, warmup: int,
          seed: int):
    """Mini-batch BPTT with :func:`optim.train`, one sequence per item.

    ``sequences`` is (S, T, m) and is validated once.  Returns the
    trained cell, which owns its buffer, and the per-epoch mean loss.
    Each batch zeroes one reused gradient buffer and accumulates into it.
    """
    s = _sequences(sequences, cell.m, warmup)
    gflat = np.zeros_like(cell.flat)

    def loss_and_grad(flat, idx):
        loss, preds, cache, dpreds = _batch_loss(flat, s[idx], warmup)
        gflat[...] = 0.0
        _backward(flat, warmup, preds, cache, dpreds, gflat)
        return loss, gflat

    flat, history = optim.train(cell.flat, s.shape[0], schedule, seed,
                                loss_and_grad,
                                lambda p: _named(p, cell.m).items())
    return LstmCell(cell.m, flat), history


def rollout(cell: LstmCell, sequences, warmup: int) -> np.ndarray:
    """Batched rollout over (S, T, m) sequences; returns (S, T-1, m).

    Entry ``[s, k]`` is the prediction of frame k+1 of sequence s.  The
    first ``warmup`` steps of each sequence consume real frames; every
    later step consumes the previous prediction.
    """
    z = _sequences(sequences, cell.m, warmup)
    preds, _ = _forward(cell.flat, z, warmup, keep_cache=False)
    return preds


def evaluate_prediction(cell: LstmCell, latent_sequences, raw_sequences,
                        warmup: int, decode_fn) -> tuple[float, np.ndarray]:
    """Pixel-space free-run prediction MSE over a test set.

    Rolls the cell over the latent test sequences with :func:`rollout`,
    decodes the predictions of the frames after the warm-up phase with
    ``decode_fn`` (a (k, m) stack to (k, n), else ``ValueError``), and
    returns the mean over sequences of the MSE against the raw frames,
    with the (S, T-warmup, n) decoded predictions it scored.
    Pass an identity ``decode_fn`` for uncompressed inputs.
    """
    preds = rollout(cell, latent_sequences, warmup)
    raw = linalg.as_array(raw_sequences, 3, "raw sequences")
    if raw.shape[:2] != (preds.shape[0], preds.shape[1] + 1):
        raise ValueError("latent and raw sequence stacks must align")
    free = preds[:, warmup - 1:, :]          # predictions of frames W+1..T
    num_seq, num_eval, _ = free.shape
    targets = raw[:, warmup:, :]
    decoded = decode_fn(free.reshape(num_seq * num_eval, -1))
    expect = (num_seq * num_eval, raw.shape[2])
    if decoded.shape != expect:
        raise ValueError(f"decode_fn gave shape {decoded.shape}, not {expect}")
    decoded = decoded.reshape(targets.shape)
    per_seq = np.mean((decoded - targets) ** 2, axis=(1, 2))
    return float(np.mean(per_seq)), decoded
