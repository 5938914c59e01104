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

The kernel runs on gate blocks.  The 16 parameters sit back to back in
one flat buffer, in ``PARAM_NAMES`` order, so the buffer already holds
the input weights as a (4, m, m) stack in i, f, g, o order, then the
recurrent weights, then the two bias stacks (:func:`_blocks`).  Each
step fills one (4, B, m) block of gate pre-activations with one stacked
matmul per weight stack and one add per bias, and runs one sigmoid over
the block (the g gate's tanh then overwrites its part); backward builds
the gate gradients as one block the same way.  A stacked matmul still
runs one GEMM per gate, and every elementwise op is the per-gate
kernel's op on the same operands, so all results are bitwise those of
the per-gate kernel.  Fusing further changes results or costs time:

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

from . import linalg
from .optim import TrainSchedule, adam_init, adam_step, schedule_at
from .rng import Rng

WEIGHT_NAMES = ("w_ii", "w_if", "w_ig", "w_io", "w_hi", "w_hf", "w_hg", "w_ho")
BIAS_NAMES = ("b_ii", "b_if", "b_ig", "b_io", "b_hi", "b_hf", "b_hg", "b_ho")
PARAM_NAMES = WEIGHT_NAMES + BIAS_NAMES


@dataclass(frozen=True)
class LstmCell:
    """Eight (m, m) gate weight matrices and eight length-m biases."""

    m: int
    w_ii: np.ndarray
    w_if: np.ndarray
    w_ig: np.ndarray
    w_io: np.ndarray
    w_hi: np.ndarray
    w_hf: np.ndarray
    w_hg: np.ndarray
    w_ho: np.ndarray
    b_ii: np.ndarray
    b_if: np.ndarray
    b_ig: np.ndarray
    b_io: np.ndarray
    b_hi: np.ndarray
    b_hf: np.ndarray
    b_hg: np.ndarray
    b_ho: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("latent dimension must be at least 1")
        for name in WEIGHT_NAMES:
            w = linalg.as_matrix(getattr(self, name), name)
            if w.shape != (self.m, self.m):
                raise ValueError(f"{name} shape {w.shape} != ({self.m}, {self.m})")
            object.__setattr__(self, name, w)
        for name in BIAS_NAMES:
            b = linalg.as_vector(getattr(self, name), name)
            if b.shape != (self.m,):
                raise ValueError(f"{name} length {b.shape[0]} != {self.m}")
            object.__setattr__(self, name, b)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def cell_from_params(m: int, params: dict) -> LstmCell:
    return LstmCell(m, **{name: params[name] for name in PARAM_NAMES})


def init_cell(m: int, seed: int) -> LstmCell:
    """Weights uniform on [-1/sqrt(m), 1/sqrt(m)], biases zero."""
    if m < 1:
        raise ValueError("latent dimension must be at least 1")
    rng = Rng(seed)
    bound = 1.0 / np.sqrt(m)
    params = {name: rng.uniform_matrix(m, m, -bound, bound)
              for name in WEIGHT_NAMES}
    params.update({name: np.zeros(m) for name in BIAS_NAMES})
    return cell_from_params(m, params)


def _sigmoid(z):
    # exp overflow on the negative tail saturates to inf, and
    # 1/(1+inf) == 0 is exactly the right limit; callers run under
    # np.errstate(over="ignore") so that overflow is not reported
    return 1.0 / (1.0 + np.exp(-z))


def _check_rollout_args(num_frames: int, warmup: int):
    if num_frames < 2:
        raise ValueError("sequences need at least 2 frames")
    if not 1 <= warmup <= num_frames - 1:
        raise ValueError(
            f"warmup {warmup} outside [1, {num_frames - 1}]"
        )


def _flatten(cell: LstmCell) -> np.ndarray:
    """The 16 parameters back to back, in ``PARAM_NAMES`` order."""
    return np.concatenate([arr.ravel() for arr in cell.params().values()])


def _blocks(flat: np.ndarray, m: int):
    """(W_x, W_h, b_x, b_h) gate-major views of a flat parameter buffer.

    ``flat`` holds the 16 tensors in ``PARAM_NAMES`` order (see
    :func:`_flatten`), so ``w_ii..w_io`` are the (4, m, m) stack
    ``W_x``, ``w_hi..w_ho`` the stack ``W_h``, and the biases the
    (4, 1, m) stacks ``b_x`` and ``b_h``, each in i, f, g, o order.
    """
    w = 4 * m * m
    return (flat[:w].reshape(4, m, m), flat[w:2 * w].reshape(4, m, m),
            flat[2 * w:2 * w + 4 * m].reshape(4, 1, m),
            flat[2 * w + 4 * m:].reshape(4, 1, m))


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

    Loss is the MSE between frames 2..T and all T-1 predictions;
    gradients cover all 16 parameters.
    """
    f = linalg.as_matrix(frames, "frames")
    _check_rollout_args(f.shape[0], warmup)
    if f.shape[1] != cell.m:
        raise ValueError(f"frame length {f.shape[1]} != m={cell.m}")
    flat = _flatten(cell)
    loss, preds, cache, dpreds = _batch_loss(flat, f[None, :, :], warmup)
    gflat = np.zeros_like(flat)
    _backward(flat, warmup, preds, cache, dpreds, gflat)
    return loss, _views(gflat, cell.params())


def _views(flat: np.ndarray, like: dict) -> dict[str, np.ndarray]:
    """Views of ``flat`` shaped like the arrays of ``like``, back to back."""
    views, offset = {}, 0
    for name, arr in like.items():
        views[name] = flat[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return views


def _clip_grads(grads: dict, flat: np.ndarray, max_norm: float):
    """Scale ``flat``, whose views are ``grads``, to global norm ``max_norm``.

    The squared norm is summed per tensor, in ``grads`` order.
    """
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        flat *= max_norm / total


def train(cell: LstmCell, sequences, schedule: TrainSchedule, warmup: int,
          seed: int, grad_clip: float | None = None):
    """Mini-batch BPTT training with Adam; deterministic per seed.

    ``sequences`` is (S, T, m).  Gradients are averaged over the batch
    (the batched loss already normalises by batch size).  Optional
    global-norm gradient clipping to a positive ``grad_clip`` is off by
    default.  Returns the trained cell and per-epoch mean training loss.

    The sequences are validated once, on entry.  The 16 parameters and
    their gradients live as views in two flat buffers, which the kernel
    reads and writes directly.  Each batch zeroes the gradient buffer,
    accumulates into it, and makes one Adam step over the whole
    parameter buffer.  A step that leaves a
    non-finite entry raises the ``ValueError`` that building the cell
    would.  The returned cell holds copies of the parameters.
    """
    s = np.asarray(sequences, dtype=np.float64)
    if s.ndim != 3 or s.shape[0] == 0:
        raise ValueError("sequences must be a non-empty (S, T, m) array")
    if not np.all(np.isfinite(s)):
        raise ValueError("sequences contain non-finite values")
    _check_rollout_args(s.shape[1], warmup)
    if s.shape[2] != cell.m:
        raise ValueError(f"frame length {s.shape[2]} != m={cell.m}")
    if grad_clip is not None and not grad_clip > 0:
        # a negative scale would turn every step into gradient ascent
        raise ValueError(f"grad_clip must be positive, got {grad_clip!r}")

    initial = cell.params()
    pflat = _flatten(cell)
    gflat = np.zeros_like(pflat)
    params, grads = _views(pflat, initial), _views(gflat, initial)
    state = adam_init(pflat.shape)
    num = s.shape[0]
    history = np.zeros(schedule.epochs)
    orders = Rng(seed).permutations(num, schedule.epochs)
    for epoch, order in enumerate(orders):
        lr, wd = schedule_at(schedule, epoch)
        total = 0.0
        for start in range(0, num, schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            loss, preds, cache, dpreds = _batch_loss(pflat, s[chunk], warmup)
            gflat[...] = 0.0
            _backward(pflat, warmup, preds, cache, dpreds, gflat)
            if grad_clip is not None:
                _clip_grads(grads, gflat, grad_clip)
            pflat[...] = adam_step(state, pflat, gflat, lr, wd)
            if not np.isfinite(pflat).all():
                bad = next(name for name, arr in params.items()
                           if not np.isfinite(arr).all())
                raise ValueError(f"{bad} contains non-finite entries")
            total += loss * len(chunk)
        history[epoch] = total / num
    return cell_from_params(cell.m, {name: arr.copy()
                                     for name, arr in params.items()}), history


def rollout(cell: LstmCell, sequences, warmup: int) -> np.ndarray:
    """Batched rollout over (S, T, m) sequences; returns (S, T-1, m).

    Entry ``[s, k]`` is the prediction of frame k+1 of sequence s.  The
    first ``warmup`` steps of each sequence consume real frames; every
    later step consumes the previous prediction.
    """
    z = np.asarray(sequences, dtype=np.float64)
    if z.ndim != 3 or z.shape[0] == 0:
        raise ValueError("sequences must be a non-empty (S, T, m) array")
    _check_rollout_args(z.shape[1], warmup)
    if z.shape[2] != cell.m:
        raise ValueError(f"frame length {z.shape[2]} != m={cell.m}")
    preds, _ = _forward(_flatten(cell), z, warmup, keep_cache=False)
    return preds


def evaluate_prediction(cell: LstmCell, latent_sequences, raw_sequences,
                        warmup: int, decode_fn) -> float:
    """Pixel-space free-run prediction MSE over a test set.

    Rolls the cell over the latent test sequences, decodes the
    predictions of the frames after the warm-up phase with
    ``decode_fn`` (mapping a (k, m) stack to (k, n)), and returns the
    mean over sequences of the MSE against the corresponding raw
    frames.  Pass an identity ``decode_fn`` for uncompressed inputs.
    """
    z = np.asarray(latent_sequences, dtype=np.float64)
    raw = np.asarray(raw_sequences, dtype=np.float64)
    if z.ndim != 3 or raw.ndim != 3:
        raise ValueError("sequence stacks must be 3-D (S, T, dim)")
    if z.shape[0] != raw.shape[0] or z.shape[1] != raw.shape[1]:
        raise ValueError("latent and raw sequence stacks must align")
    preds = rollout(cell, z, warmup)
    free = preds[:, warmup - 1:, :]          # predictions of frames W+1..T
    num_seq, num_eval, _ = free.shape
    decoded = decode_fn(free.reshape(num_seq * num_eval, -1))
    decoded = decoded.reshape(num_seq, num_eval, -1)
    targets = raw[:, warmup:, :]
    per_seq = np.mean((decoded - targets) ** 2, axis=(1, 2))
    return float(np.mean(per_seq))
