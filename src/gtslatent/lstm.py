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


def _forward(cell: LstmCell, batch: np.ndarray, warmup: int,
             keep_cache: bool):
    """Batched rollout over (B, T, m) sequences.

    Returns (predictions, cache); predictions has shape (B, T-1, m).
    The cache stores everything the backward pass needs, one tuple per
    step.
    """
    bsz, t_total, m = batch.shape
    h = np.zeros((bsz, m))
    c = np.zeros((bsz, m))
    preds = np.empty((bsz, t_total - 1, m))
    cache = []
    with np.errstate(over="ignore"):  # see _sigmoid
        for k in range(t_total - 1):
            x = batch[:, k, :] if k < warmup else preds[:, k - 1, :]
            i = _sigmoid(x @ cell.w_ii.T + cell.b_ii + h @ cell.w_hi.T
                         + cell.b_hi)
            f = _sigmoid(x @ cell.w_if.T + cell.b_if + h @ cell.w_hf.T
                         + cell.b_hf)
            g = np.tanh(x @ cell.w_ig.T + cell.b_ig + h @ cell.w_hg.T
                        + cell.b_hg)
            o = _sigmoid(x @ cell.w_io.T + cell.b_io + h @ cell.w_ho.T
                         + cell.b_ho)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            if keep_cache:
                cache.append((x, h, c, i, f, g, o, tc))
            h, c = h_new, c_new
            preds[:, k, :] = h_new
    return preds, cache


def _backward(cell: LstmCell, warmup: int, preds: np.ndarray, cache,
              dpreds: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Exact BPTT through the forward graph of :func:`_forward`.

    ``dpreds`` is the loss gradient w.r.t. each prediction.  Where a
    prediction was fed back as the next input, its gradient receives
    the input path on top of the recurrent path.  The parameter
    gradients are added into ``grads`` (one array per parameter name),
    so pass zeroed arrays to get the gradient itself.
    """
    steps = preds.shape[1]
    dh_carry = np.zeros_like(preds[:, 0, :])
    dc_carry = np.zeros_like(dh_carry)
    for k in reversed(range(steps)):
        x, h_prev, c_prev, i, f, g, o, tc = cache[k]
        dh = dpreds[:, k, :] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f

        dai = di * i * (1.0 - i)
        daf = df * f * (1.0 - f)
        dag = dg * (1.0 - g * g)
        dao = do * o * (1.0 - o)

        grads["w_ii"] += dai.T @ x
        grads["w_if"] += daf.T @ x
        grads["w_ig"] += dag.T @ x
        grads["w_io"] += dao.T @ x
        grads["w_hi"] += dai.T @ h_prev
        grads["w_hf"] += daf.T @ h_prev
        grads["w_hg"] += dag.T @ h_prev
        grads["w_ho"] += dao.T @ h_prev
        si, sf, sg, so = dai.sum(0), daf.sum(0), dag.sum(0), dao.sum(0)
        grads["b_ii"] += si
        grads["b_hi"] += si
        grads["b_if"] += sf
        grads["b_hf"] += sf
        grads["b_ig"] += sg
        grads["b_hg"] += sg
        grads["b_io"] += so
        grads["b_ho"] += so

        dh_carry = (dai @ cell.w_hi + daf @ cell.w_hf
                    + dag @ cell.w_hg + dao @ cell.w_ho)
        if k >= warmup:  # input was preds[:, k-1, :]
            dx = (dai @ cell.w_ii + daf @ cell.w_if
                  + dag @ cell.w_ig + dao @ cell.w_io)
            dh_carry = dh_carry + dx


def _batch_loss(cell: LstmCell, batch: np.ndarray, warmup: int):
    preds, cache = _forward(cell, batch, warmup, keep_cache=True)
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
    loss, preds, cache, dpreds = _batch_loss(cell, f[None, :, :], warmup)
    grads = {name: np.zeros_like(arr) for name, arr in cell.params().items()}
    _backward(cell, warmup, preds, cache, dpreds, grads)
    return loss, grads


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
    their gradients live as views in two flat buffers; the working cell
    is built and validated once, over the parameter views.  Each batch
    zeroes the gradient buffer, accumulates into it, and makes one Adam
    step over the whole parameter buffer.  A step that leaves a
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
    pflat = np.concatenate([arr.ravel() for arr in initial.values()])
    gflat = np.zeros_like(pflat)
    params, grads = _views(pflat, initial), _views(gflat, initial)
    current = cell_from_params(cell.m, params)
    state = adam_init(pflat.shape)
    num = s.shape[0]
    history = np.zeros(schedule.epochs)
    orders = Rng(seed).permutations(num, schedule.epochs)
    for epoch, order in enumerate(orders):
        lr, wd = schedule_at(schedule, epoch)
        total = 0.0
        for start in range(0, num, schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            loss, preds, cache, dpreds = _batch_loss(current, s[chunk], warmup)
            gflat[...] = 0.0
            _backward(current, warmup, preds, cache, dpreds, grads)
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
    preds, _ = _forward(cell, z, warmup, keep_cache=False)
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
