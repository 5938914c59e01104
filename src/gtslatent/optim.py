"""Adam, milestone learning-rate / weight-decay schedules, and the
mini-batch loop that trains every model of the package.

Classic Adam with the L2 penalty folded into the gradient (coupled
decay, not AdamW-style decoupled decay).  Schedules are piecewise
constant: a milestone ``(epoch, divisor)`` divides the base value from
that epoch onward, inclusive.  :func:`train` runs both over seeded,
shuffled mini-batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_float, as_int
from .rng import Rng


#: Adam's moment decay rates and denominator offset, the published
#: defaults; :func:`train` uses them for every model
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulators; owned by one training loop."""

    m: np.ndarray
    v: np.ndarray
    t: int


def adam_init(shape) -> AdamState:
    return AdamState(np.zeros(shape), np.zeros(shape), 0)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              lr: float, weight_decay: float = 0.0) -> np.ndarray:
    """One Adam update; returns the new parameter array.

    The effective gradient is ``grad + weight_decay * params``; both
    moment estimates are bias-corrected by the step counter.
    ``state.m`` and ``state.v`` are updated in place.  ``params`` and
    ``grad`` are never written: the result is a fresh array, computed
    in two scratch buffers with the same floating-point operations, in
    the same order, as the textbook expression
    ``params - lr * m_hat / (sqrt(v_hat) + eps)``, so it is bitwise
    equal to it.
    """
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grad {grad.shape}, "
            f"state {state.m.shape}"
        )
    if not 0.0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got "
                         f"{lr!r}")
    if not 0.0 <= weight_decay < math.inf:
        raise ValueError(f"weight decay must be nonnegative and finite, got "
                         f"{weight_decay!r}")

    g = np.multiply(params, weight_decay, out=np.empty_like(params))
    g += grad                                 # g = grad + wd * params
    tmp = np.empty_like(g)
    state.t += 1
    state.m *= BETA1                          # m = b1 m + (1 - b1) g
    state.m += np.multiply(g, 1.0 - BETA1, out=tmp)
    np.multiply(g, 1.0 - BETA2, out=tmp)      # v = b2 v + ((1 - b2) g) g
    tmp *= g
    state.v *= BETA2
    state.v += tmp
    m_hat = np.divide(state.m, 1.0 - BETA1 ** state.t, out=g)
    denom = np.divide(state.v, 1.0 - BETA2 ** state.t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += EPS
    m_hat *= lr
    m_hat /= denom
    return np.subtract(params, m_hat, out=m_hat)


def _milestones(milestones, label) -> tuple:
    """``milestones`` as checked (int epoch, float divisor) pairs."""
    if not (isinstance(milestones, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in milestones)):
        raise ValueError(f"{label} milestones must be a list of (epoch, "
                         f"divisor) pairs, got {milestones!r}")
    out, last = [], -1
    for epoch, divisor in milestones:
        epoch = as_int(epoch, f"{label} milestone epoch")
        divisor = as_float(divisor, f"{label} milestone divisor")
        if epoch <= last:
            raise ValueError(f"{label} milestone epochs must be strictly increasing")
        if not 0.0 < divisor < math.inf:
            raise ValueError(f"{label} milestone divisors must be positive "
                             f"and finite, got {divisor!r}")
        out.append((epoch, divisor))
        last = epoch
    return tuple(out)


@dataclass(frozen=True)
class TrainSchedule:
    """Epoch/batch counts plus stepwise lr and weight-decay schedules.

    The one reader of schedule fields: counts must be integers and
    rates and divisors real numbers (bools and strings raise), and the
    instance keeps them as ``int`` and ``float``.
    """

    epochs: int
    batch_size: int
    lr0: float
    lr_milestones: tuple = ()
    wd0: float = 0.0
    wd_milestones: tuple = ()

    def __post_init__(self):
        checked = {"epochs": as_int(self.epochs, "epochs"),
                   "batch_size": as_int(self.batch_size, "batch_size"),
                   "lr0": as_float(self.lr0, "lr0"),
                   "lr_milestones": _milestones(self.lr_milestones, "lr"),
                   "wd0": as_float(self.wd0, "wd0"),
                   "wd_milestones": _milestones(self.wd_milestones, "wd")}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got "
                             f"{self.lr0!r}")
        if not 0.0 <= self.wd0 < math.inf:
            raise ValueError(f"wd0 must be nonnegative and finite, got "
                             f"{self.wd0!r}")


def schedule_at(schedule: TrainSchedule, epoch: int) -> tuple[float, float]:
    """(lr, weight_decay) in force at the given epoch."""
    if not 0 <= epoch < schedule.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.epochs})")
    lr = schedule.lr0
    for at, divisor in schedule.lr_milestones:
        if at <= epoch:
            lr /= divisor
    wd = schedule.wd0
    for at, divisor in schedule.wd_milestones:
        if at <= epoch:
            wd /= divisor
    return lr, wd


def train(params: np.ndarray, num: int, schedule: TrainSchedule, seed: int,
          loss_and_grad, parts) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch Adam over ``num`` items; deterministic per seed.

    Each epoch visits the items in a fresh ``Rng(seed).permutations``
    order, in batches of ``schedule.batch_size`` indices (a final
    partial batch is used as-is), at that epoch's :func:`schedule_at`.
    ``loss_and_grad(params, idx)`` gives the mean loss over items
    ``idx`` and its gradient; each batch makes one Adam step.  The
    caller's ``params`` is never written nor shared with the result.

    Returns the trained params and the per-epoch mean loss, each batch
    weighted by its size.  A step that leaves a non-finite entry raises
    ``ValueError("<name> contains non-finite entries")`` for the first
    such ``(name, view)`` of ``parts(params)``, with no numpy warning.
    """
    params = params.copy()
    state = adam_init(params.shape)
    history = np.zeros(schedule.epochs)
    orders = Rng(seed).permutations(num, schedule.epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, order in enumerate(orders):
            lr, wd = schedule_at(schedule, epoch)
            total = 0.0
            for start in range(0, num, schedule.batch_size):
                idx = order[start:start + schedule.batch_size]
                loss, grad = loss_and_grad(params, idx)
                params = adam_step(state, params, grad, lr, wd)
                if not np.isfinite(params).all():
                    bad = next(name for name, view in parts(params)
                               if not np.isfinite(view).all())
                    raise ValueError(f"{bad} contains non-finite entries")
                total += loss * len(idx)
            history[epoch] = total / num
    return params, history
