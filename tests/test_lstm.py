import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gtslatent import lstm, optim
from gtslatent.optim import TrainSchedule, adam_step, schedule_at
from gtslatent.rng import Rng

# The per-gate names the reference kernel reads: weights (w) and biases
# (b) on the input (i) or the hidden state (h), for gates i, f, g, o.
# In this order they are the gate slices of ``cell.flat`` back to back.
PARAM_NAMES = tuple(f"{kind}_{side}{gate}" for kind in "wb" for side in "ih"
                    for gate in "ifgo")


def _per_gate(blocks):
    """The 16 gate slices of a ``w_x``/``w_h``/``b_x``/``b_h`` mapping, as
    views keyed ``w_ii`` .. ``b_ho``: (m, m) weights, length-m biases."""
    w_x, w_h, b_x, b_h = blocks.values()
    return dict(zip(PARAM_NAMES, [*w_x, *w_h, *b_x[:, 0], *b_h[:, 0]],
                    strict=True))


def _gates(cell):
    return SimpleNamespace(**_per_gate(cell.params()))


def _cell(m, params):
    """A cell from the 16 per-gate tensors, keyed by ``PARAM_NAMES``."""
    return lstm.LstmCell(m, np.concatenate([np.ravel(params[name])
                                            for name in PARAM_NAMES]))


def _random_cell(m, seed, bias_scale=0.5):
    rng = Rng(seed)
    flat = lstm.init_cell(m, seed=rng.next_u64()).flat
    biases = rng.uniform_matrix(8, m, -bias_scale, bias_scale)
    flat[8 * m * m:] = biases.ravel()
    return lstm.LstmCell(m, flat)


def _fd_grads(cell, frames, warmup, h=1e-6):
    """Central differences in every entry of ``cell.flat``, per gate."""
    grad = np.zeros_like(cell.flat)
    for k in range(grad.size):
        plus = cell.flat.copy()
        plus[k] += h
        lp, _ = lstm.loss_and_grad(lstm.LstmCell(cell.m, plus), frames, warmup)
        minus = cell.flat.copy()
        minus[k] -= h
        lm, _ = lstm.loss_and_grad(lstm.LstmCell(cell.m, minus), frames,
                                   warmup)
        grad[k] = (lp - lm) / (2.0 * h)
    return _per_gate(lstm._named(grad, cell.m))


def _reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _reference_forward(cell, batch, warmup):
    """The per-gate kernel that ``lstm._forward`` runs on gate blocks.

    Returns (predictions, cache), one ``(x, h, c, i, f, g, o, tanh(c_new))``
    cache tuple per step.
    """
    p = _gates(cell)
    bsz, t_total, m = batch.shape
    h = np.zeros((bsz, m))
    c = np.zeros((bsz, m))
    preds = np.empty((bsz, t_total - 1, m))
    cache = []
    with np.errstate(over="ignore"):
        for k in range(t_total - 1):
            x = batch[:, k, :] if k < warmup else preds[:, k - 1, :]
            i = _reference_sigmoid(x @ p.w_ii.T + p.b_ii
                                   + h @ p.w_hi.T + p.b_hi)
            f = _reference_sigmoid(x @ p.w_if.T + p.b_if
                                   + h @ p.w_hf.T + p.b_hf)
            g = np.tanh(x @ p.w_ig.T + p.b_ig + h @ p.w_hg.T
                        + p.b_hg)
            o = _reference_sigmoid(x @ p.w_io.T + p.b_io
                                   + h @ p.w_ho.T + p.b_ho)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            cache.append((x, h, c, i, f, g, o, tc))
            h, c = h_new, c_new
            preds[:, k, :] = h_new
    return preds, cache


def _reference_backward(cell, warmup, preds, cache, dpreds, grads):
    """The per-gate BPTT that ``lstm._backward`` runs on gate blocks;
    adds into ``grads``, one array per parameter name."""
    p = _gates(cell)
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

        dh_carry = (dai @ p.w_hi + daf @ p.w_hf
                    + dag @ p.w_hg + dao @ p.w_ho)
        if k >= warmup:
            dx = (dai @ p.w_ii + daf @ p.w_if
                  + dag @ p.w_ig + dao @ p.w_io)
            dh_carry = dh_carry + dx


def _reference_loss_and_grads(cell, batch, warmup):
    """Loss, predictions, cache and the 16 gradients of the reference kernel."""
    preds, cache = _reference_forward(cell, batch, warmup)
    diff = preds - batch[:, 1:, :]
    loss = float(np.mean(diff * diff))
    grads = {k: np.zeros_like(v) for k, v in _per_gate(cell.params()).items()}
    _reference_backward(cell, warmup, preds, cache, (2.0 / diff.size) * diff,
                        grads)
    return loss, preds, cache, grads


def _reference_train(cell, seqs, schedule, warmup, seed):
    """lstm.train as a plain loop: a checked cell per batch, the reference
    kernel with fresh gradient arrays, and one textbook Adam step per
    parameter tensor."""
    rng = Rng(seed)
    params = {k: v.copy() for k, v in _per_gate(cell.params()).items()}
    moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
    t, history = 0, []
    for epoch in range(schedule.epochs):
        lr, wd = schedule_at(schedule, epoch)
        order = list(range(seqs.shape[0]))
        for i in range(len(order) - 1, 0, -1):  # one draw at a time
            j = rng.randint(i + 1)
            order[i], order[j] = order[j], order[i]
        total = 0.0
        for start in range(0, len(order), schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            current = _cell(cell.m, params)
            loss, _, _, grads = _reference_loss_and_grads(current, seqs[chunk],
                                                          warmup)
            t += 1
            for name in PARAM_NAMES:
                m, v = moments[name]
                g = grads[name] + wd * params[name]
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                moments[name] = (m, v)
                params[name] = params[name] - lr * (m / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            total += loss * len(chunk)
        history.append(total / seqs.shape[0])
    return params, np.array(history)


def _reference_step(cell, x, h, c):
    """One gate update of a single sequence, written out per gate."""
    p = _gates(cell)
    i = 1.0 / (1.0 + np.exp(-(p.w_ii @ x + p.b_ii + p.w_hi @ h + p.b_hi)))
    f = 1.0 / (1.0 + np.exp(-(p.w_if @ x + p.b_if + p.w_hf @ h + p.b_hf)))
    g = np.tanh(p.w_ig @ x + p.b_ig + p.w_hg @ h + p.b_hg)
    o = 1.0 / (1.0 + np.exp(-(p.w_io @ x + p.b_io + p.w_ho @ h + p.b_ho)))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def _reference_run(cell, frames, warmup):
    """(T-1, m) predictions of one sequence by chaining _reference_step."""
    h = c = np.zeros(cell.m)
    preds = []
    for k in range(frames.shape[0] - 1):
        h, c = _reference_step(cell, frames[k] if k < warmup else preds[-1],
                               h, c)
        preds.append(h)
    return np.array(preds)


def _states(cell, frames, warmup):
    """(hidden, cell) state after every step of a one-sequence rollout.

    Read back from the forward pass's cache, whose step k holds the
    state it started from and the (4, B, m) block of its gates.
    """
    preds, cache = lstm._forward(cell.flat, frames[None], warmup,
                                 keep_cache=True)
    cs = np.array([f * c + i * g for _, _, c, (i, f, g, _), _ in cache])
    return preds[0], cs[:, 0, :]


def _zero_cell(m):
    return lstm.LstmCell(m, np.zeros(8 * m * (m + 1)))


class TestInit:
    def test_deterministic(self):
        a = lstm.init_cell(3, seed=1)
        b = lstm.init_cell(3, seed=1)
        assert np.array_equal(a.flat, b.flat)

    def test_weights_are_successive_gate_draws(self):
        # one (8m, m) draw is the eight (m, m) per-gate draws in a row
        m, bound = 5, 1.0 / np.sqrt(5)
        rng = Rng(3)
        draws = [rng.uniform_matrix(m, m, -bound, bound) for _ in range(8)]
        weights = lstm.init_cell(m, seed=3).flat[:8 * m * m]
        assert weights.tobytes() == np.concatenate(draws, axis=None).tobytes()

    def test_biases_zero_weights_bounded(self):
        cell = lstm.init_cell(9, seed=2)
        params = cell.params()
        for name in ("b_x", "b_h"):
            assert np.array_equal(params[name], np.zeros((4, 1, 9)))
        for name in ("w_x", "w_h"):
            assert np.max(np.abs(params[name])) <= 1.0 / 3.0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            lstm.init_cell(0, seed=1)


class TestCell:
    @pytest.mark.parametrize("flat, match", [
        (np.zeros(47), "flat length 47 != 8m\\(m\\+1\\) = 48"),
        (np.zeros((1, 48)), "flat must be 1-D"),
        (np.full(48, np.nan), "flat contains non-finite entries"),
        (np.full(48, np.inf), "flat contains non-finite entries"),
    ])
    def test_rejects_bad_buffer(self, flat, match):
        with pytest.raises(ValueError, match=match):
            lstm.LstmCell(2, flat)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="at least 1"):
            lstm.LstmCell(0, np.zeros(0))

    def test_params_are_views_of_the_buffer(self):
        cell = _random_cell(3, seed=1)
        params = cell.params()
        assert list(params) == ["w_x", "w_h", "b_x", "b_h"]
        assert [v.shape for v in params.values()] == [(4, 3, 3), (4, 3, 3),
                                                      (4, 1, 3), (4, 1, 3)]
        assert all(np.shares_memory(v, cell.flat) for v in params.values())
        assert np.concatenate(list(params.values()), axis=None).tobytes() \
            == cell.flat.tobytes()
        strided = lstm.LstmCell(1, np.zeros(32)[::2])
        assert all(np.shares_memory(v, strided.flat)
                   for v in strided.params().values())


class TestStep:
    """One gate update, seen through a one-sequence rollout."""

    def test_all_zero_cell(self):
        frames = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 0.0, 0.0, 0.0]])
        h, c = _states(_zero_cell(4), frames, warmup=1)
        assert np.array_equal(c, np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))

    def test_zero_weights_nonzero_cell_state(self):
        # with zero weights every gate is constant: i = f = o = 1/2 and
        # g = tanh(b_ig), so the first step leaves c_1 = g / 2 != 0 and
        # the second must keep half of it
        m = 2
        params = _per_gate(_zero_cell(m).params())
        params["b_ig"] = np.array([1.2, -0.4])
        cell = _cell(m, params)
        h, c = _states(cell, np.zeros((3, m)), warmup=2)
        g = np.tanh(params["b_ig"])
        assert np.max(np.abs(c[1] - (0.5 * c[0] + 0.5 * g))) < 1e-15
        assert np.max(np.abs(c[0] - 0.5 * g)) < 1e-15
        assert np.max(np.abs(h[1] - 0.5 * np.tanh(c[1]))) < 1e-15

    def test_scalar_oracle(self):
        # m=1, every weight and bias 0.1, x=1, state zero
        cell = lstm.LstmCell(1, np.full(16, 0.1))
        h, c = _states(cell, np.array([[1.0], [0.0]]), warmup=1)
        pre = 0.1 * 1.0 + 0.1 + 0.1 * 0.0 + 0.1  # = 0.3 for every gate
        sig = 1.0 / (1.0 + math.exp(-pre))
        g = math.tanh(pre)
        c_ref = sig * 0.0 + sig * g
        h_ref = sig * math.tanh(c_ref)
        assert abs(c[0, 0] - c_ref) < 1e-12
        assert abs(h[0, 0] - h_ref) < 1e-12
        assert abs(lstm.rollout(cell, np.array([[[1.0], [0.0]]]), 1)[0, 0, 0]
                   - h_ref) < 1e-12

    def test_dimension_mismatch(self):
        cell = lstm.init_cell(3, seed=1)
        with pytest.raises(ValueError):
            lstm.rollout(cell, np.zeros((1, 2, 2)), warmup=1)
        with pytest.raises(ValueError):
            lstm.loss_and_grad(cell, np.zeros((2, 2)), warmup=1)

    def test_gate_bounds_via_state(self):
        # |c_t| <= |c_{t-1}| + 1 and |h| < 1 for any finite input
        cell = _random_cell(3, seed=3, bias_scale=2.0)
        frames = Rng(4).uniform_matrix(51, 3, -5.0, 5.0)
        h, c = _states(cell, frames, warmup=50)
        prev = np.vstack([np.zeros((1, 3)), c[:-1]])
        assert np.all(np.abs(c) <= np.abs(prev) + 1.0 + 1e-12)
        assert np.all(np.abs(h) < 1.0)


class TestRunSequence:
    """One sequence rolled out on its own (S = 1)."""

    def test_zero_cell_predicts_zero(self):
        m = 3
        cell = _zero_cell(m)
        frames = Rng(5).uniform_matrix(6, m, -1.0, 1.0)
        preds = lstm.rollout(cell, frames[None], warmup=2)[0]
        assert preds.shape == (5, m)
        assert np.array_equal(preds, np.zeros((5, m)))
        # evaluation MSE equals the mean energy of the scored frames
        mse, _ = lstm.evaluate_prediction(cell, frames[None], frames[None],
                                          2, lambda z: z)
        assert abs(mse - np.mean(frames[2:] ** 2)) < 1e-14

    def test_full_warmup_boundary(self):
        cell = _random_cell(2, seed=6)
        frames = Rng(7).uniform_matrix(5, 2, -1.0, 1.0)
        preds = lstm.rollout(cell, frames[None], warmup=4)[0]  # W = T-1
        # identical to teacher forcing on every step
        h = c = np.zeros(2)
        manual = []
        for k in range(4):
            h, c = _reference_step(cell, frames[k], h, c)
            manual.append(h)
        assert np.max(np.abs(preds - np.array(manual))) < 1e-14

    def test_matches_manual_chaining(self):
        cell = _random_cell(3, seed=8)
        frames = Rng(9).uniform_matrix(5, 3, -1.0, 1.0)
        preds = lstm.rollout(cell, frames[None], warmup=2)[0]
        h = c = np.zeros(3)
        manual = []
        for k in range(4):
            x = frames[k] if k < 2 else manual[k - 1]
            h, c = _reference_step(cell, x, h, c)
            manual.append(h)
        assert np.max(np.abs(preds - np.array(manual))) < 1e-14

    def test_warmup_bounds(self):
        cell = _random_cell(2, seed=10)
        frames = Rng(11).uniform_matrix(4, 2, -1.0, 1.0)
        with pytest.raises(ValueError):
            lstm.rollout(cell, frames[None], warmup=0)
        with pytest.raises(ValueError):
            lstm.rollout(cell, frames[None], warmup=4)


class TestLossAndGrad:
    def test_zero_frames_zero_loss_and_grads(self):
        cell = _random_cell(2, seed=12, bias_scale=0.0)
        loss, grads = lstm.loss_and_grad(cell, np.zeros((4, 2)), warmup=2)
        assert loss == 0.0
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_gradcheck_small_instance(self):
        cell = _random_cell(1, seed=13)
        frames = Rng(14).uniform_matrix(3, 1, -1.0, 1.0)
        _, grads = lstm.loss_and_grad(cell, frames, warmup=1)
        grads = _per_gate(grads)
        fd = _fd_grads(cell, frames, warmup=1)
        for name in PARAM_NAMES:
            denom = max(np.max(np.abs(fd[name])), np.max(np.abs(grads[name])),
                        1e-6)
            assert np.max(np.abs(grads[name] - fd[name])) / denom < 1e-4

    def test_gradcheck_random_instances(self):
        # relative error floored at 1e-6 so a tensor whose true gradient
        # vanishes is compared absolutely against finite-difference noise
        rng = Rng(15)
        for trial in range(12):
            m = rng.randint(3) + 1
            t_len = rng.randint(4) + 2
            warmup = rng.randint(t_len - 1) + 1
            cell = _random_cell(m, seed=rng.next_u64())
            frames = rng.uniform_matrix(t_len, m, -1.5, 1.5)
            _, grads = lstm.loss_and_grad(cell, frames, warmup)
            grads = _per_gate(grads)
            fd = _fd_grads(cell, frames, warmup)
            for name in PARAM_NAMES:
                denom = max(np.max(np.abs(fd[name])),
                            np.max(np.abs(grads[name])), 1e-6)
                rel = np.max(np.abs(grads[name] - fd[name])) / denom
                assert rel < 1e-4, (trial, name, rel)

    def test_doubling_frames_quadruples_loss_for_zero_cell(self):
        m = 2
        cell = _zero_cell(m)
        frames = Rng(16).uniform_matrix(5, m, -0.5, 0.5)
        loss1, _ = lstm.loss_and_grad(cell, frames, warmup=2)
        loss2, _ = lstm.loss_and_grad(cell, 2.0 * frames, warmup=2)
        assert abs(loss2 - 4.0 * loss1) < 1e-15


class TestTrain:
    def test_zero_epochs_unchanged(self):
        cell = lstm.init_cell(2, seed=17)
        seqs = Rng(18).uniform_matrix(12, 2, -1, 1).reshape(3, 4, 2)
        sched = TrainSchedule(epochs=0, batch_size=2, lr0=0.01)
        out, history = lstm.train(cell, seqs, sched, warmup=2, seed=19)
        assert np.array_equal(out.flat, cell.flat)
        assert out.flat.flags.owndata
        assert not np.shares_memory(out.flat, cell.flat)
        assert history.shape == (0,)

    def test_training_improves_constant_sequences(self):
        rng = Rng(20)
        values = rng.uniform_matrix(6, 3, -0.5, 0.5)
        seqs = np.repeat(values[:, None, :], 5, axis=1)  # constant per sequence
        cell = lstm.init_cell(3, seed=21)
        sched = TrainSchedule(epochs=60, batch_size=3, lr0=0.01)
        trained, _ = lstm.train(cell, seqs, sched, warmup=2, seed=22)
        before, _ = lstm.evaluate_prediction(cell, seqs, seqs, 2, lambda z: z)
        after, _ = lstm.evaluate_prediction(trained, seqs, seqs, 2,
                                            lambda z: z)
        assert after < before

    def test_same_seed_bitwise_history(self):
        cell = lstm.init_cell(2, seed=23)
        seqs = Rng(24).uniform_matrix(10, 2, -1, 1).reshape(5, 2, 2)
        sched = TrainSchedule(epochs=4, batch_size=2, lr0=0.01)
        _, h1 = lstm.train(cell, seqs, sched, warmup=1, seed=25)
        _, h2 = lstm.train(cell, seqs, sched, warmup=1, seed=25)
        assert np.array_equal(h1, h2)

    def test_validation(self):
        cell = lstm.init_cell(2, seed=29)
        sched = TrainSchedule(epochs=1, batch_size=2, lr0=0.01)
        with pytest.raises(ValueError):
            lstm.train(cell, np.zeros((0, 4, 2)), sched, warmup=2, seed=1)
        with pytest.raises(ValueError):
            lstm.train(cell, np.zeros((2, 4, 3)), sched, warmup=2, seed=1)

    def test_non_finite_sequences_rejected(self):
        cell = lstm.init_cell(2, seed=29)
        sched = TrainSchedule(epochs=1, batch_size=2, lr0=0.01)
        for bad in (np.nan, np.inf):
            seqs = np.zeros((3, 4, 2))
            seqs[1, 2, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                lstm.train(cell, seqs, sched, warmup=2, seed=1)

    def test_diverging_step_raises_at_once(self, monkeypatch):
        steps = []

        def counted(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            steps.append(bool(np.isfinite(out).all()))
            return out

        monkeypatch.setattr(optim, "adam_step", counted)
        cell = lstm.init_cell(3, seed=4)
        seqs = Rng(5).uniform_matrix(24, 3, -1, 1).reshape(4, 6, 3)
        sched = TrainSchedule(epochs=3, batch_size=2, lr0=1e308)
        with pytest.raises(ValueError,
                           match="w_x contains non-finite entries"):
            lstm.train(cell, seqs, sched, warmup=2, seed=6)
        # no step is taken after the first one that left a non-finite entry
        assert steps.index(False) == len(steps) - 1 < 6

    @pytest.mark.parametrize("m", [3, 8, 1, 64])
    def test_matches_reference_loop_bitwise(self, m):
        cell = _random_cell(m, seed=34)
        seqs = Rng(35).uniform_matrix(7 * 6, m, -1, 1).reshape(7, 6, m)
        sched = TrainSchedule(epochs=4, batch_size=3, lr0=0.01,
                              lr_milestones=((2, 2.0),), wd0=1e-3)
        trained, history = lstm.train(cell, seqs, sched, warmup=3, seed=36)
        params, expect = _reference_train(cell, seqs, sched, 3, 36)
        assert np.array_equal(history, expect)
        got = _per_gate(trained.params())
        for name in PARAM_NAMES:
            assert np.array_equal(got[name], params[name]), name

    def test_returned_cell_owns_its_parameters(self):
        cell = lstm.init_cell(2, seed=37)
        seqs = Rng(38).uniform_matrix(12, 2, -1, 1).reshape(3, 4, 2)
        sched = TrainSchedule(epochs=1, batch_size=2, lr0=0.01)
        before = cell.flat.copy()
        out, _ = lstm.train(cell, seqs, sched, warmup=2, seed=39)
        assert out.flat.flags.owndata
        assert not np.shares_memory(out.flat, cell.flat)
        assert np.array_equal(cell.flat, before)


class TestRollout:
    def test_matches_reference_step_per_sequence(self):
        cell = _random_cell(3, seed=40)
        seqs = Rng(41).uniform_matrix(4 * 6, 3, -1, 1).reshape(4, 6, 3)
        preds = lstm.rollout(cell, seqs, warmup=2)
        assert preds.shape == (4, 5, 3)
        for k in range(4):
            expect = _reference_run(cell, seqs[k], warmup=2)
            assert np.max(np.abs(preds[k] - expect)) < 1e-14

    def test_peak_memory_below_the_cell(self):
        # the kernel reads the cell's own buffer: no per-call copy of it
        cell = lstm.init_cell(256, seed=43)
        batch = Rng(44).uniform_matrix(3, 256, -1, 1).reshape(1, 3, 256)
        tracemalloc.start()
        try:
            lstm.rollout(cell, batch, warmup=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cell.flat.nbytes

    def test_validation(self):
        cell = lstm.init_cell(2, seed=42)
        with pytest.raises(ValueError):
            lstm.rollout(cell, np.zeros((0, 4, 2)), warmup=2)
        with pytest.raises(ValueError, match=r"sequences must be 3-D, got "
                                             r"shape \(4, 2\)"):
            lstm.rollout(cell, np.zeros((4, 2)), warmup=2)
        with pytest.raises(ValueError,
                           match="sequences contains non-finite entries"):
            lstm.rollout(cell, np.full((2, 4, 2), np.nan), warmup=2)
        with pytest.raises(ValueError):
            lstm.rollout(cell, np.zeros((2, 4, 3)), warmup=2)
        with pytest.raises(ValueError):
            lstm.rollout(cell, np.zeros((2, 4, 2)), warmup=4)


class TestEvaluate:
    def test_perfect_predictor_on_zero_sequence(self):
        m = 2
        cell = _zero_cell(m)
        seqs = np.zeros((3, 5, m))
        mse, decoded = lstm.evaluate_prediction(cell, seqs, seqs, 2,
                                                lambda z: z)
        assert mse == 0.0
        assert np.array_equal(decoded, np.zeros((3, 3, m)))

    def test_decoder_applied(self):
        cell = lstm.init_cell(2, seed=30)
        z = Rng(31).uniform_matrix(5, 2, -1, 1).reshape(1, 5, 2)
        raw = np.concatenate([z, z], axis=2)  # n = 2m, duplicated latents
        duplicate = lambda zz: np.concatenate([zz, zz], axis=1)
        err, decoded = lstm.evaluate_prediction(cell, z, raw, 2, duplicate)
        direct, _ = lstm.evaluate_prediction(cell, z, z, 2, lambda zz: zz)
        assert abs(err - direct) < 1e-14
        assert decoded.shape == (1, 3, 4)

    def test_returns_the_decoded_predictions_it_scored(self):
        cell = lstm.init_cell(3, seed=33)
        z = Rng(34).uniform_matrix(4 * 6, 3, -1, 1).reshape(4, 6, 3)
        raw = Rng(35).uniform_matrix(4 * 6, 5, -1, 1).reshape(4, 6, 5)
        lift = Rng(36).uniform_matrix(3, 5, -1, 1)
        mse, decoded = lstm.evaluate_prediction(cell, z, raw, 2,
                                                lambda zz: zz @ lift)
        # the free-run predictions of frames 3..6, decoded, per sequence
        free = lstm.rollout(cell, z, 2)[:, 1:, :]
        assert decoded.shape == (4, 4, 5)
        assert np.allclose(decoded, free @ lift, rtol=0, atol=1e-14)
        # and the MSE is exactly the one of these predictions
        per_seq = np.mean((decoded - raw[:, 2:, :]) ** 2, axis=(1, 2))
        assert mse == float(np.mean(per_seq))

    def test_shape_validation(self):
        cell = lstm.init_cell(2, seed=32)
        with pytest.raises(ValueError):
            lstm.evaluate_prediction(cell, np.zeros((2, 5, 2)),
                                     np.zeros((3, 5, 4)), 2, lambda z: z)
        with pytest.raises(ValueError, match="raw sequences must be 3-D"):
            lstm.evaluate_prediction(cell, np.zeros((2, 5, 2)),
                                     np.zeros((10, 4)), 2, lambda z: z)

    @pytest.mark.parametrize("decode_fn", [
        lambda z: z[:, :1],                      # broadcast if unchecked
        lambda z: np.tile(z, 3)[:, :5].ravel(),  # reshaped if unchecked
    ], ids=["narrow", "flat"])
    def test_decoded_shape_must_match_raw_frames(self, decode_fn):
        cell = lstm.init_cell(2, seed=37)
        z = Rng(38).uniform_matrix(2 * 6, 2, -1, 1).reshape(2, 6, 2)
        raw = Rng(39).uniform_matrix(2 * 6, 5, -1, 1).reshape(2, 6, 5)
        with pytest.raises(ValueError, match=r"not \(8, 5\)"):
            lstm.evaluate_prediction(cell, z, raw, 2, decode_fn)

    def test_rejects_non_finite_raw_frames(self):
        # a NaN target frame would otherwise score as a silent nan MSE
        cell = lstm.init_cell(2, seed=32)
        raw = np.zeros((2, 5, 4))
        raw[1, 3, 2] = np.nan
        with pytest.raises(ValueError,
                           match="raw sequences contains non-finite entries"):
            lstm.evaluate_prediction(cell, np.zeros((2, 5, 2)), raw, 2,
                                     lambda z: np.tile(z, 2))


def _same_bits(got, ref):
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestGateBlockKernel:
    """The gate-block kernel against the per-gate reference, bit for bit."""

    @pytest.mark.parametrize("m", [1, 3, 8, 64])
    @pytest.mark.parametrize("bsz", [1, 6])
    @pytest.mark.parametrize("late_warmup", [False, True])
    def test_matches_per_gate_reference_bitwise(self, m, bsz, late_warmup):
        t_len = 7
        warmup = t_len - 1 if late_warmup else 1
        cell = _random_cell(m, seed=50 + m)
        batch = Rng(51 + bsz).uniform_matrix(bsz * t_len, m, -1.5, 1.5)
        batch = batch.reshape(bsz, t_len, m)
        loss, preds, cache, grads = _reference_loss_and_grads(cell, batch,
                                                              warmup)

        flat = cell.flat
        got_loss, got_preds, got_cache, dpreds = lstm._batch_loss(flat, batch,
                                                                  warmup)
        gflat = np.zeros_like(flat)
        lstm._backward(flat, warmup, got_preds, got_cache, dpreds, gflat)
        assert got_loss == loss
        assert _same_bits(got_preds, preds)
        assert len(got_cache) == len(cache) == t_len - 1
        for step, (got, ref) in enumerate(zip(got_cache, cache)):
            x, h, c, (i, f, g, o), tc = got
            for name, a, b in zip(("x", "h", "c", "i", "f", "g", "o", "tc"),
                                  (x, h, c, i, f, g, o, tc), ref):
                assert _same_bits(a, b), (step, name)
        got_grads = _per_gate(lstm._named(gflat, m))
        for name in PARAM_NAMES:
            assert _same_bits(got_grads[name], grads[name]), name

        assert _same_bits(lstm.rollout(cell, batch, warmup), preds)
        if bsz == 1:
            public_loss, public_grads = lstm.loss_and_grad(cell, batch[0],
                                                           warmup)
            assert public_loss == loss
            public_grads = _per_gate(public_grads)
            for name in PARAM_NAMES:
                assert _same_bits(public_grads[name], grads[name]), name
