import numpy as np
import pytest

from gtslatent import ae, linalg, optim, spectral
from gtslatent.optim import TrainSchedule, adam_step, schedule_at
from gtslatent.rng import Rng


def _finite_difference_grad(codec, batch, h=1e-6):
    grad = np.zeros_like(codec.a)
    it = np.nditer(codec.a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = codec.a.copy()
        plus[idx] += h
        minus = codec.a.copy()
        minus[idx] -= h
        lp, _ = ae._loss_and_grad(plus, batch)
        lm, _ = ae._loss_and_grad(minus, batch)
        grad[idx] = (lp - lm) / (2.0 * h)
    return grad


def _reference_train(codec, frames, schedule, seed):
    """ae.train as a plain loop: the loss kernel per batch, textbook Adam."""
    rng = Rng(seed)
    a = codec.a.copy()
    m, v, t = np.zeros_like(a), np.zeros_like(a), 0
    history = []
    for epoch in range(schedule.epochs):
        lr, wd = schedule_at(schedule, epoch)
        order = list(range(frames.shape[0]))
        for i in range(len(order) - 1, 0, -1):  # one draw at a time
            j = rng.randint(i + 1)
            order[i], order[j] = order[j], order[i]
        total = 0.0
        for start in range(0, len(order), schedule.batch_size):
            chunk = order[start:start + schedule.batch_size]
            loss, grad = ae._loss_and_grad(a, frames[chunk])
            t += 1
            g = grad + wd * a
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            a = a - lr * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            total += loss * len(chunk)
        history.append(total / frames.shape[0])
    return a, np.array(history)


class TestInit:
    def test_deterministic_per_seed(self):
        a = ae.init_codec(8, 3, seed=5)
        b = ae.init_codec(8, 3, seed=5)
        assert np.array_equal(a.a, b.a)

    def test_entries_bounded(self):
        codec = ae.init_codec(100, 10, seed=1)
        assert np.all(np.abs(codec.a) <= 0.1)

    def test_seeds_differ(self):
        a = ae.init_codec(6, 2, seed=1)
        b = ae.init_codec(6, 2, seed=2)
        assert np.any(a.a != b.a)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            ae.init_codec(4, 0, seed=1)
        with pytest.raises(ValueError):
            ae.init_codec(4, 5, seed=1)


class TestEncodeDecode:
    """An AE codec encodes and decodes through the spectral functions."""

    def test_identity_columns_select_entries(self):
        codec = spectral.LinearCodec(np.eye(5)[:, :2])
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        assert np.array_equal(spectral.encode_frames(codec, x), [[1.0, 2.0]])

    def test_zero_signal(self):
        codec = ae.init_codec(6, 3, seed=3)
        assert np.array_equal(spectral.encode_frames(codec, np.zeros((2, 6))),
                              np.zeros((2, 3)))

    def test_encode_matches_matmul_oracle(self):
        codec = ae.init_codec(7, 3, seed=4)
        x = Rng(5).uniform_matrix(2, 7, -1.0, 1.0)
        by_loop = np.array([[sum(x[b, i] * codec.a[i, j] for i in range(7))
                             for j in range(3)] for b in range(2)])
        assert np.max(np.abs(spectral.encode_frames(codec, x) - by_loop)) < 1e-12

    def test_orthonormal_columns_round_trip_span(self):
        q, _ = np.linalg.qr(Rng(6).uniform_matrix(6, 2, -1.0, 1.0))
        codec = spectral.LinearCodec(q)
        x = np.array([[0.3, -1.2], [2.0, 0.5]]) @ q.T  # rows in the span
        back = spectral.decode_frames(codec, spectral.encode_frames(codec, x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_zero_codec_reconstruction(self):
        codec = spectral.LinearCodec(np.zeros((4, 2)))
        x = np.array([[1.0, -1.0, 2.0, 0.5]])
        back = spectral.decode_frames(codec, spectral.encode_frames(codec, x))
        assert np.array_equal(back, np.zeros((1, 4)))
        loss, _ = ae._loss_and_grad(codec.a, x)
        assert abs(loss - np.mean(x ** 2)) < 1e-15
        assert spectral.reconstruction_mse(codec, x) == loss

    def test_round_trip_equals_gram_oracle(self):
        codec = ae.init_codec(6, 3, seed=7)
        x = Rng(8).uniform_matrix(3, 6, -1.0, 1.0)
        oracle = x @ (codec.a @ codec.a.T)
        back = spectral.decode_frames(codec, spectral.encode_frames(codec, x))
        assert np.max(np.abs(back - oracle)) < 1e-12

    def test_linearity(self):
        codec = ae.init_codec(5, 2, seed=9)
        rng = Rng(10)
        x = rng.uniform_matrix(2, 5, -1.0, 1.0)
        y = rng.uniform_matrix(2, 5, -1.0, 1.0)
        combo = spectral.encode_frames(codec, 2.0 * x - 3.0 * y)
        split = (2.0 * spectral.encode_frames(codec, x)
                 - 3.0 * spectral.encode_frames(codec, y))
        assert np.max(np.abs(combo - split)) < 1e-10
        u = rng.uniform_matrix(2, 2, -1.0, 1.0)
        v = rng.uniform_matrix(2, 2, -1.0, 1.0)
        combo = spectral.decode_frames(codec, 0.5 * u + 4.0 * v)
        split = (0.5 * spectral.decode_frames(codec, u)
                 + 4.0 * spectral.decode_frames(codec, v))
        assert np.max(np.abs(combo - split)) < 1e-10

    def test_length_mismatch(self):
        codec = ae.init_codec(5, 2, seed=11)
        with pytest.raises(ValueError):
            spectral.encode_frames(codec, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            spectral.decode_frames(codec, np.zeros((1, 3)))


class TestLossAndGrad:
    def test_zero_codec_has_zero_gradient(self):
        codec = spectral.LinearCodec(np.zeros((4, 2)))
        batch = Rng(1).uniform_matrix(3, 4, -1.0, 1.0)
        _, grad = ae._loss_and_grad(codec.a, batch)
        assert np.array_equal(grad, np.zeros((4, 2)))

    def test_span_signals_give_zero_loss_and_grad(self):
        q, _ = np.linalg.qr(Rng(2).uniform_matrix(6, 3, -1.0, 1.0))
        codec = spectral.LinearCodec(q)
        batch = (q @ Rng(3).uniform_matrix(3, 4, -1.0, 1.0)).T  # in span
        loss, grad = ae._loss_and_grad(codec.a, batch)
        assert loss < 1e-25
        assert np.max(np.abs(grad)) < 1e-12

    def test_gradient_matches_finite_differences_6x3(self):
        codec = ae.init_codec(6, 3, seed=4)
        batch = Rng(5).uniform_matrix(4, 6, -1.0, 1.0)
        _, grad = ae._loss_and_grad(codec.a, batch)
        fd = _finite_difference_grad(codec, batch)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-6

    def test_gradient_check_random_instances(self):
        rng = Rng(6)
        for trial in range(20):
            n = rng.randint(9) + 2
            m = rng.randint(min(n, 5)) + 1
            bsz = rng.randint(8) + 1
            codec = ae.init_codec(n, m, seed=rng.next_u64())
            batch = rng.uniform_matrix(bsz, n, -1.5, 1.5)
            _, grad = ae._loss_and_grad(codec.a, batch)
            fd = _finite_difference_grad(codec, batch)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-5, trial


class TestTrain:
    def test_zero_epochs_returns_codec_unchanged(self):
        codec = ae.init_codec(4, 2, seed=1)
        sched = TrainSchedule(epochs=0, batch_size=2, lr0=0.1)
        out, history = ae.train(codec, Rng(2).uniform_matrix(6, 4, -1, 1),
                                sched, seed=3)
        assert isinstance(out, spectral.LinearCodec)
        assert np.array_equal(out.a, codec.a)
        assert history.shape == (0,)

    def test_line_dataset_reaches_projection_optimum(self):
        # points on a line through the origin: optimal rank-1 codec is exact
        rng = Rng(4)
        direction = np.array([0.6, 0.8])
        ts = np.array([rng.uniform_in(-2.0, 2.0) for _ in range(40)])
        frames = ts[:, None] * direction[None, :]
        # closed-form optimum: projecting onto the line reconstructs exactly
        proj = np.outer(direction, direction)
        assert linalg.mse(frames, frames @ proj.T) < 1e-28
        codec = ae.init_codec(2, 1, seed=5)
        sched = TrainSchedule(epochs=300, batch_size=10, lr0=0.02)
        trained, history = ae.train(codec, frames, sched, seed=6)
        assert spectral.reconstruction_mse(trained, frames) < 1e-3
        assert history[-1] < history[0]

    def test_same_seed_bitwise_identical(self):
        codec = ae.init_codec(5, 2, seed=7)
        frames = Rng(8).uniform_matrix(12, 5, -1.0, 1.0)
        sched = TrainSchedule(epochs=5, batch_size=4, lr0=0.01, wd0=1e-4)
        out1, hist1 = ae.train(codec, frames, sched, seed=9)
        out2, hist2 = ae.train(codec, frames, sched, seed=9)
        assert np.array_equal(out1.a, out2.a)
        assert np.array_equal(hist1, hist2)

    def test_loss_bounded_below_by_principal_subspace_error(self):
        rng = Rng(10)
        frames = rng.uniform_matrix(40, 6, -1.0, 1.0)
        codec = ae.init_codec(6, 2, seed=11)
        sched = TrainSchedule(epochs=200, batch_size=10, lr0=0.01)
        trained, history = ae.train(codec, frames, sched, seed=12)
        scatter = frames.T @ frames
        lam = np.sort(np.linalg.eigvalsh(scatter))
        floor = lam[:-2].sum() / frames.size
        assert history[-1] >= floor - 1e-6
        assert spectral.reconstruction_mse(trained, frames) >= floor - 1e-6

    def test_matches_reference_loop_bitwise(self):
        codec = ae.init_codec(12, 4, seed=14)
        frames = Rng(15).uniform_matrix(23, 12, -1.0, 1.0)
        sched = TrainSchedule(epochs=6, batch_size=5, lr0=0.01,
                              lr_milestones=((3, 2.0),), wd0=1e-3,
                              wd_milestones=((2, 10.0),))
        trained, history = ae.train(codec, frames, sched, seed=16)
        a, expect = _reference_train(codec, frames, sched, seed=16)
        assert np.array_equal(trained.a, a)
        assert np.array_equal(history, expect)

    def test_diverging_step_raises_at_once(self, monkeypatch):
        steps = []

        def counted(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            steps.append(bool(np.isfinite(out).all()))
            return out

        monkeypatch.setattr(optim, "adam_step", counted)
        codec = ae.init_codec(6, 2, seed=1)
        frames = Rng(2).uniform_matrix(10, 6, -1.0, 1.0)
        sched = TrainSchedule(epochs=3, batch_size=4, lr0=1e300)
        with pytest.raises(  # and no RuntimeWarning on the way there
                ValueError, match="codec matrix contains non-finite entries"):
            ae.train(codec, frames, sched, seed=3)
        # no step is taken after the first one that left a non-finite entry
        assert steps.index(False) == len(steps) - 1 < 8

    def test_empty_dataset_rejected(self):
        codec = ae.init_codec(4, 2, seed=1)
        sched = TrainSchedule(epochs=1, batch_size=2, lr0=0.1)
        with pytest.raises(ValueError):
            ae.train(codec, np.zeros((0, 4)), sched, seed=2)
