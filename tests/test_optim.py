import re

import numpy as np
import pytest

from gtslatent import optim
from gtslatent.optim import TrainSchedule, adam_init, adam_step, schedule_at
from gtslatent.rng import Rng

# the published recipes: image AE, ROI-series AE, sequence predictor
IMAGE_AE = TrainSchedule(epochs=400, batch_size=100, lr0=1e-5, wd0=1e-5,
                         wd_milestones=((4, 10.0), (120, 10.0)))
ROI_AE = TrainSchedule(epochs=400, batch_size=6, lr0=1e-5,
                       lr_milestones=((200, 2.0),), wd0=1e-5)
LSTM = TrainSchedule(epochs=600, batch_size=6, lr0=1e-3,
                     lr_milestones=((200, 2.0), (400, 2.0)))


class TestAdam:
    def test_init_zero_accumulators(self):
        state = adam_init((3, 2))
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
        assert state.t == 0

    def test_two_inits_identical(self):
        a, b = adam_init((4,)), adam_init((4,))
        assert np.array_equal(a.m, b.m) and a.t == b.t

    def test_zero_grad_no_decay_is_noop(self):
        state = adam_init((2, 2))
        params = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = adam_step(state, params, np.zeros((2, 2)), lr=0.1)
        assert np.array_equal(out, params)

    def test_first_step_is_signed_lr(self):
        for g in (3.0, -0.004):
            state = adam_init((1,))
            out = adam_step(state, np.zeros(1), np.array([g]), lr=0.1)
            assert abs(out[0] + 0.1 * np.sign(g)) < 1e-6

    def test_five_steps_shrink_quadratic(self):
        state = adam_init((1,))
        p = np.array([1.0])
        for _ in range(5):
            prev = abs(p[0])
            p = adam_step(state, p, 2.0 * p, lr=0.1)
            assert abs(p[0]) < prev

    def test_vanishing_lr_leaves_params(self):
        state = adam_init((3,))
        params = np.array([1.0, -1.0, 0.5])
        out = adam_step(state, params, np.array([1.0, 2.0, 3.0]), lr=1e-300)
        assert np.max(np.abs(out - params)) < 1e-15

    def test_weight_decay_couples_into_gradient(self):
        state = adam_init((1,))
        # zero gradient but nonzero decay still moves the parameter
        out = adam_step(state, np.array([2.0]), np.zeros(1), lr=0.1,
                        weight_decay=0.01)
        assert out[0] < 2.0

    def test_second_moment_nonnegative(self):
        state = adam_init((4,))
        params = np.zeros(4)
        rng = np.random.RandomState(0)
        for _ in range(50):
            params = adam_step(state, params, rng.randn(4), lr=0.01,
                               weight_decay=0.1)
            assert np.all(state.v >= 0.0)

    def test_validation(self):
        state = adam_init((2,))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.zeros(2), lr=0.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_textbook_formula_bitwise(self, weight_decay):
        rng = np.random.default_rng(5)
        state = adam_init((7, 5))
        params = rng.standard_normal((7, 5))
        expect = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        # from t = 356 on, 1 - 0.9**t rounds to exactly 1.0, the regime
        # most steps of a long training run are in
        assert 1.0 - 0.9 ** 355 < 1.0 and 1.0 - 0.9 ** 356 == 1.0
        for t in range(1, 401):
            grad = rng.standard_normal(params.shape) * 10.0 ** rng.uniform(-6, 2)
            params = adam_step(state, params, grad, lr=1e-3,
                               weight_decay=weight_decay)
            g = grad + weight_decay * expect
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            expect = expect - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(params, expect), t
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_params_and_grad_unmodified(self):
        rng = np.random.default_rng(6)
        state = adam_init((4, 3))
        params, grad = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        params0, grad0 = params.copy(), grad.copy()
        for _ in range(3):
            out = adam_step(state, params, grad, lr=0.1, weight_decay=0.01)
            assert np.array_equal(params, params0)
            assert np.array_equal(grad, grad0)
            assert not np.shares_memory(out, params)
            assert not np.shares_memory(out, grad)


class TestSchedule:
    def test_image_ae_schedule_start(self):
        assert schedule_at(IMAGE_AE, 0) == (1e-5, 1e-5)

    def test_image_ae_schedule_after_both_decays(self):
        lr, wd = schedule_at(IMAGE_AE, 130)
        assert lr == 1e-5
        assert abs(wd - 1e-7) < 1e-20

    def test_roi_ae_schedule_halves_lr(self):
        assert schedule_at(ROI_AE, 199) == (1e-5, 1e-5)
        assert schedule_at(ROI_AE, 200) == (5e-6, 1e-5)

    def test_lstm_schedule_quarters_lr(self):
        lr, wd = schedule_at(LSTM, 450)
        assert abs(lr - 0.00025) < 1e-18
        assert wd == 0.0

    def test_milestone_inclusive_from_epoch(self):
        sched = TrainSchedule(epochs=10, batch_size=1, lr0=1.0,
                              lr_milestones=((4, 2.0),))
        assert schedule_at(sched, 3) == (1.0, 0.0)
        assert schedule_at(sched, 4) == (0.5, 0.0)

    def test_piecewise_non_increasing(self):
        for sched in (IMAGE_AE, ROI_AE, LSTM):
            values = [schedule_at(sched, e) for e in range(sched.epochs)]
            for (lr0, wd0), (lr1, wd1) in zip(values, values[1:]):
                assert lr1 <= lr0 and wd1 <= wd0

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_at(LSTM, 600)
        with pytest.raises(ValueError):
            schedule_at(LSTM, -1)

    @pytest.mark.parametrize("fields, label", [
        ({"epochs": 2.5}, "epochs"), ({"batch_size": 1.0}, "batch_size"),
        ({"lr_milestones": ((1.5, 2.0),)}, "lr milestone epoch"),
        ({"wd_milestones": ((2.0, 2.0),)}, "wd milestone epoch"),
    ])
    def test_non_integral_counts_rejected(self, fields, label):
        # never truncated: a milestone at 1.5 is not one at epoch 1
        with pytest.raises(ValueError, match=f"^{label} must be an integer"):
            TrainSchedule(**{"epochs": 3, "batch_size": 1, "lr0": 0.1,
                             **fields})

    @pytest.mark.parametrize("fields, message", [
        ({"lr0": "0.01"}, "lr0 must be a number, got '0.01'"),
        ({"lr0": True}, "lr0 must be a number, got True"),
        ({"wd0": "0"}, "wd0 must be a number, got '0'"),
        ({"lr_milestones": 3}, "lr milestones must be a list of (epoch, "
                               "divisor) pairs, got 3"),
        ({"wd_milestones": [[1, 2, 3]]}, "wd milestones must be a list of"),
        ({"lr_milestones": [[1, "10"]]},
         "lr milestone divisor must be a number, got '10'"),
        ({"wd_milestones": [[1, True]]},
         "wd milestone divisor must be a number, got True"),
    ])
    def test_non_numbers_rejected(self, fields, message):
        # the same checks a config's schedule block gets
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TrainSchedule(**{"epochs": 3, "batch_size": 3, "lr0": 0.01,
                             **fields})

    def test_fields_kept_as_int_and_float(self):
        sched = TrainSchedule(np.int64(3), 2, 1, lr_milestones=[[1, 2]],
                              wd0=np.float32(0.5))
        assert [type(v) for v in (sched.epochs, sched.lr0, sched.wd0)] == [
            int, float, float]
        assert sched.lr_milestones == ((1, 2.0),)
        assert type(sched.lr_milestones[0][1]) is float

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(epochs=-1, batch_size=1, lr0=1.0)
        with pytest.raises(ValueError):
            TrainSchedule(epochs=1, batch_size=0, lr0=1.0)
        with pytest.raises(ValueError):
            TrainSchedule(epochs=1, batch_size=1, lr0=0.0)
        with pytest.raises(ValueError):
            TrainSchedule(epochs=1, batch_size=1, lr0=1.0, wd0=-1.0)
        with pytest.raises(ValueError):
            TrainSchedule(epochs=9, batch_size=1, lr0=1.0,
                          lr_milestones=((5, 2.0), (5, 2.0)))
        with pytest.raises(ValueError):
            TrainSchedule(epochs=9, batch_size=1, lr0=1.0,
                          lr_milestones=((5, 0.0),))


class TestTrain:
    """``optim.train`` on a toy problem that uses neither model: fit a
    vector ``p`` to item targets ``y`` under the loss mean((p - y_i)^2)."""

    TARGETS = np.random.default_rng(7).standard_normal((5, 3))

    def _quadratic(self, seen=None):
        def loss_and_grad(p, idx):
            if seen is not None:
                seen.append(np.array(idx))
            diff = p - self.TARGETS[idx]
            return float(np.mean(diff * diff)), 2.0 * diff.mean(0) / 3
        return loss_and_grad

    def test_converges_to_the_target_mean(self):
        sched = TrainSchedule(epochs=300, batch_size=2, lr0=0.05,
                              lr_milestones=((150, 10.0),))
        p, history = optim.train(np.zeros(3), 5, sched, 1, self._quadratic(),
                                 lambda p: [("p", p)])
        assert np.allclose(p, self.TARGETS.mean(0), atol=0.05)
        assert history.shape == (300,) and history[-1] < history[0]

    def test_batches_follow_seeded_permutations_and_weight_by_size(self):
        seen = []
        sched = TrainSchedule(epochs=2, batch_size=2, lr0=1e-3)

        def size_loss(p, idx):  # a batch's loss is its size
            seen.append(np.array(idx))
            return float(len(idx)), np.zeros_like(p)

        _, history = optim.train(np.zeros(3), 5, sched, 4, size_loss,
                                 lambda p: [("p", p)])
        assert [len(idx) for idx in seen] == [2, 2, 1, 2, 2, 1]
        orders = list(Rng(4).permutations(5, 2))
        assert np.array_equal(np.concatenate(seen[:3]), orders[0])
        assert np.array_equal(np.concatenate(seen[3:]), orders[1])
        # (2*2 + 2*2 + 1*1) / 5: the last partial batch counts once per item
        assert np.array_equal(history, [1.8, 1.8])

    def test_zero_epochs_return_a_copy_without_a_step(self):
        seen = []
        params = np.arange(3.0)
        sched = TrainSchedule(epochs=0, batch_size=2, lr0=0.1)
        p, history = optim.train(params, 5, sched, 1, self._quadratic(seen),
                                 lambda p: [("p", p)])
        assert seen == [] and history.shape == (0,)
        assert np.array_equal(p, params)
        assert not np.shares_memory(p, params)

    def test_input_params_never_written(self):
        params = np.arange(3.0)
        params.setflags(write=False)  # a write would raise
        sched = TrainSchedule(epochs=3, batch_size=2, lr0=0.1, wd0=0.01)
        p, _ = optim.train(params, 5, sched, 1, self._quadratic(),
                           lambda p: [("p", p)])
        assert np.array_equal(params, np.arange(3.0))
        assert not np.shares_memory(p, params)
        assert not np.array_equal(p, params)

    @pytest.mark.parametrize("bad, name", [((3,), "b"), ((1, 3), "a")])
    def test_first_non_finite_part_named_at_once(self, bad, name):
        calls = []

        def grad_with_inf(p, idx):  # an infinite gradient makes Adam's step NaN
            calls.append(idx)
            g = np.zeros_like(p)
            g[list(bad)] = np.inf
            return 0.0, g

        sched = TrainSchedule(epochs=2, batch_size=2, lr0=0.1)
        with pytest.raises(ValueError,  # and no RuntimeWarning on the way
                           match=f"^{name} contains non-finite entries$"):
            optim.train(np.zeros(4), 5, sched, 1, grad_with_inf,
                        lambda p: [("a", p[:2]), ("b", p[2:])])
        assert len(calls) == 1
