import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypersfda import AdaptConfig, ConfigError, EmaState, LossBreakdown, lambda_schedule
from hypersfda.objective import (
    SQRT2,
    adaptive_loss_batch,
    ema_update_batch,
    kl_regularizer_batch,
    total_loss,
)

from helpers import (
    adaptive_loss,
    central_difference,
    ema_update,
    kl_regularizer,
    prediction_distance,
    rng_for,
)

ONLY_FIRST = np.array([0])


def rand_simplex(rng, *shape):
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


class TestLambdaSchedule:
    def test_starts_at_one(self):
        assert lambda_schedule(0, 100, 0.75) == 1.0

    def test_monotone_non_increasing(self):
        vals = [lambda_schedule(t, 200, 0.75) for t in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_final_value_closed_form(self):
        assert abs(lambda_schedule(500, 500, 0.25) - 11.0 ** (-0.25)) <= 1e-12

    def test_zero_beta_is_flat(self):
        assert all(lambda_schedule(t, 50, 0.0) == 1.0 for t in (0, 7, 50))

    @pytest.mark.parametrize(
        "it,max_iter,beta",
        [(0, 0, 0.5), (0, -3, 0.5), (-1, 10, 0.5), (11, 10, 0.5), (3, 10, -0.1)],
    )
    def test_rejects_bad_arguments(self, it, max_iter, beta):
        with pytest.raises(ConfigError):
            lambda_schedule(it, max_iter, beta)


class TestPredictionDistance:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert prediction_distance(p, p) == 0.0

    def test_disjoint_onehots_hit_max(self):
        d = prediction_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(d - 1.0) <= 1e-15

    def test_clamped_to_unit_interval(self):
        # EMA rows start at zero, so inputs need not be distributions
        assert prediction_distance(np.array([3.0, 0.0]), np.array([0.0, 3.0])) == 1.0

    def test_symmetric(self):
        rng = rng_for(71)
        a, b = rand_simplex(rng, 4), rand_simplex(rng, 4)
        assert prediction_distance(a, b) == prediction_distance(b, a)

    def test_matches_manual_value(self):
        a = np.array([0.7, 0.2, 0.1])
        b = np.array([0.1, 0.6, 0.3])
        want = np.linalg.norm(a - b) / SQRT2
        assert abs(prediction_distance(a, b) - want) <= 1e-15


class TestEmaState:
    def test_initial_is_zero_with_unset_stamps(self):
        s = EmaState.initial(5, 3)
        assert s.q.shape == (5, 3) and not s.q.any()
        assert (s.last_update_iter == -1).all()

    def test_constant_prediction_closed_form(self):
        # q_t = (1 - delta^t) p when p never changes
        p = np.array([0.5, 0.3, 0.2])
        delta = 0.9
        s = EmaState.initial(1, 3)
        for t in range(1, 26):
            ema_update_batch(s, ONLY_FIRST, p[None, :], delta, t)
            assert np.abs(s.q[0] - (1.0 - delta**t) * p).max() <= 1e-12

    def test_update_returns_new_row_and_stamps(self):
        s = EmaState.initial(2, 2)
        out = ema_update_batch(s, np.array([1]), np.array([[0.25, 0.75]]), 0.6, 0)
        assert np.allclose(out, 0.4 * np.array([[0.25, 0.75]]))
        assert s.last_update_iter.tolist() == [-1, 0]

    def test_stamp_must_strictly_increase(self):
        s = EmaState.initial(1, 2)
        p = np.array([[0.5, 0.5]])
        ema_update_batch(s, ONLY_FIRST, p, 0.9, 3)
        with pytest.raises(ConfigError):
            ema_update_batch(s, ONLY_FIRST, p, 0.9, 3)
        ema_update_batch(s, ONLY_FIRST, p, 0.9, 4)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_rejects_bad_delta(self, delta):
        # the trainer takes delta from AdaptConfig, which owns the range check
        with pytest.raises(ConfigError):
            AdaptConfig(delta=delta)

    def test_batch_matches_single_updates(self):
        rng = rng_for(72)
        p = rand_simplex(rng, 4, 3)
        idx = np.array([0, 2, 3, 5])
        a, b = EmaState.initial(6, 3), EmaState.initial(6, 3)
        for t in range(3):
            out = ema_update_batch(a, idx, p, 0.8, t)
            for row, i in enumerate(idx):
                ema_update(b, i, p[row], 0.8, t)
            assert np.array_equal(a.q, b.q)
            assert np.array_equal(out, a.q[idx])
        assert np.array_equal(a.last_update_iter, b.last_update_iter)

    def test_batch_rejects_stale_stamp(self):
        s = EmaState.initial(4, 2)
        p = np.full((2, 2), 0.5)
        ema_update_batch(s, np.array([1, 2]), p, 0.9, 5)
        with pytest.raises(ConfigError):
            ema_update_batch(s, np.array([0, 2]), p, 0.9, 5)


class TestAdaptiveLoss:
    def test_hand_case_single_neighbors(self):
        p_i = np.array([0.6, 0.4])
        close = np.array([[0.5, 0.5]])
        back = np.array([[0.1, 0.9]])
        gamma, lam = 2.0, 0.5
        w_a = 1.0 - (np.linalg.norm(p_i - close[0]) / SQRT2) ** gamma
        w_b = 1.0 - (np.linalg.norm(p_i - back[0]) / SQRT2) ** gamma
        # batch row 1 is anchor 0's in-batch background
        p_live = np.stack([p_i, back[0]])
        mask = np.array([[False, True], [False, False]])
        pull, push, grad = adaptive_loss_batch(p_live, np.stack([close, close]), mask,
                                               gamma, lam)
        assert abs(pull[0] - (-w_a * close[0] @ p_i)) <= 1e-15
        assert abs(push[0] - lam * w_b * back[0] @ p_i) <= 1e-15
        assert np.abs(grad[0] - (-w_a * close[0] + lam * w_b * back[0])).max() <= 1e-15

    def test_loss_is_linear_in_anchor_given_weights(self):
        # with weights held constant the loss is grad . p_i exactly
        rng = rng_for(73)
        p_i = rand_simplex(rng, 5)
        close = rand_simplex(rng, 4, 5)
        back = rand_simplex(rng, 6, 5)
        p_live = np.vstack([p_i, back])
        mask = np.zeros((7, 7), dtype=bool)
        mask[0, 1:] = True
        pull, push, grad = adaptive_loss_batch(p_live, np.stack([close] * 7), mask, 1.5, 0.7)
        assert abs((pull[0] + push[0]) - grad[0] @ p_i) <= 1e-12

    def test_empty_close_set_rejected(self):
        with pytest.raises(ConfigError):
            adaptive_loss(np.array([0.5, 0.5]), np.empty((0, 2)), np.empty((0, 2)), 2.0, 1.0)

    def test_empty_background_is_zero_push(self):
        rng = rng_for(74)
        p_i = rand_simplex(rng, 3)
        close = rand_simplex(rng, 2, 3)
        no_background = np.zeros((1, 1), dtype=bool)
        pull, push, grad = adaptive_loss_batch(p_i[None], close[None], no_background,
                                               2.0, 1.0)
        assert push[0] == 0.0
        only_pull, _, grad_pull = adaptive_loss_batch(p_i[None], close[None],
                                                      no_background, 2.0, 0.0)
        assert pull[0] == only_pull[0] and np.array_equal(grad, grad_pull)

    def test_identical_neighbor_gets_full_weight(self):
        p_i = np.array([0.3, 0.7])
        pull, _, _ = adaptive_loss_batch(p_i[None], p_i[None, None, :],
                                         np.zeros((1, 1), dtype=bool), 3.0, 1.0)
        assert abs(pull[0] - (-p_i @ p_i)) <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_rejects_bad_gamma(self, gamma):
        # the trainer takes gamma from AdaptConfig, which owns the range check
        with pytest.raises(ConfigError):
            AdaptConfig(gamma=gamma)

    def test_batch_matches_single(self):
        rng = rng_for(75)
        b, h, c = 6, 3, 4
        p_live = rand_simplex(rng, b, c)
        close = rand_simplex(rng, b, h, c)
        mask = rng.uniform(size=(b, b)) < 0.4
        np.fill_diagonal(mask, False)
        mask[0] = False  # one empty background set
        pull, push, grad = adaptive_loss_batch(p_live, close, mask, 1.5, 0.6)
        for i in range(b):
            p1, s1, g1 = adaptive_loss(p_live[i], close[i], p_live[mask[i]], 1.5, 0.6)
            assert abs(pull[i] - p1) <= 1e-12
            assert abs(push[i] - s1) <= 1e-12
            assert np.abs(grad[i] - g1).max() <= 1e-12
        assert push[0] == 0.0

    @given(st.integers(0, 10_000))
    def test_batch_pull_negative_push_nonneg(self, seed):
        rng = rng_for(76, seed)
        b, c = 4, 3
        p_live = rand_simplex(rng, b, c)
        close = rand_simplex(rng, b, 2, c)
        mask = ~np.eye(b, dtype=bool)
        pull, push, _ = adaptive_loss_batch(p_live, close, mask, 2.0, 0.3)
        assert (pull < 0).all() and (push >= 0).all()


class TestKlRegularizer:
    def test_matches_manual_value(self):
        q = np.array([0.2, 0.5, 0.3])
        p = np.array([0.3, 0.3, 0.4])
        value, grad = kl_regularizer_batch(q[None], p[None])
        assert abs(value[0] - float(np.sum(q * np.log(q / p)))) <= 1e-12
        assert np.abs(grad[0] - (-q / p)).max() <= 1e-12

    def test_zero_q_contributes_nothing(self):
        value, grad = kl_regularizer_batch(np.zeros((1, 3)), np.array([[0.2, 0.3, 0.5]]))
        assert value[0] == 0.0 and not grad.any()

    def test_floors_tiny_probabilities(self):
        q = np.array([[1.0, 0.0]])
        value, grad = kl_regularizer_batch(q, np.array([[0.0, 1.0]]))
        assert abs(value[0] - np.log(1.0 / 1e-12)) <= 1e-9
        assert grad[0, 0] == -1.0 / 1e-12

    def test_gradient_matches_central_difference(self):
        rng = rng_for(77)
        q = rand_simplex(rng, 4)
        p = rand_simplex(rng, 4)
        _, grad = kl_regularizer_batch(q[None], p[None])
        for j in range(4):
            def f(x, j=j):
                p2 = p.copy()
                p2[j] = x
                return kl_regularizer_batch(q[None], p2[None])[0][0]

            fd = central_difference(f, p[j])
            assert abs(grad[0, j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_batch_matches_single_rows(self):
        rng = rng_for(78)
        q = rand_simplex(rng, 5, 3)
        q[2] = 0.0  # untouched EMA row
        p = rand_simplex(rng, 5, 3)
        values, grads = kl_regularizer_batch(q, p)
        for i in range(5):
            v, g = kl_regularizer(q[i], p[i])
            assert abs(values[i] - v) <= 1e-12
            assert np.abs(grads[i] - g).max() <= 1e-12


class TestTotalLoss:
    def test_sums_components(self):
        out = total_loss(np.array([-1.0, -2.0]), np.array([0.5]), np.array([0.25, 0.25]), 2.0, 0.8)
        assert out.l_ada_pull == -3.0 and out.l_ada_push == 0.5 and out.l_reg == 0.5
        assert out.total == -3.0 + 0.5 + 2.0 * 0.5
        assert out.lambda_used == 0.8

    def test_rejects_negative_eta(self):
        with pytest.raises(ConfigError):
            total_loss(np.zeros(1), np.zeros(1), np.zeros(1), -0.5, 1.0)

    def test_non_finite_total_raises(self):
        with pytest.raises(FloatingPointError):
            total_loss(np.array([np.inf]), np.zeros(1), np.zeros(1), 1.0, 1.0)

    def test_breakdown_guards_nan(self):
        with pytest.raises(FloatingPointError):
            LossBreakdown(0.0, 0.0, 0.0, float("nan"), 1.0)
