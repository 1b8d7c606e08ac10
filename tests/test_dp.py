import math

import numpy as np
import pytest

from vfsynth import dp
from vfsynth.nn import GradSet
from vfsynth.rng import RngStream

# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def direct_amplified_epsilon(sigma, gamma, alpha):
    """Straight-line evaluation of the subsampling bound (no log space).

    Only valid while e^{(j-1) eps(j)} stays inside float range, i.e. small
    alpha; used to cross-check the log-space implementation.
    """
    def eps(a):
        return a / (2.0 * sigma * sigma)

    first_min = min(4.0 * (math.exp(eps(2)) - 1.0), 2.0 * math.exp(eps(2)))
    total = 1.0 + gamma**2 * math.comb(alpha, 2) * first_min
    for j in range(3, alpha + 1):
        total += 2.0 * gamma**j * math.comb(alpha, j) * math.exp((j - 1) * eps(j))
    return min(math.log(total) / (alpha - 1), eps(alpha))


def grid_search_to_dp(curve, delta):
    best = (np.inf, None)
    for alpha, eps in zip(dp.ALPHAS, curve):
        val = eps + math.log(1.0 / delta) / (alpha - 1)
        if val < best[0]:
            best = (val, int(alpha))
    return best


def joint_norm(dw, db):
    return math.sqrt(float(np.sum(dw * dw)) + float(np.sum(db * db)))


def mechanism_output(dw, db, sigma, clip, rng):
    """apply_mechanism on a one-layer GradSet; returns its (dW, db)."""
    grads = GradSet([dw], [db])
    dp.apply_mechanism(grads, sigma, clip, rng)
    return grads.dw[0], grads.db[0]


# --------------------------------------------------------------------------
# mechanism
# --------------------------------------------------------------------------

class TestClip:
    def test_large_gradient_scaled_to_bound(self):
        dw = np.zeros((3, 3))
        dw[0, 0] = 8.0
        db = np.array([6.0])  # joint norm 10
        cw, cb = dp.clip_gradients(dw, db, 1.0)
        assert math.isclose(joint_norm(cw, cb), 1.0, rel_tol=1e-12)
        assert cw[0, 0] == pytest.approx(0.8)
        assert cb[0] == pytest.approx(0.6)

    def test_small_gradient_untouched(self):
        dw = np.full((2, 2), 0.1)
        db = np.array([0.3])
        cw, cb = dp.clip_gradients(dw, db, 1.0)
        assert np.array_equal(cw, dw) and np.array_equal(cb, db)

    def test_direction_preserved(self):
        rng = RngStream(1, "clip")
        for _ in range(20):
            dw, db = rng.normal(4, 5) * 10, rng.normal(5) * 10
            cw, cb = dp.clip_gradients(dw, db, 1.0)
            flat = np.concatenate([dw.ravel(), db])
            cflat = np.concatenate([cw.ravel(), cb])
            cos = flat @ cflat / (np.linalg.norm(flat) * np.linalg.norm(cflat))
            assert cos == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_ball(self):
        rng = RngStream(2, "clip")
        for _ in range(20):
            dw, db = rng.normal(3, 3) * 0.05, rng.normal(3) * 0.05
            cw, cb = dp.clip_gradients(dw, db, 1.0)
            assert joint_norm(cw, cb) <= 1.0 + 1e-12
            if joint_norm(dw, db) <= 1.0:
                assert np.array_equal(cw, dw)


class TestNoise:
    def test_sigma_zero_limit(self):
        dw, db = np.ones((2, 2)), np.ones(2)  # inside the clip ball
        nw, nb = mechanism_output(dw, db, 1e-300, 10.0, RngStream(0, "n"))
        assert np.allclose(nw, dw) and np.allclose(nb, db)

    def test_empirical_std_matches_two_sigma_c(self):
        sigma, clip = 0.7, 1.3
        rng = RngStream(3, "noise")
        draws = np.empty(100_000)
        zw = np.zeros((1, 1))
        zb = np.zeros(0)
        for i in range(0, 100_000, 1000):
            nw, _ = mechanism_output(np.zeros((1000, 1)), zb, sigma, clip, rng)
            draws[i : i + 1000] = nw[:, 0]
        assert abs(draws.std() - 2 * sigma * clip) / (2 * sigma * clip) < 0.02

    def test_same_stream_same_noise(self):
        dw, db = np.zeros((3, 2)), np.zeros(2)
        n1 = mechanism_output(dw, db, 1.0, 1.0, RngStream(9, "x"))
        n2 = mechanism_output(dw, db, 1.0, 1.0, RngStream(9, "x"))
        assert np.array_equal(n1[0], n2[0]) and np.array_equal(n1[1], n2[1])

    def test_only_the_first_layer_is_clipped_and_noised(self):
        rng = RngStream(10, "layers")
        dw = [rng.normal(3, 4) * 10, rng.normal(4, 2) * 10]
        db = [rng.normal(4) * 10, rng.normal(2) * 10]
        grads = GradSet([w.copy() for w in dw], [b.copy() for b in db])
        dp.apply_mechanism(grads, 1.0, 1.0, RngStream(11, "n"))
        want_w, want_b = mechanism_output(dw[0], db[0], 1.0, 1.0, RngStream(11, "n"))
        assert np.array_equal(grads.dw[0], want_w) and np.array_equal(grads.db[0], want_b)
        assert np.array_equal(grads.dw[1], dw[1]) and np.array_equal(grads.db[1], db[1])


# --------------------------------------------------------------------------
# accountant
# --------------------------------------------------------------------------

class TestGaussianRdp:
    def test_formula_points(self):
        assert dp.gaussian_rdp(1.0)[2 - 2] == pytest.approx(1.0)
        assert dp.gaussian_rdp(2.0)[8 - 2] == pytest.approx(1.0)

    def test_linear_in_alpha(self):
        curve = dp.gaussian_rdp(0.8)
        for a in (2, 5, 100):
            assert curve[2 * a - 2] == pytest.approx(2 * curve[a - 2])

    def test_rejects_bad_sigma(self):
        # 1e154: 2 sigma^2 overflows, which would give the zero curve
        for sigma in (0.0, -1.0, math.inf, math.nan, 1e154):
            with pytest.raises(ValueError, match="sigma"):
                dp.gaussian_rdp(sigma)


class TestSubsampleAmplify:
    def test_gamma_zero_is_zero_curve(self):
        out = dp.subsample_amplify(dp.gaussian_rdp(1.0), 0.0)
        assert np.array_equal(out, np.zeros(len(dp.ALPHAS)))

    def test_hand_evaluated_point(self):
        # sigma=1, gamma=0.01, alpha=2: log(1 + 1e-4 * min{4(e-1), 2e})
        out = dp.subsample_amplify(dp.gaussian_rdp(1.0), 0.01)
        want = math.log(1.0 + 1e-4 * min(4 * (math.e - 1), 2 * math.e))
        assert out[0] == pytest.approx(want, rel=1e-12)
        assert out[0] == pytest.approx(5.435e-4, abs=2e-7)

    @pytest.mark.parametrize("gamma", [0.001, 0.01, 0.1])
    def test_matches_straight_line_oracle(self, gamma):
        curve = dp.subsample_amplify(dp.gaussian_rdp(1.0), gamma)
        for alpha in range(2, 21):
            want = direct_amplified_epsilon(1.0, gamma, alpha)
            assert curve[alpha - 2] == pytest.approx(want, rel=1e-10)

    def test_monotone_in_gamma(self):
        base = dp.gaussian_rdp(1.2)
        grid = np.linspace(0.0, 1.0, 20)
        prev = None
        for g in grid:
            cur = dp.subsample_amplify(base, float(g))
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_capped_by_base_curve_at_gamma_one(self):
        base = dp.gaussian_rdp(1.0)
        amp = dp.subsample_amplify(base, 1.0)
        assert np.allclose(amp, base)

    def test_log_space_safety(self):
        # extreme corner of the guaranteed region: no overflow anywhere
        curve = dp.subsample_amplify(dp.gaussian_rdp(0.3), 0.5)
        assert np.isfinite(curve).all()


class TestCompose:
    """pipeline_curve's composition over steps."""

    def test_zero_steps(self):
        out = dp.pipeline_curve(1.0, 0.1, 0)
        assert np.array_equal(out, np.zeros(len(dp.ALPHAS)))

    def test_one_step_identity(self):
        base = dp.gaussian_rdp(1.0)
        assert np.array_equal(dp.pipeline_curve(1.0, 0.1, 1, amplified=False), base)
        assert np.array_equal(
            dp.pipeline_curve(1.0, 0.1, 1), dp.subsample_amplify(base, 0.1)
        )

    def test_associativity(self):
        # composing two runs is adding their curves
        a = dp.pipeline_curve(0.9, 0.1, 3) + dp.pipeline_curve(0.9, 0.1, 9)
        assert np.allclose(a, dp.pipeline_curve(0.9, 0.1, 12))

    @pytest.mark.parametrize("steps", [-1, 10**310], ids=["negative", "past_float_max"])
    def test_steps_outside_float_range_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            dp.pipeline_curve(1.0, 0.1, steps)


class TestToDp:
    def test_unsubsampled_gaussian_grid_oracle(self):
        curve = dp.gaussian_rdp(1.0)
        eps, alpha = dp.to_dp(curve, 1e-5)
        want_eps, want_alpha = grid_search_to_dp(curve, 1e-5)
        assert eps == want_eps
        assert alpha == want_alpha == 6
        assert eps == pytest.approx(3.0 + math.log(1e5) / 5.0, rel=1e-12)
        assert eps == pytest.approx(5.3026, abs=1e-4)

    def test_delta_to_one_limit(self):
        curve = dp.gaussian_rdp(1.0)
        eps, alpha = dp.to_dp(curve, 1 - 1e-12)
        assert alpha == 2
        assert eps == pytest.approx(curve[0], abs=1e-9)

    def test_scaling_never_decreases(self):
        curve = dp.gaussian_rdp(1.0)
        eps1, _ = dp.to_dp(curve, 1e-5)
        eps2, _ = dp.to_dp(3 * curve, 1e-5)
        assert eps2 >= eps1

    def test_non_finite_curve_rejected(self):
        # sigma = 1e-170 squares to 0: the per-release curve is infinite
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            dp.pipeline_epsilon(1e-170, 0.1, 10, 1e-5)
        with pytest.raises(ValueError, match="not finite"):
            dp.to_dp(np.full(len(dp.ALPHAS), np.nan), 1e-5)


class TestCalibrate:
    def test_self_consistency(self):
        sigma = dp.calibrate(2.0, 1e-5, 0.05, 1000)
        achieved, _ = dp.pipeline_epsilon(sigma, 0.05, 1000, 1e-5)
        assert achieved <= 2.0

    def test_round_trip_inverts_to_dp_example(self):
        target, _ = dp.pipeline_epsilon(1.0, 1.0, 1, 1e-5)
        assert target == pytest.approx(5.3026, abs=1e-4)
        sigma = dp.calibrate(target, 1e-5, 1.0, 1)
        assert 1.0 <= sigma <= 1.002
        achieved, _ = dp.pipeline_epsilon(sigma, 1.0, 1, 1e-5)
        assert achieved <= target
        assert (target - achieved) < 0.01 * target

    def test_doubling_steps_weakly_increases_sigma(self):
        s1 = dp.calibrate(3.0, 1e-4, 0.1, 500)
        s2 = dp.calibrate(3.0, 1e-4, 0.1, 1000)
        assert s2 >= s1 - 1e-9

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_target_rejected(self, target):
        with pytest.raises(ValueError, match="positive and finite"):
            dp.calibrate(target, 5e-4, 0.04, 100)

    def test_infeasible_reports_achieved(self):
        with pytest.raises(dp.CalibrationError, match="achieved"):
            dp.calibrate(1e-9, 1e-5, 1.0, 10**6)

    def test_monotone_in_sigma_and_gamma_and_steps(self):
        sigmas = np.linspace(0.4, 4.0, 10)
        eps = [dp.pipeline_epsilon(float(s), 0.1, 200, 1e-4)[0] for s in sigmas]
        assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))
        gammas = np.linspace(0.01, 0.5, 10)
        eps = [dp.pipeline_epsilon(1.0, float(g), 200, 1e-4)[0] for g in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))
        steps = [10, 50, 100, 500, 1000]
        eps = [dp.pipeline_epsilon(1.0, 0.1, t, 1e-4)[0] for t in steps]
        assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))


class TestBudgetReport:
    def test_internal_at_least_external(self):
        rep = dp.budget_report(1.5, 0.05, 1000, 1e-5)
        assert rep.epsilon_internal >= rep.epsilon_external

    def test_gamma_one_internal_equals_external(self):
        rep = dp.budget_report(1.0, 1.0, 10, 1e-5)
        assert rep.epsilon_internal == pytest.approx(rep.epsilon_external)


class TestDpConfig:
    def test_validation(self):
        ok = dp.DpConfig(1.0, 1.0, 0.1, 100)
        assert ok.sigma == 1.0
        with pytest.raises(ValueError):
            dp.DpConfig(0.0, 1.0, 0.1, 100)
        with pytest.raises(ValueError):
            dp.DpConfig(1.0, 1.0, 1.5, 100)
