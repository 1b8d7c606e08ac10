import math

import numpy as np
import pytest

from vfsynth import dp
from vfsynth import nn
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


def reference_amplify(curve, gamma):
    """The subsampling bound as one freshly built term matrix per call, the
    formula the accountant's cached tables must reproduce bit for bit."""
    log_gamma = math.log(gamma)
    eps2 = float(curve[0])
    log_first_min = min(math.log(4.0) + dp._log_expm1(eps2), math.log(2.0) + eps2)
    logfact = np.zeros(dp.ALPHA_MAX + 1)
    logfact[1:] = np.cumsum(np.log(np.arange(1, dp.ALPHA_MAX + 1, dtype=np.float64)))
    alphas = dp.ALPHAS
    js = np.arange(3, dp.ALPHA_MAX + 1, dtype=np.int64)
    rest = alphas[:, None] - js[None, :]
    valid = rest >= 0
    terms = (
        math.log(2.0)
        + js * log_gamma
        - logfact[js]
        + (js - 1) * curve[js - 2]
    )[None, :] + logfact[alphas][:, None] - logfact[np.where(valid, rest, 0)]
    terms = np.where(valid, terms, -np.inf)
    t2 = 2.0 * log_gamma + (logfact[alphas] - logfact[alphas - 2] - logfact[2]) \
        + log_first_min
    all_terms = np.concatenate([np.zeros((len(alphas), 1)), t2[:, None], terms], axis=1)
    m = all_terms.max(axis=1)
    lse = m + np.log(np.sum(np.exp(all_terms - m[:, None]), axis=1))
    return np.minimum(lse / (alphas - 1), curve)


def reference_calibrate(target, delta, gamma, steps):
    """calibrate's bracket and bisection over reference_amplify, with every
    probe evaluated afresh (valid while the bracket stays below SIGMA_MAX)."""
    def eps_at(sigma):
        return dp.to_dp(reference_amplify(dp.gaussian_rdp(sigma), gamma) * float(steps),
                        delta)[0]

    hi = 0.5
    while eps_at(hi) > target:
        hi *= 2.0
        assert hi <= dp.SIGMA_MAX
    lo = hi / 2.0
    while eps_at(lo) <= target:
        if lo == dp.SIGMA_MIN:
            return lo
        hi, lo = lo, max(lo / 2.0, dp.SIGMA_MIN)
    while (hi - lo) / hi > dp.REL_WIDTH:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


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
    """apply_mechanism on the gradient of a one-layer network; returns its
    (dW, db)."""
    net = nn.Mlp(np.zeros(nn.layout(dw.shape)[0]), dw.shape, ("identity",))
    grad = np.zeros_like(net.params)
    (gw, gb), = net.views(grad)
    gw[...], gb[...] = dw, db
    dp.apply_mechanism(net, grad, sigma, clip, rng)
    return gw, gb


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
        zb = np.zeros(1)
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
        net = nn.init_mlp([3, 4, 2], rng)
        grad = rng.normal(net.params.size) * 10
        kept = net.views(grad.copy())
        dp.apply_mechanism(net, grad, 1.0, 1.0, RngStream(11, "n"))
        (w0, b0), (w1, b1) = net.views(grad)
        want_w, want_b = mechanism_output(*kept[0], 1.0, 1.0, RngStream(11, "n"))
        assert np.array_equal(w0, want_w) and np.array_equal(b0, want_b)
        assert np.array_equal(w1, kept[1][0]) and np.array_equal(b1, kept[1][1])


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

    @pytest.mark.parametrize("gamma", [1e-4, 64 / 1599, 256 / 1599, 0.5, 1.0])
    @pytest.mark.parametrize("sigma", [dp.SIGMA_MIN, 0.3, 1.0, 1.6240234375, 50.0,
                                       dp.SIGMA_MAX])
    def test_bitwise_equal_to_the_reference_formula(self, sigma, gamma):
        curve = dp.gaussian_rdp(sigma)
        got = dp.subsample_amplify(curve, gamma)
        assert got.tobytes() == reference_amplify(curve, gamma).tobytes()
        # a second call reuses the tables and gets the same bits
        assert dp.subsample_amplify(curve, gamma).tobytes() == got.tobytes()

    def test_tables_hold_no_order_by_order_array(self):
        _, _, _, _, rest = dp._amplify_tables()
        assert rest.shape == (len(dp.ALPHAS), dp.ALPHA_MAX - 2)
        # a window over one vector: each row starts one element further on
        assert rest.strides == (rest.itemsize, -rest.itemsize)
        alpha, j = 9, 4
        assert rest[alpha - 2, j - 3] == pytest.approx(math.lgamma(alpha - j + 1))
        assert rest[alpha - 2, alpha + 1 - 3] == np.inf

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
        with pytest.raises(ValueError, match="not finite"):
            dp.pipeline_epsilon(1e-170, 0.1, 10, 1e-5)
        # sigma = 2e-153 keeps the per-release curve finite, but the
        # (j - 1) eps(j) terms of the amplification overflow
        assert np.isfinite(dp.gaussian_rdp(2e-153)).all()
        with pytest.raises(ValueError, match="not finite"):
            dp.pipeline_epsilon(2e-153, 0.1, 10, 1e-5)
        with pytest.raises(ValueError, match="not finite"):
            dp.to_dp(np.full(len(dp.ALPHAS), np.nan), 1e-5)


@pytest.fixture
def evaluated_sigmas(monkeypatch):
    """The sigmas passed to dp.pipeline_epsilon, in call order."""
    seen = []
    pipeline_epsilon = dp.pipeline_epsilon

    def counted(sigma, *args, **kwargs):
        seen.append(sigma)
        return pipeline_epsilon(sigma, *args, **kwargs)

    monkeypatch.setattr(dp, "pipeline_epsilon", counted)
    return seen


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

    @pytest.mark.parametrize("target,gamma,steps", [(1000.0, 0.01, 10), (100.0, 1.0, 1)])
    def test_small_sigma_is_the_smallest_meeting_the_target(self, target, gamma, steps):
        # both answers lie below 0.25, where the bracket starts halving
        sigma = dp.calibrate(target, 1e-5, gamma, steps)
        assert dp.SIGMA_MIN < sigma < 0.25
        assert dp.pipeline_epsilon(sigma, gamma, steps, 1e-5)[0] <= target
        below = sigma / (1.0 + 2.0 * dp.REL_WIDTH)
        assert dp.pipeline_epsilon(below, gamma, steps, 1e-5)[0] > target

    @pytest.mark.parametrize("gamma,steps", [(0.0, 100), (0.1, 0)])
    def test_floor_returned_when_it_meets_the_target(self, gamma, steps):
        # nothing is released, so every sigma meets the target
        assert dp.calibrate(1.0, 1e-5, gamma, steps) == dp.SIGMA_MIN

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

    @pytest.mark.parametrize("target,delta,gamma,steps", [
        (10.0, 5e-4, 0.04, 1500),  # the README's example, sigma 1.7002
        (10.0, 5e-4, 256 / 1599, 80),  # the 4-party DP benchmark run, sigma 1.6240234375
        (2.0, 1e-5, 0.05, 1000),
        (1000.0, 1e-5, 0.01, 10),  # halves below 0.25
        (1.0, 1e-5, 0.1, 0),  # the floor
    ])
    def test_equals_the_reference_and_evaluates_each_sigma_once(
        self, evaluated_sigmas, target, delta, gamma, steps
    ):
        sigma = dp.calibrate(target, delta, gamma, steps)
        assert sigma == reference_calibrate(target, delta, gamma, steps)
        assert len(evaluated_sigmas) == len(set(evaluated_sigmas))

    def test_bracket_tries_sigma_max_before_giving_up(self, evaluated_sigmas):
        # eps(512) = 11.47 and eps(1000) = 5.30 at these settings: doubling
        # 512 would overshoot SIGMA_MAX, so the bracket ends there instead
        args = (1.0, 10**6, 1e-5)  # gamma, steps, delta
        assert dp.pipeline_epsilon(512.0, *args)[0] > 8.38
        assert dp.pipeline_epsilon(dp.SIGMA_MAX, *args)[0] <= 8.38
        evaluated_sigmas.clear()
        sigma = dp.calibrate(8.38, 1e-5, 1.0, 10**6)
        assert dp.SIGMA_MAX in evaluated_sigmas
        assert len(evaluated_sigmas) == len(set(evaluated_sigmas))
        assert 512.0 < sigma <= dp.SIGMA_MAX
        assert dp.pipeline_epsilon(sigma, *args)[0] <= 8.38

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
        ok = dp.DpConfig(1.0, 2.0)
        assert (ok.clip, ok.sigma) == (1.0, 2.0)
        with pytest.raises(ValueError, match="clip"):
            dp.DpConfig(0.0, 1.0)
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError, match="noise multiplier"):
                dp.DpConfig(1.0, sigma)
