import numpy as np
import pytest

from vfsynth import nn
from vfsynth.nn import AdamState, GradSet, Layer, Mlp
from vfsynth.rng import RngStream

# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

ACT_FNS = {
    "identity": lambda a: a,
    "leaky_relu": lambda a: np.where(a > 0, a, nn.LEAKY_SLOPE * a),
}


def straight_line_forward(mlp, batch):
    """Independent re-evaluation of the layer formula, no tape machinery."""
    h = batch
    for layer in mlp.layers:
        h = ACT_FNS[layer.activation](h @ layer.w + layer.b)
    return h


def perturbed(mlp, li, which, idx, delta):
    layers = list(mlp.layers)
    layer = layers[li]
    w, b = layer.w.copy(), layer.b.copy()
    if which == "w":
        w[idx] += delta
    else:
        b[idx] += delta
    layers[li] = Layer(w, b, layer.activation)
    return Mlp(tuple(layers))


def fd_param_grads(mlp, scalar_fn, h=1e-4):
    """Central finite differences of scalar_fn over every parameter."""
    dws, dbs = [], []
    for li, layer in enumerate(mlp.layers):
        dw = np.zeros_like(layer.w)
        for idx in np.ndindex(*layer.w.shape):
            fp = scalar_fn(perturbed(mlp, li, "w", idx, +h))
            fm = scalar_fn(perturbed(mlp, li, "w", idx, -h))
            dw[idx] = (fp - fm) / (2 * h)
        db = np.zeros_like(layer.b)
        for idx in np.ndindex(*layer.b.shape):
            fp = scalar_fn(perturbed(mlp, li, "b", idx, +h))
            fm = scalar_fn(perturbed(mlp, li, "b", idx, -h))
            db[idx] = (fp - fm) / (2 * h)
        dws.append(dw)
        dbs.append(db)
    return dws, dbs


def max_rel_err(a, b):
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float((num / den).max()) if num.size else 0.0


def uniform_net(widths, act):
    """Builder of a random net whose every layer uses ``act``."""
    def build(rng):
        mlp = nn.init_mlp(widths, rng)
        return Mlp(tuple(Layer(l.w, l.b, act) for l in mlp.layers))
    return build


def stacked_critic(rng):
    """Shaped like a party critic: D^1 with a leaky-ReLU feature layer,
    stacked on D^2 with a hidden layer and a scalar output."""
    d1 = nn.init_mlp([3, 6, 4], rng.child(1), out_activation="leaky_relu")
    d2 = nn.init_mlp([4, 5, 1], rng.child(2))
    return nn.stack(d1, d2)


def sample_net_away_from_kinks(rng, build, batch_size=5, margin=1e-2):
    """Random net + batch whose pre-activations stay clear of leaky-ReLU
    kinks, so finite differences see a locally smooth function."""
    for _ in range(200):
        mlp = build(rng.child("init", rng.integers(0, 2**31)))
        batch = rng.normal(batch_size, mlp.in_width)
        _, tape = nn.forward(mlp, batch)
        if any(l.activation == "leaky_relu" and float(np.abs(a).min()) < margin
               for l, a in zip(mlp.layers, tape.pre)):
            continue
        return mlp, batch
    raise AssertionError("could not sample a kink-free configuration")


# --------------------------------------------------------------------------
# the leaky-ReLU kernels
# --------------------------------------------------------------------------

class TestLeakyKernels:
    """The branch-free kernels against the select formulas they replace,
    compared as raw bits so that the sign of zero counts."""

    @staticmethod
    def inputs():
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
        rows = RngStream(12, "kernels").normal(64, 6)
        return np.vstack([np.array([special]), rows])

    def test_activation_bit_equal_to_select(self):
        a = self.inputs()
        kept = a.copy()
        got = nn._act("leaky_relu", a)
        want = np.where(a > 0.0, a, nn.LEAKY_SLOPE * a)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(a.view(np.int64), kept.view(np.int64))  # input untouched

    def test_derivative_bit_equal_to_select(self):
        a = self.inputs()
        got = nn._act_deriv("leaky_relu", a)
        want = np.where(a > 0.0, 1.0, nn.LEAKY_SLOPE)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------

class TestForward:
    def test_identity_single_layer(self):
        mlp = Mlp((Layer(np.eye(2), np.zeros(2), "identity"),))
        out, _ = nn.forward(mlp, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_matches_straight_line_reevaluation(self):
        rng = RngStream(10, "fwd")
        for act in nn.ACTIVATIONS:
            mlp = nn.init_mlp([4, 8, 6, 3], rng.child(act), out_activation=act)
            batch = rng.normal(7, 4)
            out, tape = nn.forward(mlp, batch)
            assert np.array_equal(out, straight_line_forward(mlp, batch))
            assert np.array_equal(tape.output, out)

    def test_dimension_mismatch(self):
        mlp = nn.init_mlp([4, 2], RngStream(0))
        with pytest.raises(ValueError):
            nn.forward(mlp, np.zeros((3, 5)))

    def test_deterministic(self):
        rng = RngStream(11)
        mlp = nn.init_mlp([3, 5, 1], rng)
        batch = rng.normal(6, 3)
        o1, _ = nn.forward(mlp, batch)
        o2, _ = nn.forward(mlp, batch)
        assert np.array_equal(o1, o2)


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

class TestBackward:
    def test_linear_layer_outer_product(self):
        w = np.array([[2.0, 0.0], [0.0, 3.0]])
        mlp = Mlp((Layer(w, np.zeros(2), "identity"),))
        x = np.array([[1.0, 4.0]])
        out, tape = nn.forward(mlp, x)
        grads, input_grad = nn.backward(mlp, tape, np.ones_like(out))
        assert np.array_equal(grads.dw[0], np.outer(x[0], [1.0, 1.0]))
        assert np.array_equal(grads.db[0], [1.0, 1.0])
        assert np.array_equal(input_grad, np.array([[2.0, 3.0]]))

    def test_leaky_relu_below_kink_scales_upstream_by_slope(self):
        s = nn.LEAKY_SLOPE
        l0 = Layer(np.ones((2, 3)), np.full(3, -100.0), "leaky_relu")
        l1 = Layer(np.ones((3, 1)), np.zeros(1), "identity")
        mlp = Mlp((l0, l1))
        x = np.array([[0.5, 0.5]])
        out, tape = nn.forward(mlp, x)
        grads, input_grad = nn.backward(mlp, tape, np.ones_like(out))
        assert np.array_equal(grads.dw[0], np.full((2, 3), 0.5 * s))
        assert np.array_equal(grads.db[0], np.full(3, s))
        assert np.array_equal(input_grad, np.full((1, 2), s + s + s))

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_matches_finite_differences(self, act):
        rng = RngStream(12, "bwd", act)
        mlp, batch = sample_net_away_from_kinks(rng, uniform_net([3, 6, 5, 2], act))
        r = rng.normal(batch.shape[0], 2)  # fixed cotangent

        out, tape = nn.forward(mlp, batch)
        grads, input_grad = nn.backward(mlp, tape, r)

        def scalar(m):
            return float(np.sum(straight_line_forward(m, batch) * r))

        fdw, fdb = fd_param_grads(mlp, scalar)
        for a, b in zip(grads.dw + grads.db, fdw + fdb):
            assert max_rel_err(a, b) < 1e-4

        # input gradient against finite differences too
        h = 1e-4
        fd_in = np.zeros_like(batch)
        for idx in np.ndindex(*batch.shape):
            bp, bm = batch.copy(), batch.copy()
            bp[idx] += h
            bm[idx] -= h
            fd_in[idx] = (
                np.sum(straight_line_forward(mlp, bp) * r)
                - np.sum(straight_line_forward(mlp, bm) * r)
            ) / (2 * h)
        assert max_rel_err(input_grad, fd_in) < 1e-4

    def test_stale_tape_rejected(self):
        rng = RngStream(13)
        mlp = nn.init_mlp([3, 4, 1], rng)
        other = nn.init_mlp([3, 5, 1], rng)
        out, tape = nn.forward(mlp, rng.normal(2, 3))
        with pytest.raises(ValueError):
            nn.backward(other, tape, np.ones_like(out))

    def test_bit_identical_repeats(self):
        rng = RngStream(14)
        mlp = nn.init_mlp([4, 8, 1], rng)
        batch = rng.normal(5, 4)
        out, tape = nn.forward(mlp, batch)
        g1, i1 = nn.backward(mlp, tape, np.ones_like(out))
        g2, i2 = nn.backward(mlp, tape, np.ones_like(out))
        assert all(np.array_equal(a, b) for a, b in zip(g1.dw, g2.dw))
        assert np.array_equal(i1, i2)


# --------------------------------------------------------------------------
# gradient penalty (second-order path)
# --------------------------------------------------------------------------

def penalty_value(disc, x_hat, lam):
    """Straight-line penalty: forward, input gradient, norm, mean."""
    out, tape = nn.forward(disc, x_hat)
    _, u = nn.backward(disc, tape, np.ones_like(out))
    norms = np.sqrt(np.sum(u * u, axis=1) + 1e-12)
    return lam * float(np.mean((norms - 1.0) ** 2))


class TestGradientPenalty:
    def test_linear_critic_closed_form(self):
        w = np.array([[0.6], [0.8], [1.2]])  # ||w|| = sqrt(2.44)
        disc = Mlp((Layer(w, np.zeros(1), "identity"),))
        x_hat = RngStream(20).normal(9, 3)
        lam = 10.0
        penalty, grads = nn.gradient_penalty(disc, x_hat, lam)
        wn = np.linalg.norm(w)
        assert penalty == pytest.approx(lam * (wn - 1.0) ** 2, rel=1e-9)
        expected = 2 * lam * (wn - 1.0) * w / wn
        assert np.allclose(grads.dw[0], expected, rtol=1e-6, atol=1e-9)
        assert np.allclose(grads.db[0], 0.0)

    def test_zero_gradient_rows_are_guarded(self):
        disc = Mlp((Layer(np.zeros((2, 1)), np.zeros(1), "identity"),))
        x_hat = np.ones((3, 2))
        penalty, grads = nn.gradient_penalty(disc, x_hat, 10.0)
        assert np.isfinite(penalty)
        assert penalty == pytest.approx(10.0, rel=1e-5)  # (0 - 1)^2 per row
        assert all(np.isfinite(g).all() for g in grads.dw + grads.db)

    @pytest.mark.parametrize("net", ["identity", "leaky_relu", "stacked_critic"])
    def test_matches_finite_differences(self, net):
        build = stacked_critic if net == "stacked_critic" else uniform_net([3, 6, 1], net)
        rng = RngStream(21, "gp", net)
        for trial in range(3):
            disc, x_hat = sample_net_away_from_kinks(rng.child(trial), build, batch_size=4)
            lam = 10.0
            _, grads = nn.gradient_penalty(disc, x_hat, lam)
            fdw, fdb = fd_param_grads(disc, lambda m: penalty_value(m, x_hat, lam))
            for a, b in zip(grads.dw + grads.db, fdw + fdb):
                assert max_rel_err(a, b) < 1e-3

    def test_penalty_agrees_with_straight_line_value(self):
        rng = RngStream(22)
        disc = nn.init_mlp([4, 8, 1], rng)
        x_hat = rng.normal(6, 4)
        penalty, _ = nn.gradient_penalty(disc, x_hat, 10.0)
        assert penalty == pytest.approx(penalty_value(disc, x_hat, 10.0), rel=1e-12)

    def test_requires_scalar_critic(self):
        rng = RngStream(23)
        disc = nn.init_mlp([3, 4, 2], rng)
        with pytest.raises(ValueError):
            nn.gradient_penalty(disc, rng.normal(2, 3), 10.0)


# --------------------------------------------------------------------------
# interpolate
# --------------------------------------------------------------------------

class TestInterpolate:
    def test_equal_inputs_fixed_point(self):
        rng = RngStream(30)
        x = rng.normal(5, 3)
        assert np.allclose(nn.interpolate(x, x, rng), x)

    def test_outputs_within_coordinate_intervals(self):
        rng = RngStream(32)
        for _ in range(50):
            x, xt = rng.normal(6, 4), rng.normal(6, 4)
            z = nn.interpolate(x, xt, rng)
            lo, hi = np.minimum(x, xt), np.maximum(x, xt)
            assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.interpolate(np.zeros((2, 2)), np.zeros((3, 2)), RngStream(0))


# --------------------------------------------------------------------------
# gumbel softmax
# --------------------------------------------------------------------------

class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        rng = RngStream(40)
        logits = rng.normal(100, 5) * 3
        y = nn.gumbel_softmax(logits, 0.5, rng)
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y > 0) and np.all(y < 1)

    def test_argmax_frequencies_match_categorical(self):
        # Gumbel-max property: argmax frequencies follow softmax(logits)
        logits = np.array([0.5, -0.3, 1.2, 0.0])
        p = np.exp(logits) / np.exp(logits).sum()
        rng = RngStream(41, "mc")
        reps = 100_000
        tiled = np.tile(logits, (reps, 1))
        y = nn.gumbel_softmax(tiled, 0.7, rng)
        freq = np.bincount(np.argmax(y, axis=1), minlength=4) / reps
        assert np.all(np.abs(freq - p) < 0.02)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            nn.gumbel_softmax(np.zeros((1, 2)), 0.0, RngStream(0))


# --------------------------------------------------------------------------
# adam
# --------------------------------------------------------------------------

class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = RngStream(50)
        mlp = nn.init_mlp([3, 4, 1], rng)
        state = AdamState.for_mlp(mlp)
        updated, _ = nn.adam_step(mlp, GradSet.zeros_like(mlp), state, 0.1)
        for a, b in zip(mlp.layers, updated.layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_first_step_is_signed_eta(self):
        rng = RngStream(51)
        mlp = nn.init_mlp([2, 3], rng)
        state = AdamState.for_mlp(mlp)
        grads = GradSet([rng.normal(2, 3)], [rng.normal(3)])
        eta = 0.05
        updated, _ = nn.adam_step(mlp, grads, state, eta)
        step = updated.layers[0].w - mlp.layers[0].w
        assert np.allclose(step, -eta * np.sign(grads.dw[0]), atol=1e-6)

    def test_quadratic_convergence(self):
        # f(theta) = theta^2 from theta = 1 with eta = 0.1
        theta = np.array([[1.0]])
        mlp = Mlp((Layer(theta, np.zeros(1), "identity"),))
        state = AdamState.for_mlp(mlp)
        envelope = [1.0]
        for _ in range(100):
            g = GradSet([2.0 * mlp.layers[0].w], [np.zeros(1)])
            mlp, state = nn.adam_step(mlp, g, state, 0.1)
            envelope.append(abs(float(mlp.layers[0].w[0, 0])))
        assert envelope[-1] < 0.1
        # envelope decreases: running maximum over a trailing window shrinks
        early = max(envelope[:20])
        late = max(envelope[-20:])
        assert late < early


# --------------------------------------------------------------------------
# stacking helpers
# --------------------------------------------------------------------------

class TestStack:
    def test_stack_equals_sequential_forward(self):
        rng = RngStream(60)
        p1 = nn.init_mlp([4, 6, 5], rng.child(1))
        p2 = nn.init_mlp([5, 3, 1], rng.child(2))
        x = rng.normal(7, 4)
        whole, _ = nn.forward(nn.stack(p1, p2), x)
        h, _ = nn.forward(p1, x)
        want, _ = nn.forward(p2, h)
        assert np.array_equal(whole, want)

    def test_split_grads_partitions(self):
        rng = RngStream(61)
        p1 = nn.init_mlp([4, 6, 5], rng.child(1))
        p2 = nn.init_mlp([5, 3, 1], rng.child(2))
        stacked = nn.stack(p1, p2)
        x = rng.normal(7, 4)
        out, tape = nn.forward(stacked, x)
        grads, _ = nn.backward(stacked, tape, np.ones_like(out))
        g1, g2 = nn.split_grads(grads, [2, 2])
        assert len(g1.dw) == 2 and len(g2.dw) == 2
        assert g1.dw[0].shape == (4, 6) and g2.dw[1].shape == (3, 1)
