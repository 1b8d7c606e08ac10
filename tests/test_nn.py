import dataclasses

import numpy as np
import pytest

from vfsynth import nn
from vfsynth.nn import AdamState, Mlp
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


def mlp_of(*layers):
    """An Mlp holding the given (W, b, activation) layers, written through
    its layer views (so the test does not restate the vector layout)."""
    widths = [layers[0][0].shape[0]] + [w.shape[1] for w, _, _ in layers]
    mlp = Mlp(np.zeros(nn.layout(tuple(widths))[0]), widths, [a for _, _, a in layers])
    for layer, (w, b, _) in zip(mlp.layers, layers):
        layer.w[...] = w
        layer.b[...] = b
    return mlp


def fd_param_grads(mlp, scalar_fn, h=1e-4):
    """Central finite differences of scalar_fn over every parameter, laid
    out like a gradient vector of ``mlp``."""
    grad = np.zeros_like(mlp.params)
    for k in range(mlp.params.size):
        plus, minus = mlp.params.copy(), mlp.params.copy()
        plus[k] += h
        minus[k] -= h
        fp = scalar_fn(Mlp(plus, mlp.widths, mlp.activations))
        fm = scalar_fn(Mlp(minus, mlp.widths, mlp.activations))
        grad[k] = (fp - fm) / (2 * h)
    return grad


def max_rel_err(a, b):
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float((num / den).max()) if num.size else 0.0


def uniform_net(widths, act):
    """Builder of a random net whose every layer uses ``act``."""
    def build(rng):
        mlp = nn.init_mlp(widths, rng)
        return Mlp(mlp.params, mlp.widths, [act] * len(mlp.layers))
    return build


def critic_parts(rng):
    """Shaped like a party critic: D^1 with a leaky-ReLU feature layer,
    then D^2 with a hidden layer and a scalar output."""
    d1 = nn.init_mlp([3, 6, 4], rng.child(1), out_activation="leaky_relu")
    d2 = nn.init_mlp([4, 5, 1], rng.child(2))
    return d1, d2


def stacked_critic(rng):
    return nn.stack(*critic_parts(rng))


def pre_activations(mlp, batch):
    """Every layer's pre-activation, re-evaluated outside the tape."""
    pre, h = [], batch
    for layer in mlp.layers:
        pre.append(h @ layer.w + layer.b)
        h = ACT_FNS[layer.activation](pre[-1])
    return pre


def sample_net_away_from_kinks(rng, build, batch_size=5, margin=1e-2):
    """Random net + batch whose pre-activations stay clear of leaky-ReLU
    kinks, so finite differences see a locally smooth function."""
    for _ in range(200):
        mlp = build(rng.child("init", rng.integers(0, 2**31)))
        batch = rng.normal(batch_size, mlp.in_width)
        if any(l.activation == "leaky_relu" and float(np.abs(a).min()) < margin
               for l, a in zip(mlp.layers, pre_activations(mlp, batch))):
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

    def test_derivative_at_the_activation_equals_it_at_the_pre_activation(self):
        # the tape keeps activations only: -5e-324 activates to -0.0, NaN to NaN
        a = np.vstack([self.inputs(), [[np.nan, -np.nan, np.inf, -np.inf, 1e-320, -1e-320]]])
        got = nn._act_deriv("leaky_relu", nn._act("leaky_relu", a))
        want = nn._act_deriv("leaky_relu", a)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------

class TestForward:
    def test_identity_single_layer(self):
        mlp = mlp_of((np.eye(2), np.zeros(2), "identity"))
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

    @pytest.mark.parametrize("out_act", nn.ACTIVATIONS)
    def test_tape_holds_each_layer_input_and_the_output(self, out_act):
        rng = RngStream(14, "tape")
        mlp = nn.init_mlp([4, 8, 6, 3], rng.child("init"), out_activation=out_act)
        batch = rng.normal(7, 4)
        out, tape = nn.forward(mlp, batch)
        assert [f.name for f in dataclasses.fields(nn.Tape)] == ["inputs", "output"]
        assert len(tape.inputs) == len(mlp.layers)
        assert tape.inputs[0] is batch and tape.output is out
        for layer, pre, act in zip(mlp.layers, pre_activations(mlp, batch),
                                   tape.activations()):
            assert np.array_equal(act, ACT_FNS[layer.activation](pre))
        assert tape.activations()[-1] is out

    def test_dimension_mismatch(self):
        mlp = nn.init_mlp([4, 2], RngStream(0))
        for run in (nn.forward, nn.output):
            with pytest.raises(ValueError):
                run(mlp, np.zeros((3, 5)))

    @pytest.mark.parametrize("widths,out_act,rows", [
        ([4, 8, 6, 3], "identity", 7),
        ([4, 8, 6, 3], "leaky_relu", 7),
        ([5, 6, 1], "identity", 9),
        ([4, 8, 3], "leaky_relu", 0),
    ], ids=["identity", "leaky", "one_wide", "no_rows"])
    def test_output_bit_equal_to_forward(self, widths, out_act, rows):
        rng = RngStream(13, "output")
        mlp = nn.init_mlp(widths, rng.child("init"), out_activation=out_act)
        batch = rng.normal(rows, widths[0])
        kept = batch.copy()
        got = nn.output(mlp, batch)
        want, _ = nn.forward(mlp, batch)
        assert got.shape == (rows, widths[-1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(batch, kept)  # input untouched

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
        mlp = mlp_of((w, np.zeros(2), "identity"))
        x = np.array([[1.0, 4.0]])
        out, tape = nn.forward(mlp, x)
        grad, input_grad = nn.backward(mlp, tape, np.ones_like(out))
        (dw, db), = mlp.views(grad)
        assert np.array_equal(dw, np.outer(x[0], [1.0, 1.0]))
        assert np.array_equal(db, [1.0, 1.0])
        assert np.array_equal(input_grad, np.array([[2.0, 3.0]]))

    def test_leaky_relu_below_kink_scales_upstream_by_slope(self):
        s = nn.LEAKY_SLOPE
        mlp = mlp_of((np.ones((2, 3)), np.full(3, -100.0), "leaky_relu"),
                     (np.ones((3, 1)), np.zeros(1), "identity"))
        x = np.array([[0.5, 0.5]])
        out, tape = nn.forward(mlp, x)
        grad, input_grad = nn.backward(mlp, tape, np.ones_like(out))
        dw, db = mlp.views(grad)[0]
        assert np.array_equal(dw, np.full((2, 3), 0.5 * s))
        assert np.array_equal(db, np.full(3, s))
        assert np.array_equal(input_grad, np.full((1, 2), s + s + s))

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_matches_finite_differences(self, act):
        rng = RngStream(12, "bwd", act)
        mlp, batch = sample_net_away_from_kinks(rng, uniform_net([3, 6, 5, 2], act))
        r = rng.normal(batch.shape[0], 2)  # fixed cotangent

        out, tape = nn.forward(mlp, batch)
        grad, input_grad = nn.backward(mlp, tape, r)

        def scalar(m):
            return float(np.sum(straight_line_forward(m, batch) * r))

        fd = fd_param_grads(mlp, scalar)
        for a, b in zip(mlp.views(grad), mlp.views(fd)):  # per layer, W then b
            assert max_rel_err(a[0], b[0]) < 1e-4 and max_rel_err(a[1], b[1]) < 1e-4

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
        assert np.array_equal(g1, g2)
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
        disc = mlp_of((w, np.zeros(1), "identity"))
        x_hat = RngStream(20).normal(9, 3)
        lam = 10.0
        penalty, (grad,) = nn.gradient_penalty((disc,), x_hat, lam)
        wn = np.linalg.norm(w)
        assert penalty == pytest.approx(lam * (wn - 1.0) ** 2, rel=1e-9)
        expected = 2 * lam * (wn - 1.0) * w / wn
        (dw, db), = disc.views(grad)
        assert np.allclose(dw, expected, rtol=1e-6, atol=1e-9)
        assert np.allclose(db, 0.0)

    def test_zero_gradient_rows_are_guarded(self):
        disc = mlp_of((np.zeros((2, 1)), np.zeros(1), "identity"))
        x_hat = np.ones((3, 2))
        penalty, (grad,) = nn.gradient_penalty((disc,), x_hat, 10.0)
        assert np.isfinite(penalty)
        assert penalty == pytest.approx(10.0, rel=1e-5)  # (0 - 1)^2 per row
        assert np.isfinite(grad).all()

    @pytest.mark.parametrize("net", ["identity", "leaky_relu", "stacked_critic"])
    def test_matches_finite_differences(self, net):
        build = stacked_critic if net == "stacked_critic" else uniform_net([3, 6, 1], net)
        rng = RngStream(21, "gp", net)
        for trial in range(3):
            disc, x_hat = sample_net_away_from_kinks(rng.child(trial), build, batch_size=4)
            lam = 10.0
            _, (grad,) = nn.gradient_penalty((disc,), x_hat, lam)
            fd = fd_param_grads(disc, lambda m: penalty_value(m, x_hat, lam))
            for a, b in zip(disc.views(grad), disc.views(fd)):  # per layer, W then b
                assert max_rel_err(a[0], b[0]) < 1e-3 and max_rel_err(a[1], b[1]) < 1e-3

    def test_penalty_agrees_with_straight_line_value(self):
        rng = RngStream(22)
        disc = nn.init_mlp([4, 8, 1], rng)
        x_hat = rng.normal(6, 4)
        penalty, _ = nn.gradient_penalty((disc,), x_hat, 10.0)
        assert penalty == pytest.approx(penalty_value(disc, x_hat, 10.0), rel=1e-12)

    def test_requires_scalar_critic(self):
        rng = RngStream(23)
        disc = nn.init_mlp([3, 4, 2], rng)
        with pytest.raises(ValueError):
            nn.gradient_penalty((disc,), rng.normal(2, 3), 10.0)

    def test_parts_match_the_stacked_critic(self):
        # the gradient of each part equals its slice of the stacked critic's
        # gradient, bit for bit
        rng = RngStream(24)
        d1, d2 = critic_parts(rng)
        x_hat = rng.normal(5, 3)
        penalty, (g1, g2) = nn.gradient_penalty((d1, d2), x_hat, 10.0)
        whole_penalty, (whole,) = nn.gradient_penalty((nn.stack(d1, d2),), x_hat, 10.0)
        assert penalty == whole_penalty
        assert np.array_equal(np.concatenate([g1, g2]), whole)

    def test_parts_that_do_not_chain_rejected(self):
        rng = RngStream(25)
        d1 = nn.init_mlp([3, 4], rng)
        d2 = nn.init_mlp([5, 1], rng)
        with pytest.raises(ValueError, match="chain"):
            nn.gradient_penalty((d1, d2), rng.normal(2, 3), 10.0)


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

def per_layer_adam(mlp, layer_grads, eta, steps):
    """Inline oracle: the per-layer Adam recurrences, ``steps`` times with
    the same per-layer (dW, db) gradients; returns the (W, b) pairs."""
    b1, b2, eps = 0.5, 0.9, 1e-8
    params = [(l.w.copy(), l.b.copy()) for l in mlp.layers]
    moments = [[np.zeros_like(x) for x in (w, w, b, b)] for w, b in params]
    for t in range(1, steps + 1):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for i, ((w, b), (dw, db)) in enumerate(zip(params, layer_grads)):
            m_w, v_w, m_b, v_b = moments[i]
            m_w = b1 * m_w + (1.0 - b1) * dw
            v_w = b2 * v_w + (1.0 - b2) * dw**2
            m_b = b1 * m_b + (1.0 - b1) * db
            v_b = b2 * v_b + (1.0 - b2) * db**2
            moments[i] = [m_w, v_w, m_b, v_b]
            params[i] = (w - eta * (m_w / c1) / (np.sqrt(v_w / c2) + eps),
                         b - eta * (m_b / c1) / (np.sqrt(v_b / c2) + eps))
    return params


class TestAdam:
    def test_bit_equal_to_per_layer_oracle(self):
        rng = RngStream(52)
        mlp = nn.init_mlp([4, 6, 5, 2], rng)
        grad = rng.normal(mlp.params.size)
        kept = mlp.params.copy()
        state = AdamState.for_mlp(mlp)
        net = mlp
        for _ in range(4):
            net, state = nn.adam_step(net, grad, state, 0.01)
        assert state.t == 4
        assert np.array_equal(mlp.params, kept)  # the input network is untouched
        want = per_layer_adam(mlp, mlp.views(grad), 0.01, 4)
        for layer, (w, b) in zip(net.layers, want):
            assert np.array_equal(layer.w, w) and np.array_equal(layer.b, b)

    def test_zero_gradients_leave_parameters_unchanged(self):
        rng = RngStream(50)
        mlp = nn.init_mlp([3, 4, 1], rng)
        state = AdamState.for_mlp(mlp)
        updated, _ = nn.adam_step(mlp, np.zeros_like(mlp.params), state, 0.1)
        assert np.array_equal(mlp.params, updated.params)

    def test_first_step_is_signed_eta(self):
        rng = RngStream(51)
        mlp = nn.init_mlp([2, 3], rng)
        state = AdamState.for_mlp(mlp)
        grad = rng.normal(mlp.params.size)
        eta = 0.05
        updated, _ = nn.adam_step(mlp, grad, state, eta)
        step = updated.params - mlp.params
        assert np.allclose(step, -eta * np.sign(grad), atol=1e-6)

    def test_gradient_of_wrong_length_rejected(self):
        mlp = nn.init_mlp([2, 3], RngStream(53))
        with pytest.raises(ValueError, match="does not match"):
            nn.adam_step(mlp, np.zeros(mlp.params.size + 1), AdamState.for_mlp(mlp), 0.1)

    def test_quadratic_convergence(self):
        # f(theta) = theta^2 from theta = 1 with eta = 0.1
        mlp = mlp_of((np.array([[1.0]]), np.zeros(1), "identity"))
        state = AdamState.for_mlp(mlp)
        envelope = [1.0]
        for _ in range(100):
            # d/dtheta theta^2 on the weight, 0 on the bias
            g = np.array([2.0 * mlp.layers[0].w[0, 0], 0.0])
            mlp, state = nn.adam_step(mlp, g, state, 0.1)
            envelope.append(abs(float(mlp.layers[0].w[0, 0])))
        assert envelope[-1] < 0.1
        # envelope decreases: running maximum over a trailing window shrinks
        early = max(envelope[:20])
        late = max(envelope[-20:])
        assert late < early


# --------------------------------------------------------------------------
# the parameter vector and stacking
# --------------------------------------------------------------------------

class TestParams:
    def test_layers_are_views_of_the_vector(self):
        mlp = nn.init_mlp([3, 5, 2], RngStream(70))
        for layer in mlp.layers:
            assert np.shares_memory(layer.w, mlp.params)
            assert np.shares_memory(layer.b, mlp.params)
        mlp.params[:] = np.arange(mlp.params.size)
        # per layer the row-major weights, then the bias
        assert np.array_equal(mlp.layers[0].w, np.arange(15).reshape(3, 5))
        assert np.array_equal(mlp.layers[0].b, np.arange(15, 20))
        assert np.array_equal(mlp.layers[1].w, np.arange(20, 30).reshape(5, 2))
        assert np.array_equal(mlp.layers[1].b, [30, 31])

    @pytest.mark.parametrize("size", [0, 25, 27])
    def test_vector_of_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="does not match the 26 parameters"):
            Mlp(np.zeros(size), (3, 5, 1), ("leaky_relu", "identity"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        params = np.zeros(26)
        params[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            Mlp(params, (3, 5, 1), ("leaky_relu", "identity"))

    @pytest.mark.parametrize("widths,acts", [
        ((3,), ()), ((3, 0, 1), ("leaky_relu", "identity")),
        ((3, 1), ("tanh",)), ((3, 5, 1), ("identity",)),
    ])
    def test_bad_widths_or_activations_rejected(self, widths, acts):
        with pytest.raises(ValueError):
            Mlp(np.zeros(nn.layout(widths)[0]), widths, acts)


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
