"""Dense-network primitives with exact first- and second-order gradients.

Networks are plain stacks of affine layers, each followed by an identity or
leaky-ReLU activation. Besides the usual forward/backward passes this module
provides the second-order path needed by the WGAN gradient-penalty term: the
penalty is a function of the input gradient of the critic, so its parameter
gradient requires differentiating through the recorded reverse pass (double
backprop). Both activations are piecewise linear, so ``phi'' = 0`` (taken as
0 at the kink) and that path needs no curvature pass.

Matrices are float64 ndarrays with rows as batch samples; layer weights have
shape (in, out) so a layer computes ``h @ W + b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "Layer",
    "Mlp",
    "GradSet",
    "Tape",
    "AdamState",
    "init_mlp",
    "forward",
    "backward",
    "gradient_penalty",
    "interpolate",
    "gumbel_softmax",
    "adam_step",
    "stack",
    "split_grads",
]

ACTIVATIONS = ("identity", "leaky_relu")
LEAKY_SLOPE = 0.2  # negative slope of every leaky-ReLU layer

# Adam moment decay rates and denominator guard (WGAN-GP settings)
_BETA1 = 0.5
_BETA2 = 0.9
_EPS = 1e-8

# guard inside the sqrt of the gradient norm; keeps the penalty differentiable
# at zero-gradient rows and stays far below all test tolerances
_NORM_GUARD = 1e-12


@dataclass(frozen=True)
class Layer:
    w: np.ndarray  # (in, out)
    b: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError("layer weight/bias shapes are inconsistent")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("layer parameters must be finite")


@dataclass(frozen=True)
class Mlp:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.w.shape[1] != nxt.w.shape[0]:
                raise ValueError("consecutive layer widths do not chain")

    @property
    def in_width(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_width(self) -> int:
        return self.layers[-1].w.shape[1]


@dataclass
class GradSet:
    """Per-layer (dW, db) mirror of an Mlp's parameters."""

    dw: list[np.ndarray]
    db: list[np.ndarray]

    @staticmethod
    def zeros_like(mlp: Mlp) -> "GradSet":
        return GradSet(
            [np.zeros_like(l.w) for l in mlp.layers],
            [np.zeros_like(l.b) for l in mlp.layers],
        )

    def add_(self, other: "GradSet") -> "GradSet":
        for i in range(len(self.dw)):
            self.dw[i] += other.dw[i]
            self.db[i] += other.db[i]
        return self


@dataclass
class Tape:
    """Recorded forward intermediates: layer inputs and pre-activations."""

    inputs: list[np.ndarray]
    pre: list[np.ndarray]
    output: np.ndarray


# Branch-free leaky-ReLU. As 0 <= LEAKY_SLOPE < 1, a > 0 gives slope * a <= a
# and a <= 0 gives slope * a >= a, so the maximum picks the operand a select
# on a > 0 would pick, bit for bit on finite inputs with zeros of either sign.
def _act(kind: str, a: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return a
    out = LEAKY_SLOPE * a
    return np.maximum(a, out, out=out)


def _act_deriv(kind: str, a: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return np.ones_like(a)
    out = (a > 0.0).astype(np.float64)
    return np.maximum(out, LEAKY_SLOPE, out=out)


def init_mlp(
    widths: list[int], rng: RngStream, out_activation: str = "identity"
) -> Mlp:
    """He-scaled random MLP: widths = [in, hidden..., out].

    Hidden layers are leaky-ReLU; the last layer uses ``out_activation``.
    """
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise ValueError(f"invalid widths {widths}")
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = rng.normal(fan_in, fan_out) * np.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        act = out_activation if i == len(widths) - 2 else "leaky_relu"
        layers.append(Layer(w, b, act))
    return Mlp(tuple(layers))


def forward(mlp: Mlp, batch: np.ndarray) -> tuple[np.ndarray, Tape]:
    if batch.ndim != 2 or batch.shape[1] != mlp.in_width:
        raise ValueError(
            f"batch width {batch.shape} does not match network input {mlp.in_width}"
        )
    h = batch
    inputs, pre = [], []
    for layer in mlp.layers:
        inputs.append(h)
        a = h @ layer.w
        a += layer.b
        pre.append(a)
        h = _act(layer.activation, a)
    return h, Tape(inputs, pre, h)


def backward(
    mlp: Mlp, tape: Tape, output_grad: np.ndarray
) -> tuple[GradSet, np.ndarray]:
    """Exact gradients of the scalar whose output-gradient is ``output_grad``.

    Returns (parameter gradients, gradient w.r.t. the forward input).
    """
    if output_grad.shape != tape.output.shape:
        raise ValueError("output_grad shape does not match the taped output")
    if len(tape.pre) != len(mlp.layers) or any(
        t.shape[1] != l.w.shape[1] for t, l in zip(tape.pre, mlp.layers)
    ):
        raise ValueError("stale tape: recorded shapes do not match the network")
    grads = GradSet([None] * len(mlp.layers), [None] * len(mlp.layers))
    delta = output_grad
    for l in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[l]
        g = delta * _act_deriv(layer.activation, tape.pre[l])
        grads.dw[l] = tape.inputs[l].T @ g
        grads.db[l] = g.sum(axis=0)
        delta = g @ layer.w.T
    return grads, delta


def gradient_penalty(
    disc: Mlp, x_hat: np.ndarray, lambda_gp: float
) -> tuple[float, GradSet]:
    """WGAN gradient penalty and its exact parameter gradients.

    penalty = lambda_gp * mean_rows (||d disc / d x_hat||_2 - 1)^2.

    The parameter gradient differentiates through the reverse pass that
    produced the input gradient (double backprop over the taped layers).
    With ``phi'' = 0`` the biases receive no gradient.
    """
    if lambda_gp < 0:
        raise ValueError("lambda_gp must be >= 0")
    if disc.out_width != 1:
        raise ValueError("gradient penalty requires a scalar critic")
    n_layers = len(disc.layers)
    rows = x_hat.shape[0]

    out, tape = forward(disc, x_hat)

    # reverse pass, recording the per-layer cotangents it produces
    gs = [None] * n_layers  # cotangent on the pre-activation a_l
    phi1 = [None] * n_layers
    delta = np.ones_like(out)
    for l in range(n_layers - 1, -1, -1):
        layer = disc.layers[l]
        phi1[l] = _act_deriv(layer.activation, tape.pre[l])
        gs[l] = delta * phi1[l]
        delta = gs[l] @ layer.w.T
    u = delta  # (rows, in): per-row input gradient of the critic

    norms = np.sqrt(np.sum(u * u, axis=1) + _NORM_GUARD)
    penalty = lambda_gp * float(np.mean((norms - 1.0) ** 2))

    # cotangent on u of the penalty scalar
    v = (2.0 * lambda_gp / rows) * ((norms - 1.0) / norms)[:, None] * u

    grads = GradSet.zeros_like(disc)

    # differentiate the reverse pass (walk it in forward order)
    p = v  # cotangent on the reverse pass's output of layer l
    for l in range(n_layers):
        layer = disc.layers[l]
        grads.dw[l] += p.T @ gs[l]
        p = (p @ layer.w) * phi1[l]
    # p is now the cotangent on the constant seed vector: discard
    return penalty, grads


def interpolate(x: np.ndarray, x_tilde: np.ndarray, rng: RngStream) -> np.ndarray:
    """Per-row convex combination ``beta*x + (1-beta)*x_tilde``, beta ~ U[0,1)."""
    if x.shape != x_tilde.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_tilde.shape}")
    beta = rng.uniform(x.shape[0]).reshape(-1, 1)
    return beta * x + (1.0 - beta) * x_tilde


def gumbel_softmax(logits: np.ndarray, temperature: float, rng: RngStream) -> np.ndarray:
    """Row-wise softmax((logits + Gumbel noise) / temperature)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    u = rng.uniform(*logits.shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    z = logits + (-np.log(-np.log(u)))
    z = z / temperature
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


@dataclass
class AdamState:
    """First/second moment estimates; mutated by :func:`adam_step`."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0

    @staticmethod
    def for_mlp(mlp: Mlp) -> "AdamState":
        return AdamState(
            [np.zeros_like(l.w) for l in mlp.layers],
            [np.zeros_like(l.w) for l in mlp.layers],
            [np.zeros_like(l.b) for l in mlp.layers],
            [np.zeros_like(l.b) for l in mlp.layers],
        )


def adam_step(
    mlp: Mlp, grads: GradSet, state: AdamState, eta: float
) -> tuple[Mlp, AdamState]:
    """One Adam update with bias correction; returns the updated network."""
    if len(grads.dw) != len(mlp.layers):
        raise ValueError("gradient set does not match the network")
    state.t += 1
    b1, b2 = _BETA1, _BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    new_layers = []
    for i, layer in enumerate(mlp.layers):
        state.m_w[i] = b1 * state.m_w[i] + (1.0 - b1) * grads.dw[i]
        state.v_w[i] = b2 * state.v_w[i] + (1.0 - b2) * grads.dw[i] ** 2
        state.m_b[i] = b1 * state.m_b[i] + (1.0 - b1) * grads.db[i]
        state.v_b[i] = b2 * state.v_b[i] + (1.0 - b2) * grads.db[i] ** 2
        w = layer.w - eta * (state.m_w[i] / c1) / (np.sqrt(state.v_w[i] / c2) + _EPS)
        b = layer.b - eta * (state.m_b[i] / c1) / (np.sqrt(state.v_b[i] / c2) + _EPS)
        new_layers.append(Layer(w, b, layer.activation))
    return Mlp(tuple(new_layers)), state


def stack(*parts: Mlp) -> Mlp:
    """View several networks as one (layers share the same arrays)."""
    layers = []
    for part in parts:
        layers.extend(part.layers)
    return Mlp(tuple(layers))


def split_grads(grads: GradSet, sizes: list[int]) -> list[GradSet]:
    """Split a stacked network's GradSet back into per-part GradSets."""
    if sum(sizes) != len(grads.dw):
        raise ValueError("split sizes do not cover the gradient set")
    out, at = [], 0
    for s in sizes:
        out.append(GradSet(grads.dw[at : at + s], grads.db[at : at + s]))
        at += s
    return out
