"""Dense-network primitives with exact first- and second-order gradients.

Networks are plain stacks of affine layers, each followed by an identity or
leaky-ReLU activation. Besides the usual forward/backward passes this module
provides the second-order path needed by the WGAN gradient-penalty term: the
penalty is a function of the input gradient of the critic, so its parameter
gradient requires differentiating through the recorded reverse pass (double
backprop). Both activations are piecewise linear, so ``phi'' = 0`` (taken as
0 at the kink) and that path needs no curvature pass.

:func:`forward` and :func:`gradient_penalty` keep a tape (:class:`Tape`):
every layer's input and the output, no pre-activations. The reverse passes
take each layer's derivative from its activation, which is exact: leaky-ReLU
``max(a, slope * a) > 0`` holds exactly where ``a > 0``, zeros of either sign,
subnormals and NaN included, and an identity layer's derivative is ones
either way. :func:`output` runs the same layer loop and keeps no tape, so a
pass whose intermediates nothing reads (sampling, the frozen critic of an
audit) holds about two layer-sized arrays instead of the whole stack; its
output is bit-identical to ``forward``'s.

Matrices are float64 ndarrays with rows as batch samples; layer weights have
shape (in, out) so a layer computes ``h @ W + b``. A network's parameters are
one contiguous float64 vector, per layer the row-major weights and then the
bias (the checkpoint's payload order); :func:`layout` is the only place
that layout is spelled out. Gradients and Adam moments are vectors of the same
layout, so summing two gradients is ``+`` and an Adam step is a handful of
vector expressions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = [
    "Layer",
    "Mlp",
    "layout",
    "Tape",
    "AdamState",
    "init_mlp",
    "forward",
    "output",
    "backward",
    "gradient_penalty",
    "interpolate",
    "gumbel_softmax",
    "adam_step",
    "stack",
    "LEAKY_SLOPE",
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


@functools.cache
def layout(widths: tuple[int, ...]) -> tuple[int, tuple]:
    """The parameter layout of a network with these widths: per layer the
    row-major (in, out) weights, then the bias. Returns the vector length
    and per layer (weight slice, weight shape, bias slice)."""
    spans, at = [], 0
    for i, o in zip(widths, widths[1:]):
        spans.append((slice(at, at + i * o), (i, o), slice(at + i * o, at + i * o + o)))
        at += i * o + o
    return at, tuple(spans)


@dataclass(frozen=True)
class Layer:
    w: np.ndarray  # (in, out), a view into the network's parameter vector
    b: np.ndarray  # (out,), likewise
    activation: str


class Mlp:
    """A stack of affine layers over one parameter vector.

    ``widths`` is [in, hidden..., out] and ``activations`` has one entry per
    layer; ``layers[i].w`` and ``.b`` are views into ``params``.
    """

    def __init__(self, params: np.ndarray, widths, activations):
        self.widths = tuple(widths)
        self.activations = tuple(activations)
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ValueError(f"invalid widths {self.widths}")
        if len(self.activations) != len(self.widths) - 1 or any(
            a not in ACTIVATIONS for a in self.activations
        ):
            raise ValueError(f"activations {self.activations} do not fit the widths")
        self.params = np.ascontiguousarray(params, dtype=np.float64)
        views = self.views(self.params)
        if not np.isfinite(self.params).all():
            raise ValueError("network parameters must be finite")
        self.layers = tuple(Layer(w, b, a) for (w, b), a in zip(views, self.activations))

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (W, b) views of a vector in this network's layout."""
        size, spans = layout(self.widths)
        if vec.shape != (size,):
            raise ValueError(
                f"vector of shape {vec.shape} does not match the {size} "
                f"parameters of widths {self.widths}"
            )
        return [(vec[w].reshape(shape), vec[b]) for w, shape, b in spans]

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


@dataclass
class Tape:
    """Each layer's input and the network's output. Layer ``l``'s activation,
    from which its derivative is taken, is ``inputs[l + 1]`` (``output`` for
    the last layer)."""

    inputs: list[np.ndarray]
    output: np.ndarray

    def activations(self) -> list[np.ndarray]:
        """Each layer's activation, in layer order."""
        return self.inputs[1:] + [self.output]


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
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        params.append((rng.normal(fan_in, fan_out) * np.sqrt(2.0 / fan_in)).ravel())
        params.append(np.zeros(fan_out))
    activations = ["leaky_relu"] * (len(widths) - 2) + [out_activation]
    return Mlp(np.concatenate(params), widths, activations)


def _run(layers, h: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """The one layer loop. With a tape, every layer's input is appended to
    it; without, each is dropped once used. Either way a pre-activation is
    dropped once activated, so beyond the tape at most two arrays of a
    layer's width (pre-activation, activation) are alive."""
    for layer in layers:
        a = h @ layer.w
        a += layer.b
        if tape is not None:
            tape.inputs.append(h)
        del h
        h = _act(layer.activation, a)
        del a
    return h


def _check_batch(mlp: Mlp, batch: np.ndarray) -> None:
    if batch.ndim != 2 or batch.shape[1] != mlp.in_width:
        raise ValueError(
            f"batch width {batch.shape} does not match network input {mlp.in_width}"
        )


def forward(mlp: Mlp, batch: np.ndarray) -> tuple[np.ndarray, Tape]:
    """The network's output and the tape :func:`backward` reads."""
    _check_batch(mlp, batch)
    tape = Tape([], None)
    tape.output = _run(mlp.layers, batch, tape)
    return tape.output, tape


def output(mlp: Mlp, batch: np.ndarray) -> np.ndarray:
    """``forward(mlp, batch)[0]``, bit for bit, keeping no tape."""
    _check_batch(mlp, batch)
    return _run(mlp.layers, batch)


def backward(
    mlp: Mlp, tape: Tape, output_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the scalar whose output-gradient is ``output_grad``.

    Returns (parameter gradient vector, gradient w.r.t. the forward input).
    """
    if output_grad.shape != tape.output.shape:
        raise ValueError("output_grad shape does not match the taped output")
    acts = tape.activations()
    if len(acts) != len(mlp.layers) or any(
        t.shape[1] != l.w.shape[1] for t, l in zip(acts, mlp.layers)
    ):
        raise ValueError("stale tape: recorded shapes do not match the network")
    grad = np.empty_like(mlp.params)
    views = mlp.views(grad)
    delta = output_grad
    for l in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[l]
        g = delta * _act_deriv(layer.activation, acts[l])
        dw, db = views[l]
        np.matmul(tape.inputs[l].T, g, out=dw)
        g.sum(axis=0, out=db)
        delta = g @ layer.w.T
    return grad, delta


def gradient_penalty(
    parts: tuple[Mlp, ...], x_hat: np.ndarray, lambda_gp: float
) -> tuple[float, list[np.ndarray]]:
    """WGAN gradient penalty and its exact parameter gradients.

    The critic is ``parts`` applied in order (e.g. ``(d1, d2)``);
    penalty = lambda_gp * mean_rows (||d critic / d x_hat||_2 - 1)^2.
    Returns the penalty and one gradient vector per part.

    The parameter gradient differentiates through the reverse pass that
    produced the input gradient (double backprop over the taped layers).
    With ``phi'' = 0`` the biases receive no gradient.
    """
    if lambda_gp < 0:
        raise ValueError("lambda_gp must be >= 0")
    if parts[-1].out_width != 1:
        raise ValueError("gradient penalty requires a scalar critic")
    if x_hat.ndim != 2 or x_hat.shape[1] != parts[0].in_width or any(
        a.out_width != b.in_width for a, b in zip(parts, parts[1:])
    ):
        raise ValueError("critic parts and input widths do not chain")
    layers = [layer for part in parts for layer in part.layers]
    n_layers = len(layers)
    rows = x_hat.shape[0]

    tape = Tape([], None)
    tape.output = _run(layers, x_hat, tape)
    acts = tape.activations()
    del tape

    # reverse pass, recording the per-layer cotangents it produces; each
    # activation is dropped once its derivative is taken
    gs = [None] * n_layers  # cotangent on the pre-activation a_l
    phi1 = [None] * n_layers
    delta = np.ones_like(acts[-1])
    for l in range(n_layers - 1, -1, -1):
        layer = layers[l]
        phi1[l] = _act_deriv(layer.activation, acts.pop())
        gs[l] = delta * phi1[l]
        delta = gs[l] @ layer.w.T
    u = delta  # (rows, in): per-row input gradient of the critic

    norms = np.sqrt(np.sum(u * u, axis=1) + _NORM_GUARD)
    penalty = lambda_gp * float(np.mean((norms - 1.0) ** 2))

    # cotangent on u of the penalty scalar
    v = (2.0 * lambda_gp / rows) * ((norms - 1.0) / norms)[:, None] * u

    grads = [np.zeros_like(part.params) for part in parts]
    dws = [dw for part, g in zip(parts, grads) for dw, _ in part.views(g)]

    # differentiate the reverse pass (walk it in forward order)
    p = v  # cotangent on the reverse pass's output of layer l
    for l in range(n_layers):
        dws[l] += p.T @ gs[l]
        p = (p @ layers[l].w) * phi1[l]
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
    """Moment vectors in the network's layout; mutated by :func:`adam_step`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def for_mlp(mlp: Mlp) -> "AdamState":
        return AdamState(np.zeros_like(mlp.params), np.zeros_like(mlp.params))


def adam_step(
    mlp: Mlp, grad: np.ndarray, state: AdamState, eta: float
) -> tuple[Mlp, AdamState]:
    """One Adam update with bias correction; returns a new network and leaves
    ``mlp`` untouched."""
    if grad.shape != mlp.params.shape:
        raise ValueError("gradient vector does not match the network")
    state.t += 1
    b1, b2 = _BETA1, _BETA2
    state.m = b1 * state.m + (1.0 - b1) * grad
    state.v = b2 * state.v + (1.0 - b2) * grad**2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    params = mlp.params - eta * (state.m / c1) / (np.sqrt(state.v / c2) + _EPS)
    return Mlp(params, mlp.widths, mlp.activations), state


def stack(*parts: Mlp) -> Mlp:
    """One network running ``parts`` in order (a copy of their parameters);
    parts whose widths do not chain give a vector of the wrong length."""
    return Mlp(
        np.concatenate([p.params for p in parts]),
        parts[0].widths[:1] + sum((p.widths[1:] for p in parts), ()),
        sum((p.activations for p in parts), ()),
    )
