"""First-layer Gaussian mechanism and the Renyi-DP accountant.

The mechanism clips a whole first-layer gradient slice (weights and biases
jointly) to L2 norm C and adds per-coordinate Gaussian noise of standard
deviation ``sigma * 2C`` — the factor 2 is the triangle-inequality sensitivity
of a clipped gradient difference. One noised release then satisfies
``(alpha, alpha / (2 sigma^2))``-RDP for every order alpha.

The accountant works on one fixed grid of integer orders, alpha = 2 ..
``ALPHA_MAX``: per-release curve, optional subsampling amplification (each
step touches a random fraction gamma of the rows), linear composition over
steps, and conversion to an (epsilon, delta) guarantee by minimizing over the
grid. ``calibrate`` inverts the whole pipeline to find the smallest noise
multiplier meeting a target budget, bisecting on a fixed bracket up to
``SIGMA_MAX``.

Subsampling amplification applies to adversaries for whom batch selection is
random (external observers and the server). Parties see deterministic batch
membership, so reports carry both the amplified and the unamplified epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import GradSet
from .rng import RngStream

__all__ = [
    "DpConfig",
    "RdpCurve",
    "CalibrationError",
    "clip_gradients",
    "noise_gradients",
    "gaussian_rdp",
    "subsample_amplify",
    "compose",
    "to_dp",
    "calibrate",
    "BudgetReport",
    "budget_report",
]

# the accountant's fixed order grid 2..ALPHA_MAX, and calibrate's bracket
ALPHA_MAX = 512
SIGMA_MAX = 1e3  # largest noise multiplier calibrate tries
REL_WIDTH = 1e-3  # relative width at which the sigma bisection stops


@dataclass(frozen=True)
class DpConfig:
    """Resolved mechanism parameters for one training run."""

    clip: float
    sigma: float
    sampling_rate: float  # batch / dataset size
    steps: int  # total noised releases = epochs * discriminator steps

    def __post_init__(self):
        if self.clip <= 0:
            raise ValueError("clip bound must be positive")
        if self.sigma <= 0:
            raise ValueError("noise multiplier must be positive")
        if not 0 < self.sampling_rate <= 1:
            raise ValueError("sampling rate must be in (0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


class CalibrationError(ValueError):
    """The requested privacy budget cannot be met on the search bracket."""


# ---------------------------------------------------------------------------
# mechanism
# ---------------------------------------------------------------------------

def _slice_norm(dw: np.ndarray, db: np.ndarray) -> float:
    return math.sqrt(float(np.sum(dw * dw)) + float(np.sum(db * db)))


def clip_gradients(dw: np.ndarray, db: np.ndarray, clip: float):
    """Scale one layer's (dW, db) jointly so the combined L2 norm is <= clip."""
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    norm = _slice_norm(dw, db)
    scale = 1.0 / max(1.0, norm / clip)
    return dw * scale, db * scale


def noise_gradients(
    dw: np.ndarray, db: np.ndarray, sigma: float, clip: float, rng: RngStream
):
    """Add N(0, (sigma * 2C)^2) noise to every coordinate of a clipped slice."""
    std = sigma * 2.0 * clip
    return dw + std * rng.normal(*dw.shape), db + std * rng.normal(*db.shape)


def apply_mechanism(
    grads: GradSet, layer: int, sigma: float, clip: float, rng: RngStream
) -> None:
    """Clip+noise one layer of a GradSet in place (the first-layer mechanism)."""
    dw, db = clip_gradients(grads.dw[layer], grads.db[layer], clip)
    dw, db = noise_gradients(dw, db, sigma, clip, rng)
    grads.dw[layer] = dw
    grads.db[layer] = db


# ---------------------------------------------------------------------------
# accountant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RdpCurve:
    """epsilon(alpha) over a dense integer grid starting at alpha = 2."""

    alphas: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        if len(self.alphas) != len(self.eps) or len(self.alphas) == 0:
            raise ValueError("malformed RDP curve")
        if self.alphas[0] != 2 or not np.array_equal(
            self.alphas, np.arange(2, 2 + len(self.alphas))
        ):
            raise ValueError("curve grid must be the dense integer range 2..alpha_max")
        if not np.isfinite(self.eps).all() or (self.eps < 0).any():
            raise ValueError("curve values must be finite and non-negative")

    def value(self, alpha: int) -> float:
        if not 2 <= alpha <= int(self.alphas[-1]):
            raise ValueError(f"alpha {alpha} outside the stored grid")
        return float(self.eps[alpha - 2])


def gaussian_rdp(sigma: float) -> RdpCurve:
    """Per-release curve of the mechanism: epsilon(alpha) = alpha / (2 sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    alphas = np.arange(2, ALPHA_MAX + 1)
    return RdpCurve(alphas, alphas / (2.0 * sigma * sigma))


def _log_expm1(x: float) -> float:
    # log(e^x - 1), stable for any x > 0
    if x <= 0:
        raise ValueError("log_expm1 needs x > 0")
    if x < 30:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def subsample_amplify(curve: RdpCurve, gamma: float) -> RdpCurve:
    """Amplified curve for a mechanism run on a gamma-fraction random subset.

    Uses the explicit subsampling bound for integer orders, evaluated in log
    space; the infinite-order divergence of the Gaussian makes every
    ``min(2, (e^{eps(inf)} - 1)^j)`` term resolve to 2. Since subsampling
    never hurts, the result is capped pointwise by the input curve (at
    gamma = 1 subsampling is the identity and the formula is loose).
    """
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must be in [0, 1]")
    if gamma == 0.0:
        return RdpCurve(curve.alphas.copy(), np.zeros_like(curve.eps))
    log_gamma = math.log(gamma)
    eps2 = curve.value(2)
    # min{4(e^{eps(2)} - 1), e^{eps(2)} * min{2, .}} with the second min = 2
    log_first_min = min(
        math.log(4.0) + _log_expm1(eps2),
        math.log(2.0) + eps2,
    )
    alphas = curve.alphas.astype(np.int64)
    a_max = int(alphas[-1])
    logfact = np.zeros(a_max + 1)
    logfact[1:] = np.cumsum(np.log(np.arange(1, a_max + 1, dtype=np.float64)))

    # term matrix over (alpha row, order j column), j = 3..alpha, in log space
    js = np.arange(3, a_max + 1, dtype=np.int64)
    rest = alphas[:, None] - js[None, :]
    valid = rest >= 0
    terms = (
        math.log(2.0)
        + js * log_gamma
        - logfact[js]
        + (js - 1) * curve.eps[js - 2]
    )[None, :] + logfact[alphas][:, None] - logfact[np.where(valid, rest, 0)]
    terms = np.where(valid, terms, -np.inf)

    t2 = 2.0 * log_gamma + (logfact[alphas] - logfact[alphas - 2] - logfact[2]) \
        + log_first_min
    all_terms = np.concatenate(
        [np.zeros((len(alphas), 1)), t2[:, None], terms], axis=1
    )
    m = all_terms.max(axis=1)
    lse = m + np.log(np.sum(np.exp(all_terms - m[:, None]), axis=1))
    amplified = lse / (alphas - 1)
    return RdpCurve(curve.alphas.copy(), np.minimum(amplified, curve.eps))


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """RDP composes additively: T releases cost T * epsilon(alpha)."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return RdpCurve(curve.alphas.copy(), curve.eps * float(steps))


def to_dp(curve: RdpCurve, delta: float) -> tuple[float, int]:
    """Tightest (epsilon, delta) point over the grid.

    Returns (epsilon, minimizing alpha); epsilon(alpha) + log(1/delta)/(alpha-1).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    log_inv_delta = math.log(1.0 / delta)
    values = curve.eps + log_inv_delta / (curve.alphas - 1.0)
    i = int(np.argmin(values))
    return float(values[i]), int(curve.alphas[i])


def pipeline_epsilon(
    sigma: float,
    gamma: float,
    steps: int,
    delta: float,
    amplified: bool = True,
) -> tuple[float, int]:
    """(epsilon, alpha) of the full accounting pipeline for one parameter set."""
    curve = gaussian_rdp(sigma)
    if amplified:
        curve = subsample_amplify(curve, gamma)
    return to_dp(compose(curve, steps), delta)


def calibrate(target_epsilon: float, delta: float, gamma: float, steps: int) -> float:
    """Smallest noise multiplier whose accounted epsilon meets the target.

    Bisects on sigma down to a relative bracket width of ``REL_WIDTH`` after
    checking that the pipeline is monotone non-increasing on the bracket.
    Raises :class:`CalibrationError` (reporting the epsilon achieved at
    ``SIGMA_MAX``) when even the largest sigma cannot meet the budget.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0):
        raise ValueError(
            f"target epsilon must be positive and finite, got {target_epsilon}"
        )

    def eps_at(sigma: float) -> float:
        return pipeline_epsilon(sigma, gamma, steps, delta)[0]

    hi = 0.5
    while eps_at(hi) > target_epsilon:
        hi *= 2.0
        if hi > SIGMA_MAX:
            achieved = eps_at(SIGMA_MAX)
            raise CalibrationError(
                f"budget epsilon={target_epsilon} infeasible: at sigma={SIGMA_MAX} "
                f"the achieved epsilon is {achieved:.6g}"
            )
    lo = hi / 2.0
    if eps_at(lo) <= target_epsilon:
        # already feasible at the smallest probe; return it
        return lo
    # sanity: the pipeline must be monotone non-increasing across the bracket
    probes = np.linspace(lo, hi, 5)
    vals = [eps_at(float(s)) for s in probes]
    if any(a < b - 1e-12 for a, b in zip(vals, vals[1:])):
        raise CalibrationError("accounted epsilon is not monotone on the bracket")
    while (hi - lo) / hi > REL_WIDTH:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= target_epsilon:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class BudgetReport:
    sigma: float
    gamma: float
    steps: int
    delta: float
    epsilon_external: float  # with subsampling amplification
    alpha_external: int
    epsilon_internal: float  # unamplified (parties see deterministic batches)
    alpha_internal: int


def budget_report(sigma: float, gamma: float, steps: int, delta: float) -> BudgetReport:
    eps_ext, a_ext = pipeline_epsilon(sigma, gamma, steps, delta, amplified=True)
    eps_int, a_int = pipeline_epsilon(sigma, gamma, steps, delta, amplified=False)
    return BudgetReport(sigma, gamma, steps, delta, eps_ext, a_ext, eps_int, a_int)
