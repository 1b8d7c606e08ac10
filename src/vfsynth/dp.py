"""First-layer Gaussian mechanism and the Renyi-DP accountant.

The mechanism clips a whole first-layer gradient slice (weights and biases
jointly) to L2 norm C and adds per-coordinate Gaussian noise of standard
deviation ``sigma * 2C`` — the factor 2 is the triangle-inequality sensitivity
of a clipped gradient difference. One noised release then satisfies
``(alpha, alpha / (2 sigma^2))``-RDP for every order alpha.

The accountant works on one fixed grid of integer orders, ``ALPHAS`` =
2 .. ``ALPHA_MAX``; a curve is a float array of epsilon(alpha) over it, so
composing two mechanisms is adding their curves. The pipeline is the
per-release curve, optional subsampling amplification (each step touches a
random fraction gamma of the rows), linear composition over steps, and
conversion to an (epsilon, delta) guarantee by minimizing over the grid.
``calibrate`` inverts the whole pipeline to find the smallest noise
multiplier meeting a target budget: it doubles or halves a bracket within
[``SIGMA_MIN``, ``SIGMA_MAX``] until it holds the answer, then bisects.

Subsampling amplification applies to adversaries for whom batch selection is
random (external observers and the server). Parties see deterministic batch
membership, so reports carry both the amplified and the unamplified epsilon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .nn import Mlp
from .rng import RngStream

__all__ = [
    "DpConfig",
    "ALPHAS",
    "CalibrationError",
    "clip_gradients",
    "apply_mechanism",
    "gaussian_rdp",
    "subsample_amplify",
    "pipeline_curve",
    "to_dp",
    "calibrate",
    "BudgetReport",
    "budget_report",
]

# the accountant's fixed order grid 2..ALPHA_MAX, and calibrate's bracket
ALPHA_MAX = 512
ALPHAS = np.arange(2, ALPHA_MAX + 1)
SIGMA_MAX = 1e3  # largest noise multiplier calibrate tries
SIGMA_MIN = 1e-3  # smallest; returned when even it meets the budget
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

def clip_gradients(dw: np.ndarray, db: np.ndarray, clip: float):
    """Scale one layer's (dW, db) jointly so the combined L2 norm is <= clip."""
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    norm = math.sqrt(float(np.sum(dw * dw)) + float(np.sum(db * db)))
    scale = 1.0 / max(1.0, norm / clip)
    return dw * scale, db * scale


def apply_mechanism(
    net: Mlp, grad: np.ndarray, sigma: float, clip: float, rng: RngStream
) -> None:
    """The first-layer mechanism, in place on ``net``'s gradient vector: clip
    layer 0's (dW, db) jointly and add N(0, (sigma * 2C)^2) noise to every
    coordinate, weights first."""
    dw, db = net.views(grad)[0]
    cw, cb = clip_gradients(dw, db, clip)
    std = sigma * 2.0 * clip
    dw[...] = cw + std * rng.normal(*dw.shape)
    db[...] = cb + std * rng.normal(*db.shape)


# ---------------------------------------------------------------------------
# accountant
# ---------------------------------------------------------------------------

def gaussian_rdp(sigma: float) -> np.ndarray:
    """Per-release curve of the mechanism: epsilon(alpha) = alpha / (2 sigma^2)."""
    # an overflowing 2 sigma^2 would give the zero curve, which the log-space
    # amplification cannot take
    if not (sigma > 0 and math.isfinite(2.0 * sigma * sigma)):
        raise ValueError(f"sigma must be positive with 2 sigma^2 finite, got {sigma!r}")
    return ALPHAS / (2.0 * sigma * sigma)


def _log_expm1(x: float) -> float:
    # log(e^x - 1), stable for any x > 0
    if x <= 0:
        raise ValueError("log_expm1 needs x > 0")
    if x < 30:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def subsample_amplify(curve: np.ndarray, gamma: float) -> np.ndarray:
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
        return np.zeros_like(curve)
    log_gamma = math.log(gamma)
    eps2 = float(curve[0])
    # min{4(e^{eps(2)} - 1), e^{eps(2)} * min{2, .}} with the second min = 2
    log_first_min = min(
        math.log(4.0) + _log_expm1(eps2),
        math.log(2.0) + eps2,
    )
    logfact = np.zeros(ALPHA_MAX + 1)
    logfact[1:] = np.cumsum(np.log(np.arange(1, ALPHA_MAX + 1, dtype=np.float64)))

    # term matrix over (alpha row, order j column), j = 3..alpha, in log space
    js = np.arange(3, ALPHA_MAX + 1, dtype=np.int64)
    rest = ALPHAS[:, None] - js[None, :]
    valid = rest >= 0
    terms = (
        math.log(2.0)
        + js * log_gamma
        - logfact[js]
        + (js - 1) * curve[js - 2]
    )[None, :] + logfact[ALPHAS][:, None] - logfact[np.where(valid, rest, 0)]
    terms = np.where(valid, terms, -np.inf)

    t2 = 2.0 * log_gamma + (logfact[ALPHAS] - logfact[ALPHAS - 2] - logfact[2]) \
        + log_first_min
    all_terms = np.concatenate(
        [np.zeros((len(ALPHAS), 1)), t2[:, None], terms], axis=1
    )
    m = all_terms.max(axis=1)
    lse = m + np.log(np.sum(np.exp(all_terms - m[:, None]), axis=1))
    amplified = lse / (ALPHAS - 1)
    return np.minimum(amplified, curve)


def pipeline_curve(
    sigma: float, gamma: float, steps: int, amplified: bool = True
) -> np.ndarray:
    """Curve of ``steps`` releases, each amplified by gamma-subsampling unless
    ``amplified`` is False. RDP composes additively: T * epsilon(alpha)."""
    if not 0 <= steps <= sys.float_info.max:
        raise ValueError(f"steps must lie in [0, {sys.float_info.max:.4g}]")
    # a tiny sigma or a huge step count overflows to a non-finite curve,
    # which to_dp rejects in one check; numpy need not warn on the way
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        curve = gaussian_rdp(sigma)
        if amplified:
            curve = subsample_amplify(curve, gamma)
        return curve * float(steps)


def to_dp(curve: np.ndarray, delta: float) -> tuple[float, int]:
    """Tightest (epsilon, delta) point over the grid.

    Returns (epsilon, minimizing alpha); epsilon(alpha) + log(1/delta)/(alpha-1).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not np.isfinite(curve).all():
        raise ValueError("RDP curve is not finite: sigma too small or steps too many")
    log_inv_delta = math.log(1.0 / delta)
    values = curve + log_inv_delta / (ALPHAS - 1.0)
    i = int(np.argmin(values))
    return float(values[i]), int(ALPHAS[i])


def pipeline_epsilon(
    sigma: float,
    gamma: float,
    steps: int,
    delta: float,
    amplified: bool = True,
) -> tuple[float, int]:
    """(epsilon, alpha) of the full accounting pipeline for one parameter set."""
    return to_dp(pipeline_curve(sigma, gamma, steps, amplified), delta)


def calibrate(target_epsilon: float, delta: float, gamma: float, steps: int) -> float:
    """Smallest noise multiplier whose accounted epsilon meets the target.

    Bisects on sigma down to a relative bracket width of ``REL_WIDTH`` after
    checking that the pipeline is monotone non-increasing on the bracket.
    Returns ``SIGMA_MIN`` when even that meets the budget (e.g. at gamma 0
    or no steps). Raises :class:`CalibrationError` (reporting the epsilon
    achieved at ``SIGMA_MAX``) when even the largest sigma cannot meet it.
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
    while eps_at(lo) <= target_epsilon:
        if lo == SIGMA_MIN:
            return lo
        hi, lo = lo, max(lo / 2.0, SIGMA_MIN)
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
