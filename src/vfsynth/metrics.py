"""Synthetic-data quality metrics: Frechet distance and four-way utility.

The Frechet distance between two datasets is taken between Gaussian fits of
their first two moments on the ENCODED matrix (standardized numerics plus
one-hot blocks); categorical raw values have no covariance, so the encoded
representation is the numeric ground for the statistic.

AI-training utility trains the built-in decision forest in four regimes:
train/test on real (TRTR), on synthetic (TSTS), train real / test synthetic
(TRTS) and the reverse (TSTR). TRTR and TSTS use 10-fold cross-validation.
The headline number is the total difference: the sum over the three
synthetic-involving regimes of |accuracy delta| + |macro-F1 delta| against
TRTR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as D
from .forest import predict, train_forest
from .rng import RngStream

__all__ = [
    "DatasetStats",
    "dataset_stats",
    "stats_from_matrix",
    "frechet_distance",
    "accuracy",
    "macro_f1",
    "UtilityReport",
    "target_column",
    "check_table",
    "utility_fourway",
]


@dataclass(frozen=True)
class DatasetStats:
    mu: np.ndarray  # (d,)
    cov: np.ndarray  # (d, d) population covariance

    def __post_init__(self):
        if self.cov.shape != (len(self.mu), len(self.mu)):
            raise ValueError("covariance shape does not match the mean")
        asym = float(np.abs(self.cov - self.cov.T).max(initial=0.0))
        if asym > 1e-10:
            raise ValueError(f"covariance asymmetry {asym} exceeds tolerance")


def stats_from_matrix(m: np.ndarray) -> DatasetStats:
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError("need at least 2 rows for moment statistics")
    mu = m.mean(axis=0)
    centered = m - mu
    cov = centered.T @ centered / m.shape[0]
    cov = (cov + cov.T) / 2.0
    return DatasetStats(mu, cov)


def dataset_stats(enc_ds: D.EncodedDataset) -> DatasetStats:
    return stats_from_matrix(enc_ds.matrix)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def frechet_distance(s1: DatasetStats, s2: DatasetStats) -> float:
    """||mu1 - mu2||^2 + Tr(V1 + V2 - 2 (V1 V2)^{1/2}).

    The cross term is evaluated as Tr((V1^{1/2} V2 V1^{1/2})^{1/2}) through
    two symmetric eigendecompositions; tiny negative eigenvalues are clamped
    and a result in [-1e-6, 0) clamps to 0. Non-finite statistics raise
    ``ValueError``.
    """
    if s1.mu.shape != s2.mu.shape:
        raise ValueError("dimension mismatch between statistics")
    for s in (s1, s2):
        if not (np.isfinite(s.mu).all() and np.isfinite(s.cov).all()):
            raise ValueError("non-finite moment statistics")
    diff = s1.mu - s2.mu
    root1 = _psd_sqrt(s1.cov)
    inner = root1 @ s2.cov @ root1
    inner = (inner + inner.T) / 2.0
    w = np.linalg.eigvalsh(inner)
    tr_cross = float(np.sqrt(np.maximum(w, 0.0)).sum())
    fd = float(diff @ diff) + float(np.trace(s1.cov) + np.trace(s2.cov)) \
        - 2.0 * tr_cross
    if fd < -1e-6:
        raise ValueError(f"Frechet distance {fd} below the negativity tolerance")
    return max(fd, 0.0)


# ---------------------------------------------------------------------------
# classification utility
# ---------------------------------------------------------------------------

def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean per-class F1 over the classes present in y_true.

    A class with zero predicted and zero true positives scores 0.
    """
    classes = np.unique(y_true)
    scores = []
    for c in classes:
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


@dataclass(frozen=True)
class UtilityReport:
    trtr: tuple[float, float]  # (accuracy, macro F1)
    tsts: tuple[float, float]
    trts: tuple[float, float]
    tstr: tuple[float, float]
    total_difference: float

    def as_rows(self):
        return [
            ("TRTR", *self.trtr),
            ("TSTS", *self.tsts),
            ("TRTS", *self.trts),
            ("TSTR", *self.tstr),
        ]


def _total_difference(trtr, others) -> float:
    return float(
        sum(abs(m[0] - trtr[0]) + abs(m[1] - trtr[1]) for m in others)
    )


FOLDS = 10  # cross-validation folds of the four-way utility


def target_column(schema: D.Schema) -> int:
    """The column of the evaluated ``schema.target``, which must be categorical."""
    if schema.target is None:
        raise D.DataError("no target attribute: set dataset.schema.target")
    col = schema.names.index(schema.target)  # a Schema refuses a target it lacks
    if schema.attributes[col].kind != "categorical":
        raise D.DataError(f"target attribute {schema.target!r} must be categorical")
    return col


def check_table(ds: D.TabularDataset, col: int, name: str, folds: int = FOLDS) -> None:
    """Refuse the table ``name`` with fewer rows than ``folds`` or one class in ``col``."""
    if ds.n_rows < folds:  # an empty test fold makes its metrics NaN
        raise D.DataError(f"{name} has {ds.n_rows} rows; the four-way evaluation "
                          f"needs at least {folds}, one per fold")
    attr, classes = ds.schema.attributes[col], np.unique(ds.columns[col])
    if len(classes) == 1:  # no fold of it can train a classifier
        one = attr.categories[classes[0]]
        raise D.DataError(f"{name} holds the one {attr.name!r} class {one!r}; "
                          "the four-way evaluation needs at least two")


def _features_and_labels(ds: D.TabularDataset, enc: D.Encoder, col: int):
    start, width = enc.spans[col]
    x = np.delete(D.encode(ds, enc).matrix, slice(start, start + width), axis=1)
    return x, ds.columns[col], width


def _draw_folds(n: int, k: int, y_checks, rng: RngStream) -> list[np.ndarray]:
    """k evenly split folds: contiguous unshuffled blocks in row order.

    If a training side would lose all but one class, the folds are resampled
    once by random permutation; a second failure is an error.
    """
    candidates = [np.array_split(np.arange(n), k), None]
    for folds in candidates:
        if folds is None:
            perm = rng.child("folds", "resampled").permutation(n)
            folds = [perm[i::k] for i in range(k)]
        ok = all(
            len(np.unique(np.delete(y, f))) >= 2 for y in y_checks for f in folds
        )
        if ok:
            return folds
    raise D.DataError("a cross-validation training fold lost all but one class")


def _fold_eval(x_train, y_train, x_test, y_test, folds, n_classes, trees, rng):
    """Mean (accuracy, macro-F1) training on x_train minus each fold and
    testing on the other dataset's fold rows. ``rng`` children are indexed by
    fold only, so the four regimes share forest randomness (a paired design:
    on identical datasets the regimes coincide exactly)."""
    accs, f1s = [], []
    for i, f in enumerate(folds):
        rows = np.setdiff1d(np.arange(len(y_train)), f)
        forest = train_forest(
            x_train[rows], y_train[rows], n_classes, trees, rng.child("fold", i)
        )
        pred = predict(forest, x_test[f])
        accs.append(accuracy(y_test[f], pred))
        f1s.append(macro_f1(y_test[f], pred))
    return float(np.mean(accs)), float(np.mean(f1s))


def utility_fourway(
    real: D.TabularDataset,
    synth: D.TabularDataset,
    target: str,
    rng: RngStream,
    trees: int = 100,
    folds: int = FOLDS,
) -> UtilityReport:
    """Four-regime decision-forest utility of a synthetic dataset.

    When the datasets have equal size, one shared ``folds``-fold partition
    (``folds`` >= 2; contiguous blocks in row order) drives all four regimes
    with shared forest randomness: train on one dataset minus the fold, test
    on the other dataset's fold. An exact copy then reproduces TRTR exactly.
    With unequal sizes the cross regimes train on the full source dataset
    and test on the full target instead.
    """
    if folds < 2:  # one fold leaves no training rows
        raise ValueError(f"folds must be >= 2, got {folds}")
    if real.schema != synth.schema:
        raise D.DataError("real and synthetic schemas differ")
    col = target_column(replace(real.schema, target=target))
    for name, ds in (("the real table", real), ("the synthetic table", synth)):
        check_table(ds, col, name, folds)
    enc = D.fit_encoder(real)
    xr, yr, n_classes = _features_and_labels(real, enc, col)
    xs, ys, _ = _features_and_labels(synth, enc, col)

    if len(yr) == len(ys):
        shared = _draw_folds(len(yr), folds, [yr, ys], rng)
        forests = rng.child("forests")
        trtr = _fold_eval(xr, yr, xr, yr, shared, n_classes, trees, forests)
        tsts = _fold_eval(xs, ys, xs, ys, shared, n_classes, trees, forests)
        trts = _fold_eval(xr, yr, xs, ys, shared, n_classes, trees, forests)
        tstr = _fold_eval(xs, ys, xr, yr, shared, n_classes, trees, forests)
    else:
        fr = _draw_folds(len(yr), folds, [yr], rng.child("real"))
        fs = _draw_folds(len(ys), folds, [ys], rng.child("synth"))
        trtr = _fold_eval(xr, yr, xr, yr, fr, n_classes, trees, rng.child("trtr"))
        tsts = _fold_eval(xs, ys, xs, ys, fs, n_classes, trees, rng.child("tsts"))
        forest_r = train_forest(xr, yr, n_classes, trees, rng.child("full_real"))
        pred = predict(forest_r, xs)
        trts = (accuracy(ys, pred), macro_f1(ys, pred))
        forest_s = train_forest(xs, ys, n_classes, trees, rng.child("full_synth"))
        pred = predict(forest_s, xr)
        tstr = (accuracy(yr, pred), macro_f1(yr, pred))

    return UtilityReport(
        trtr, tsts, trts, tstr, _total_difference(trtr, [tsts, trts, tstr])
    )
