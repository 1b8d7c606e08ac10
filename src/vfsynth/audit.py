"""Leave-one-out membership-inference auditing.

Shadow trainings run with and without one fixed target record, and two
attack surfaces read them: published synthetic datasets (ASSD, features of
each shadow's best-epoch sample) and the protocol's intermediate features
(ASIF, the whole dataset pushed through each shadow's trained first
discriminator parts). Each shadow trains once, whatever the modes, so the
two modes' estimates are paired.
A decision-forest adversary is trained on balanced labeled features over
repeated random 70/30 train/test splits of each world's shadows; the report
carries the AUC mean and standard deviation per feature kind.

Feature maps, fixed as this artifact's convention:

* ``naive`` — per attribute: (mean, median, population variance) for
  numerics, per-category relative frequencies for categoricals.
* ``correlation`` — strict upper triangle, row-major, of the Pearson
  correlation matrix; zero-variance columns contribute 0. Both kinds read
  ``Encoder.spans``' layout unstandardized: raw numerics, exact one-hot blocks.

Shadow trainings are independent jobs on derived streams; they fan out over
worker processes (count from ``VFSYNTH_THREADS``, default the CPU count)
without affecting any reported number. Each worker is handed the ensemble's
shared inputs (both worlds, the run, the DP mechanism, the stream) once, when
it starts, and then receives only ``(world, m)`` keys. Every job of both
worlds trains with the one mechanism: a sigma calibrated for the n - 1 rows
of the leave-one-out world also meets the budget in the full world, whose
batches sample a smaller fraction of its rows.

The nearest-neighbour selector holds no n x n matrix: it walks the upper
triangle of the pairwise distances in ``_NN_TILE`` x ``_NN_TILE`` tiles
(512 KiB each), whatever the rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import data as D
from . import fedgan as fg
from .dp import DpConfig
from .forest import predict_scores, train_forest
from .nn import output as nn_output
from .rng import RngStream

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

__all__ = [
    "AuditConfig",
    "FeatureSets",
    "extract_naive",
    "extract_corr",
    "naive_features_matrix",
    "corr_features_matrix",
    "train_shadows",
    "run_attack",
    "auc",
    "find_vulnerable_outlier",
    "find_vulnerable_nn",
    "select_target",
    "nearest_neighbor_distances",
    "thread_count",
]

FEATURE_KINDS = ("naive", "correlation")
AUDIT_MODES = ("assd", "asif")
SELECT_RULES = ("outlier", "nn")


def thread_count() -> int:
    raw = os.environ.get("VFSYNTH_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    message = f"VFSYNTH_THREADS must be a positive integer, got {raw!r}"
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if count < 1:
        raise ValueError(message)
    return count


# least values; six shadows per world is the fewest whose 70/30 split leaves
# the two test shadows the attack's AUC needs
_AUDIT_LEAST = {"shadows": 6, "repeats": 1, "target": 0}


@dataclass(frozen=True)
class AuditConfig:
    """The ``audit:`` section; the shadows train with the run's other settings.

    The attack splits each world's shadows 70/30 into train and test
    (``split_counts``), the paper's 140/60 protocol scaled to ``shadows``.
    Exactly one of ``target`` and ``select`` picks the audited record
    (:func:`select_target`).
    """

    shadows: int = 20  # M per world
    repeats: int = 5
    modes: tuple[str, ...] = ("assd",)
    feature_kinds: tuple[str, ...] = FEATURE_KINDS
    target: int | None = None
    select: str | None = None  # one of SELECT_RULES

    def __post_init__(self):
        fg.check_settings(self, "audit", _AUDIT_LEAST, choices={
            "modes": AUDIT_MODES, "feature_kinds": FEATURE_KINDS, "select": SELECT_RULES})
        if (self.target is None) == (self.select is None):
            raise ValueError("audit needs an explicit target or a select rule: "
                             "set exactly one of audit.target and audit.select")

    def split_counts(self) -> tuple[int, int]:
        """(train, test) shadows per world: 70% of them, rounded, and the rest."""
        train = round(0.7 * self.shadows)
        return train, self.shadows - train


@dataclass
class FeatureSets:
    """Per feature kind: (2M, dim) matrix plus world labels (1 = target in)."""

    features: dict[str, np.ndarray]
    labels: np.ndarray


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def naive_features_matrix(m: np.ndarray) -> np.ndarray:
    """Per-column (mean, median, population variance), column-major groups."""
    return np.stack(
        [np.mean(m, axis=0), np.median(m, axis=0), np.var(m, axis=0)], axis=1
    ).ravel()


def corr_features_matrix(m: np.ndarray) -> np.ndarray:
    """Strict upper triangle (row-major) of the Pearson correlation matrix.

    Columns with zero variance contribute correlation 0 by convention.
    """
    n, k = m.shape
    centered = m - m.mean(axis=0)
    std = centered.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    unit = centered / safe
    corr = unit.T @ unit / n
    corr[std == 0.0, :] = 0.0
    corr[:, std == 0.0] = 0.0
    iu = np.triu_indices(k, 1)
    return corr[iu]


def _raw_matrix(ds: D.TabularDataset):
    """``ds`` in ``Encoder.spans``' layout, unstandardized, and the spans."""
    n = len(ds.schema.attributes)
    enc = D.Encoder(ds.schema, (0.0,) * n, (1.0,) * n)  # (x - 0.0) / 1.0 == x
    return D.encode(ds, enc).matrix, enc.spans


def extract_naive(ds: D.TabularDataset) -> np.ndarray:
    """Per-attribute summaries of a (synthetic) dataset.

    Numerics contribute (mean, median, variance); categoricals contribute
    their per-category relative frequencies, the means of their one-hot columns.
    """
    if ds.n_rows == 0:
        raise D.DataError("cannot extract features from an empty dataset")
    m, spans = _raw_matrix(ds)
    # a numeric one column at a time: a wider axis-0 reduction sums in another order
    return np.concatenate([
        np.mean(m[:, s : s + w], axis=0) if attr.kind == "categorical"
        else naive_features_matrix(m[:, s : s + 1])
        for attr, (s, w) in zip(ds.schema.attributes, spans)])


def extract_corr(ds: D.TabularDataset) -> np.ndarray:
    if ds.n_rows < 2:
        raise D.DataError("correlation features need at least 2 rows")
    return corr_features_matrix(_raw_matrix(ds)[0])


_EXTRACTORS = {"naive": extract_naive, "correlation": extract_corr}
_MATRIX_EXTRACTORS = {"naive": naive_features_matrix, "correlation": corr_features_matrix}


# ---------------------------------------------------------------------------
# shadow ensembles
# ---------------------------------------------------------------------------

_worker_batch = None  # what a pool worker was handed once, by _receive


def _receive(batch):
    global _worker_batch
    _worker_batch = batch


def _run_key(key):
    return _shadow_job(_worker_batch, key)


def _run_jobs(batch, keys):
    """``_shadow_job(batch, key)`` for each key, in worker processes.

    ``batch`` holds what every job of the ensemble reads: both worlds, the
    run, the DP mechanism and the stream. It reaches each worker once, through
    the pool's initializer, so the work items are the small ``(world, m)``
    keys alone. With one worker the same jobs run in this process on the
    same inputs. Jobs are pure functions of their inputs with their own
    derived streams, so the execution backend cannot affect any number.
    """
    workers = min(thread_count(), len(keys))
    if workers <= 1:
        return [_shadow_job(batch, key) for key in keys]
    # imported here, so a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_receive,
                             initargs=(batch,)) as pool:
        return list(pool.map(_run_key, keys))


def _shadow_job(batch, key):
    """Train shadow ``(world, m)`` once; each of the audit's modes reads its
    features from that one trainer."""
    worlds, run, dp, rng = batch
    cfg = run.audit
    world, m = key
    world_ds = worlds[world]
    enc = D.fit_encoder(world_ds)
    trainer = fg.Trainer(run.variant, D.encode(world_ds, enc), run.split, run.gan, dp,
                         rng.child("shadow", world, m))
    # only ASSD reads the per-epoch FD, to sample the best epoch; the FD draws
    # from its own stream, so the final D_i^1 are the same either way
    epoch = trainer.run_epoch if "assd" in cfg.modes else trainer.step_epoch
    for _ in range(run.gan.epochs):
        epoch()
    rows = {}
    if "assd" in cfg.modes:
        # as many rows as the full dataset, world 1
        synth = D.decode(trainer.sample(worlds[1].n_rows, rng.child("synth", world, m),
                                        best=True))
        rows["assd"] = {kind: _EXTRACTORS[kind](synth) for kind in cfg.feature_kinds}
    if "asif" in cfg.modes:
        # the FULL dataset, encoded with the world's encoder, through D_i^1
        views = fg.partition(D.encode(worlds[1], enc), run.split).views
        feats = np.hstack([nn_output(p.d1, v) for p, v in zip(trainer.parties, views)])
        rows["asif"] = {kind: _MATRIX_EXTRACTORS[kind](feats) for kind in cfg.feature_kinds}
    return rows


def train_shadows(
    ds: D.TabularDataset,
    target_index: int,
    run: RunConfig,
    dp: DpConfig | None,
    rng: RngStream,
) -> dict[str, FeatureSets]:
    """Shadows m < M of world 0 (target out), then of world 1, each trained
    once with the ``run``'s settings and ``dp``; per audit mode, their features.

    ASSD summarizes a shadow's best-epoch synthetic sample; ASIF pushes the
    whole dataset through the shadow's trained first discriminator parts and
    summarizes the per-record feature matrix."""
    cfg = run.audit
    worlds = (D.leave_one_out(ds, target_index), ds)
    keys = [(world, m) for world in (0, 1) for m in range(cfg.shadows)]
    rows = _run_jobs((worlds, run, dp, rng), keys)
    labels = np.array([world for world, _ in keys], dtype=np.int64)
    return {
        mode: FeatureSets({k: np.vstack([r[mode][k] for r in rows]) for k in cfg.feature_kinds},
                          labels)
        for mode in cfg.modes
    }


# ---------------------------------------------------------------------------
# the attack
# ---------------------------------------------------------------------------

def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC; tied scores contribute one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes present")
    # per positive: the negatives below it plus half of those tied with it;
    # every term is an integer or a half, so the sum is exact
    neg = np.sort(neg)
    twice_u = np.sum(np.searchsorted(neg, pos, side="left")
                     + np.searchsorted(neg, pos, side="right"))
    return float(twice_u / 2.0 / (len(pos) * len(neg)))


def run_attack(sets: FeatureSets, cfg: AuditConfig, rng: RngStream) -> dict[str, dict]:
    """Decision-forest adversary over repeated balanced train/test splits:
    per feature kind, the AUC's ``auc_mean`` and ``auc_std`` over the repeats."""
    n_train, n_test = cfg.split_counts()
    labels = sets.labels
    world0 = np.nonzero(labels == 0)[0]
    world1 = np.nonzero(labels == 1)[0]
    if min(len(world0), len(world1)) < n_train + n_test:
        raise ValueError("not enough shadows per world for the requested split")
    results = {}
    for kind in cfg.feature_kinds:
        x = sets.features[kind]
        aucs = []
        for r in range(cfg.repeats):
            stream = rng.child("repeat", kind, r)
            picks = []
            for world in (world0, world1):
                perm = stream.permutation(len(world))
                picks.append((world[perm[:n_train]], world[perm[n_train : n_train + n_test]]))
            train_rows = np.concatenate([p[0] for p in picks])
            test_rows = np.concatenate([p[1] for p in picks])
            forest = train_forest(
                x[train_rows], labels[train_rows], 2, trees=100,
                rng=stream.child("forest"),
            )
            scores = predict_scores(forest, x[test_rows], positive=1)
            aucs.append(auc(scores, labels[test_rows]))
        mean = float(np.mean(aucs))
        if not 0.0 <= mean <= 1.0:
            raise ValueError(f"AUC for {kind} outside [0, 1]")
        results[kind] = {"auc_mean": mean, "auc_std": float(np.std(aucs))}
    return results


# ---------------------------------------------------------------------------
# vulnerable-record selection
# ---------------------------------------------------------------------------

def _quantile(sorted_values: np.ndarray, p: float) -> float:
    """Linear-interpolation quantile at index p*(n-1) over sorted data."""
    n = len(sorted_values)
    pos = p * (n - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)


def find_vulnerable_outlier(ds: D.TabularDataset):
    """Record with the most outlier attributes.

    Per numeric attribute, values below Q1 - (Q3 - Q1) or above
    Q3 + (Q3 - Q1) are flagged; the record with the highest flag count wins
    (ties broken by lowest index, all ties reported).
    """
    if ds.n_rows < 4:
        raise D.DataError("need at least 4 rows for quartile thresholds")
    counts = np.zeros(ds.n_rows, dtype=np.int64)
    for attr, col in zip(ds.schema.attributes, ds.columns):
        if not attr.is_numeric:
            continue
        values = col.astype(np.float64)
        s = np.sort(values)
        q1 = _quantile(s, 0.25)
        q3 = _quantile(s, 0.75)
        threshold = q3 - q1
        counts += ((q1 - values > threshold) | (values - q3 > threshold)).astype(
            np.int64
        )
    best = int(np.max(counts))
    ties = np.nonzero(counts == best)[0]
    return int(ties[0]), counts, ties.tolist()


_NN_TILE = 256  # rows and columns of one square tile of pairwise distances


def _unit_columns(block):
    """The rows scaled to unit length (all-zero rows kept) as the columns of
    a C-ordered (attributes, records) array, and the zero-row mask."""
    norms = np.linalg.norm(block, axis=1)
    zero = norms == 0.0
    unit = np.empty(block.shape[::-1])
    np.divide(block.T, np.where(zero, 1.0, norms), out=unit)
    return unit, zero


def nearest_neighbor_distances(
    cat: np.ndarray, cont: np.ndarray, w_cat: float, w_cont: float
) -> np.ndarray:
    """Per-record distance to the nearest other record.

    The metric is ``1 - w_cat*cos(cat_i, cat_j) - w_cont*cos(cont_i, cont_j)``
    with the zero-vector guard: cosine 1 against another all-zero vector,
    0 against anything else.

    The upper triangle is walked in square tiles of ``_NN_TILE`` rows
    ``[s, e)`` by columns ``[c, f)``, ``c >= s``; a tile's row minima fold
    into records ``s..e`` and its column minima into ``c..f``, so every
    product of a pair reaches both of its records and the result is exactly
    symmetric (mutual nearest records tie). Each tile is released before
    the next is made, so at most two tile-sized arrays are live at any n.
    """
    cat = np.ascontiguousarray(cat, dtype=np.float64)
    cont = np.ascontiguousarray(cont, dtype=np.float64)
    if cat.ndim != 2 or cont.ndim != 2 or cat.shape[0] != cont.shape[0]:
        raise ValueError(f"cat and cont must be 2-D with one row per record, "
                         f"got shapes {cat.shape} and {cont.shape}")
    n = cat.shape[0]
    if n < 2:
        raise ValueError("need at least 2 records")
    if cat.shape[1] == 0 and cont.shape[1] == 0:
        raise ValueError("need at least one attribute block")
    # records as columns: under OpenBLAS (2-core Xeon, 11 attributes) a tile's
    # unit[:, rows].T @ unit[:, cols] is about three times faster than the
    # same product of row-major units, u[rows] @ u[cols].T
    blocks = [(w, *_unit_columns(b)) for w, b in ((w_cat, cat), (w_cont, cont))
              if b.shape[1] > 0]
    nearest = np.full(n, np.inf)
    for s in range(0, n, _NN_TILE):
        e = min(s + _NN_TILE, n)
        for c in range(s, n, _NN_TILE):
            f = min(c + _NN_TILE, n)
            dist = np.ones((e - s, f - c))
            for w, unit, zero in blocks:
                cos = unit[:, s:e].T @ unit[:, c:f]
                # zero-vector convention: cos = 1 against another zero vector, else 0
                rows, cols = zero[s:e], zero[c:f]
                cos[rows, :] = 0.0
                cos[:, cols] = 0.0
                cos[np.ix_(rows, cols)] = 1.0
                cos *= w
                dist -= cos
                del cos
            if c == s:
                np.fill_diagonal(dist, np.inf)  # (i, i) for each row i of the tile
            np.minimum(nearest[s:e], dist.min(axis=1), out=nearest[s:e])
            np.minimum(nearest[c:f], dist.min(axis=0), out=nearest[c:f])
            del dist
    return nearest


def find_vulnerable_nn(ds: D.TabularDataset) -> int:
    """Record with the maximum nearest-neighbor distance under the mixed
    cosine metric (one-hot categorical block and raw numeric block weighted
    by their attribute counts)."""
    if ds.n_rows < 2:
        raise D.DataError("need at least 2 rows")
    attrs = ds.schema.attributes
    m, spans = _raw_matrix(ds)
    is_cat = [attr.kind == "categorical" for attr in attrs]
    cat_cols = np.repeat(is_cat, [w for _, w in spans])  # the spans tile the columns in order
    n_cat = sum(is_cat)
    dists = nearest_neighbor_distances(
        m[:, cat_cols], m[:, ~cat_cols], n_cat / len(attrs), (len(attrs) - n_cat) / len(attrs),
    )
    return int(np.argmax(dists))


def select_target(ds: D.TabularDataset, cfg: AuditConfig) -> int:
    """The audited record of ``ds``: the ``select`` rule's pick, or ``target``
    checked against the table's rows."""
    # the selectors are looked up as module globals at each call, so a
    # wrapper patched onto this module sees the selection
    if cfg.select == "outlier":
        return find_vulnerable_outlier(ds)[0]
    if cfg.select == "nn":
        return find_vulnerable_nn(ds)
    if not 0 <= cfg.target < ds.n_rows:
        raise ValueError(f"audit.target {cfg.target} is out of range for the "
                         f"{ds.n_rows} audited rows")
    return cfg.target
