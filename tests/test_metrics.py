from pathlib import Path

import numpy as np
import pytest

from vfsynth import data as d
from vfsynth import metrics as M
from vfsynth.config import load_config
from vfsynth.rng import RngStream


def two_pass_covariance(m):
    """Naive two-pass population covariance oracle."""
    n, k = m.shape
    mu = m.mean(axis=0)
    cov = np.zeros((k, k))
    for row in m:
        diff = row - mu
        cov += np.outer(diff, diff)
    return cov / n


def diagonal_fd(mu1, var1, mu2, var2):
    """Closed form for diagonal covariances."""
    return float(
        np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(var1) - np.sqrt(var2)) ** 2)
    )


class TestDatasetStats:
    def test_identical_rows_zero_covariance(self):
        m = np.tile([[1.0, 2.0, 3.0]], (5, 1))
        s = M.stats_from_matrix(m)
        assert np.allclose(s.cov, 0.0)

    def test_one_dimensional_pm_one(self):
        s = M.stats_from_matrix(np.array([[-1.0], [1.0]]))
        assert s.mu[0] == pytest.approx(0.0)
        assert s.cov[0, 0] == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = RngStream(1, "stats")
        for _ in range(5):
            m = rng.normal(40, 6) * 3 + 1
            s = M.stats_from_matrix(m)
            assert np.allclose(s.cov, two_pass_covariance(m), atol=1e-10)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            M.stats_from_matrix(np.ones((1, 3)))


class TestFrechetDistance:
    def test_identical_stats_zero(self):
        rng = RngStream(2, "fd")
        m = rng.normal(30, 4)
        s = M.stats_from_matrix(m)
        assert M.frechet_distance(s, s) == pytest.approx(0.0, abs=1e-8)

    def test_scalar_closed_form(self):
        s1 = M.DatasetStats(np.array([0.0]), np.array([[1.0]]))
        s2 = M.DatasetStats(np.array([1.0]), np.array([[4.0]]))
        # 1 + (1 + 4 - 2*2) = 2
        assert M.frechet_distance(s1, s2) == pytest.approx(2.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        rng = RngStream(3, "fd")
        for _ in range(20):
            k = int(rng.integers(1, 8))
            mu1, mu2 = rng.normal(k), rng.normal(k)
            v1 = rng.uniform(k) + 0.1
            v2 = rng.uniform(k) + 0.1
            s1 = M.DatasetStats(mu1, np.diag(v1))
            s2 = M.DatasetStats(mu2, np.diag(v2))
            want = diagonal_fd(mu1, v1, mu2, v2)
            assert M.frechet_distance(s1, s2) == pytest.approx(want, abs=1e-8)

    def test_symmetry(self):
        rng = RngStream(4, "fd")
        a = M.stats_from_matrix(rng.normal(50, 5))
        b = M.stats_from_matrix(rng.normal(50, 5) * 2 + 1)
        assert M.frechet_distance(a, b) == pytest.approx(
            M.frechet_distance(b, a), abs=1e-8
        )

    def test_rotation_invariance(self):
        rng = RngStream(5, "fd")
        x = rng.normal(200, 4)
        y = rng.normal(200, 4) * 1.5 + 0.3
        base = M.frechet_distance(M.stats_from_matrix(x), M.stats_from_matrix(y))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(4, 4))
            rot = M.frechet_distance(
                M.stats_from_matrix(x @ q), M.stats_from_matrix(y @ q)
            )
            assert rot == pytest.approx(base, abs=1e-6)

    def test_dimension_mismatch(self):
        s1 = M.DatasetStats(np.zeros(2), np.eye(2))
        s2 = M.DatasetStats(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            M.frechet_distance(s1, s2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_stats_rejected(self, bad):
        rng = RngStream(12, "fd")
        m = rng.normal(40, 3)
        poisoned = m.copy()
        poisoned[5, 1] = bad
        with np.errstate(invalid="ignore"):
            s_bad = M.stats_from_matrix(poisoned)
        s_ok = M.stats_from_matrix(m)
        for a, b in ((s_ok, s_bad), (s_bad, s_ok)):
            with pytest.raises(ValueError):
                M.frechet_distance(a, b)


class TestF1:
    def test_macro_f1_bounds_and_balanced_equality(self):
        y = np.array([0, 0, 1, 1])
        p = np.array([0, 1, 0, 1])  # symmetric confusion
        assert M.macro_f1(y, p) == pytest.approx(M.accuracy(y, p))

    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 1])
        assert M.macro_f1(y, y) == 1.0

    def test_all_wrong(self):
        y = np.array([0, 0, 1, 1])
        p = np.array([1, 1, 0, 0])
        assert M.macro_f1(y, p) == 0.0


def _toy_pair(n=120, seed=0):
    rng = RngStream(seed, "pair")
    schema = d.Schema(
        (
            d.Attribute("f1", "continuous"),
            d.Attribute("f2", "continuous"),
            d.Attribute("label", "categorical", ("n", "p")),
        ),
        target="label",
    )
    x = rng.normal(n, 2)
    y = (x.sum(axis=1) > 0).astype(np.int64)
    ds = d.TabularDataset(schema, (x[:, 0] + 3, x[:, 1] - 1, y))
    return ds


class TestUtilityFourway:
    def test_exact_copy_has_small_total_difference(self):
        real = _toy_pair(n=150, seed=7)
        rep = M.utility_fourway(real, real, "label", RngStream(8, "util"), trees=40)
        # the paired design: on an exact copy every regime trains the same
        # forests on the same rows, so all four equal TRTR bit for bit
        for setting in (rep.tsts, rep.trts, rep.tstr):
            assert [np.float64(v).tobytes() for v in setting] == [
                np.float64(v).tobytes() for v in rep.trtr
            ]
        assert rep.total_difference == 0.0
        assert 0.5 < rep.trtr[0] <= 1.0 and 0.0 < rep.trtr[1] <= 1.0

    def test_permuted_labels_drop_to_majority_rate(self):
        real = _toy_pair(n=200, seed=9)
        perm = RngStream(10).permutation(200)
        shuffled = d.TabularDataset(
            real.schema,
            (real.columns[0], real.columns[1], real.columns[2][perm]),
        )
        rep = M.utility_fourway(real, shuffled, "label", RngStream(11), trees=40)
        majority = max(np.bincount(real.columns[2]) / 200)
        assert rep.tstr[0] <= majority + 0.12

    def test_schema_mismatch_rejected(self):
        real = _toy_pair()
        other = d.TabularDataset(
            d.Schema(
                (
                    d.Attribute("f1", "continuous"),
                    d.Attribute("f2", "continuous"),
                    d.Attribute("label", "categorical", ("a", "b")),
                ),
                target="label",
            ),
            real.columns,
        )
        with pytest.raises(d.DataError):
            M.utility_fourway(real, other, "label", RngStream(0))

    # 9 rows left a test fold empty and its metrics NaN; no fold of a table of
    # one class can train a classifier. Both are refused before any forest.
    @pytest.mark.parametrize("table,message", [
        ("nine-rows", r"^the real table has 9 rows; the four-way evaluation needs at least 10"),
        ("one-class", r"^the real table holds the one 'quality' class '5'; the four-way "),
    ], ids=["nine-rows", "one-class"])
    def test_unscorable_table_refused_before_any_forest(self, monkeypatch, table, message):
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "winequality-red.yaml")
        wine = d.load_csv(root / cfg.dataset_path, cfg.schema)
        if table == "nine-rows":
            ds = d.subset(wine, range(9))
        else:
            cols = list(d.subset(wine, range(200)).columns)
            cols[-1] = np.full(200, cfg.schema.attributes[-1].categories.index("5"))
            ds = d.TabularDataset(cfg.schema, tuple(cols))
        monkeypatch.setattr(M, "train_forest", lambda *a, **k: pytest.fail("a forest trained"))
        with pytest.raises(d.DataError, match=message):
            M.utility_fourway(ds, ds, "quality", RngStream(0))

    def test_non_categorical_target_rejected(self):
        real = _toy_pair()
        with pytest.raises(d.DataError):
            M.utility_fourway(real, real, "f1", RngStream(0))

    # one fold trained on no rows and failed in the fold draw with a message
    # about classes; zero folds failed inside numpy
    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_refused_before_any_forest(self, monkeypatch, folds):
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "winequality-red.yaml")
        ds = d.subset(d.load_csv(root / cfg.dataset_path, cfg.schema), range(60))
        monkeypatch.setattr(M, "train_forest", lambda *a, **k: pytest.fail("a forest trained"))
        with pytest.raises(ValueError, match=rf"^folds must be >= 2, got {folds}$"):
            M.utility_fourway(ds, ds, "quality", RngStream(0), folds=folds)
