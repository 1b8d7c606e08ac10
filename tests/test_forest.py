import numpy as np
import pytest

from vfsynth import forest as F
from vfsynth.rng import RngStream


def blobs(rng, n_per=60, sep=4.0):
    a = rng.normal(n_per, 2) + np.array([0.0, 0.0])
    b = rng.normal(n_per, 2) + np.array([sep, sep])
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def brute_force_best_split(x, y, n_classes):
    """Independent O(n^2) split search used as the oracle."""
    n, k = x.shape
    best = (np.inf, None, None)
    for j in range(k):
        for t in np.unique(x[:, j])[:-1]:
            left = y[x[:, j] <= t]
            right = y[x[:, j] > t]
            score = 0.0
            for side in (left, right):
                counts = np.bincount(side, minlength=n_classes)
                score += len(side) * (1.0 - np.sum((counts / len(side)) ** 2))
            if score < best[0] - 1e-12:
                best = (score, j, t)
    return best


class TestBestSplit:
    def test_matches_brute_force_feature_choice(self):
        rng = RngStream(5, "split")
        for trial in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 5))
            x = np.round(rng.normal(n, k), 1)  # rounded so ties occur
            y = rng.integers(0, 3, size=n)
            got = F.best_split(x, y, 3)
            score, feat, thr = brute_force_best_split(x, y, 3)
            if got is None:
                assert feat is None
                continue
            gj, gt = got
            # same feature and same impurity value as the oracle's best
            left = y[x[:, gj] <= gt]
            right = y[x[:, gj] > gt]
            gscore = sum(
                len(s) * (1.0 - np.sum((np.bincount(s, minlength=3) / len(s)) ** 2))
                for s in (left, right)
            )
            assert gscore == pytest.approx(score, abs=1e-9)

    def test_constant_features_yield_none(self):
        x = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        assert F.best_split(x, y, 2) is None

    def test_perfect_split(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        j, t = F.best_split(x, y, 2)
        assert j == 0 and 1.0 < t < 2.0


class TestForest:
    def test_separable_blobs_high_accuracy(self):
        rng = RngStream(1, "blobs")
        x, y = blobs(rng)
        model = F.train_forest(x, y, 2, trees=30, rng=rng.child("fit"))
        acc = float(np.mean(F.predict(model, x) == y))
        assert acc >= 0.95

    def test_single_tree_memorizes_in_bag_duplicates(self):
        rng = RngStream(2)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        model = F.train_forest(x, y, 2, trees=1, rng=rng)
        # rows that actually appear in the bootstrap are perfectly replayed
        tree = model.trees[0]
        boot = RngStream(2, "tree", 0).integers(0, 4, size=4)
        seen = np.unique(boot)
        pred = F.predict(model, x[seen])
        assert np.array_equal(pred, y[seen])

    def test_permutation_symmetry(self):
        # permuting feature columns together with split indices leaves
        # predictions unchanged
        rng = RngStream(3)
        x, y = blobs(rng, n_per=40)
        model = F.train_forest(x, y, 2, trees=20, rng=RngStream(77))
        perm = np.array([1, 0])  # its own inverse
        permuted = F.Forest(
            model.n_classes,
            [
                F.Tree(
                    np.where(t.feature >= 0, perm[t.feature], -1),
                    t.threshold.copy(),
                    t.left.copy(),
                    t.right.copy(),
                    t.leaf_dist.copy(),
                )
                for t in model.trees
            ],
        )
        assert np.array_equal(F.predict(model, x), F.predict(permuted, x[:, perm]))

    def test_deterministic_given_stream(self):
        rng1, rng2 = RngStream(5, "f"), RngStream(5, "f")
        x, y = blobs(RngStream(6), n_per=30)
        m1 = F.train_forest(x, y, 2, trees=10, rng=rng1)
        m2 = F.train_forest(x, y, 2, trees=10, rng=rng2)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.leaf_dist, t2.leaf_dist)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            F.train_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), 2, 5, RngStream(0))

    def test_scores_are_vote_fractions(self):
        rng = RngStream(7)
        x, y = blobs(rng, n_per=50)
        model = F.train_forest(x, y, 2, trees=40, rng=rng.child("fit"))
        scores = F.predict_scores(model, x)
        assert np.all((scores >= 0) & (scores <= 1))
        # strongly separated data: scores near the true labels
        assert np.mean((scores > 0.5) == (y == 1)) >= 0.95

    def test_leaf_distributions_sum_to_one(self):
        rng = RngStream(8)
        x, y = blobs(rng, n_per=25)
        model = F.train_forest(x, y, 2, trees=5, rng=rng.child("fit"))
        for t in model.trees:
            leaves = t.feature < 0
            assert np.allclose(t.leaf_dist[leaves].sum(axis=1), 1.0)

    def test_depth_cap(self):
        rng = RngStream(9)
        x, y = blobs(rng, n_per=50, sep=0.5)  # overlapping -> deep trees if uncapped
        model = F.train_forest(x, y, 2, trees=3, rng=rng.child("fit"), max_depth=2)
        for t in model.trees:
            assert len(t.feature) <= 2 ** 3 - 1
