import hashlib

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


def best_split(x, y, n_classes):
    """The builder's split search, ``forest._best_cuts``, for one node holding
    each row of ``x`` once over all its columns: ``(feature, threshold)``, or
    None when no column admits a cut (fewer than two rows, no columns, or
    every column constant)."""
    n, k = x.shape
    if n < 2 or k == 0:
        return None
    feature, threshold = F._best_cuts(
        x, y, F._ranks(x), np.arange(n), np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64), np.arange(k)[None, :], n_classes,
    )
    if feature[0] < 0:
        return None
    return int(feature[0]), float(threshold[0])


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


def loop_best_split(x, y, n_classes):
    """Column-by-column scan, strict-< across columns: the exact oracle."""
    n, k = x.shape
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), y] = 1
    best_score = np.inf
    best_feat = -1
    best_thresh = 0.0
    for j in range(k):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        cum = np.cumsum(onehot[order], axis=0)
        total = cum[-1]
        nl = np.arange(1, n, dtype=np.int64)
        ssl = np.sum(cum[:-1] ** 2, axis=1)
        ssr = np.sum((total[None, :] - cum[:-1]) ** 2, axis=1)
        nr = n - nl
        score = (nl - ssl / nl) + (nr - ssr / nr)
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))
        if score[i] < best_score:
            best_score = float(score[i])
            best_feat = j
            best_thresh = 0.5 * (xs[i] + xs[i + 1])
    if best_feat < 0:
        return None
    return best_feat, float(best_thresh)


def recursive_tree(x, y, n_classes, rows, key, k):
    """Plain recursive builder, the exact oracle of the level-wise one.

    Each node keeps its bootstrap rows as a list with duplicates, splits with
    the column-by-column scan on the builder's feature draw for its key, and
    recurses left, then right; the nodes are numbered breadth-first at the end.
    """
    def grow(idx, key):
        counts = np.bincount(y[idx], minlength=n_classes)
        node = [int(np.argmax(counts)), None]
        if counts.max() == len(idx):
            return node
        feats = F._node_features(np.array([key]), x.shape[1], k)[0]
        found = loop_best_split(x[np.ix_(idx, feats)], y[idx], n_classes)
        if found is not None:
            j, thresh = found
            mask = x[idx, feats[j]] <= thresh
            lkey, rkey = F._child_keys(np.array([key]), k)
            node[1] = (int(feats[j]), thresh, grow(idx[mask], lkey[0]),
                       grow(idx[~mask], rkey[0]))
        return node

    order = [grow(np.sort(rows), key)]
    columns = ([], [], [], [], [])  # feature, threshold, left, right, leaf
    for leaf_class, split in order:  # the list grows while it is walked
        if split is None:
            cells = (-1, 0.0, -1, -1, leaf_class)
        else:
            cells = (split[0], split[1], len(order), len(order) + 1, leaf_class)
            order += [split[2], split[3]]
        for column, cell in zip(columns, cells):
            column.append(cell)
    return F.Tree(*(np.array(c, dtype=np.float64 if i == 1 else np.int64)
                    for i, c in enumerate(columns)))


def random_split_input(rng):
    """Rounded values (ties), some constant columns, 2 to 6 classes."""
    n = int(rng.integers(2, 80))
    k = int(rng.integers(1, 61))
    n_classes = int(rng.integers(2, 7))
    x = np.round(rng.normal(n, k) * 3.0, int(rng.integers(0, 3)))
    const = rng.uniform(k) < 0.2
    x[:, const] = np.round(rng.normal(), 1)
    y = rng.integers(0, n_classes, size=n)
    return x, y, n_classes


def same_split(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and np.float64(a[1]).tobytes() == np.float64(b[1]).tobytes()


class TestBestSplit:
    def test_equals_loop_oracle_bitwise(self):
        rng = RngStream(11, "oracle")
        splits = 0
        for trial in range(2000):
            x, y, c = random_split_input(rng)
            want = loop_best_split(x, y, c)
            assert same_split(best_split(x, y, c), want), trial
            splits += want is not None
        assert 1000 < splits < 2000  # some inputs have only constant columns

    def test_tie_takes_first_column_and_first_cut(self):
        # columns 0 and 2 separate the classes equally well
        x = np.array([[0.0, 5.0, 0.0], [1.0, 4.0, 1.0], [2.0, 5.0, 2.0], [3.0, 4.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        assert best_split(x, y, 2) == (0, 1.5) == loop_best_split(x, y, 2)
        # every cut of one column scores the same: the first one wins
        x1 = np.array([[0.0], [1.0], [2.0]])
        assert best_split(x1, np.array([0, 0, 0]), 2) == (0, 0.5)

    @pytest.mark.parametrize("n,k", [(0, 3), (1, 3), (1, 0), (5, 0)])
    def test_degenerate_shapes_yield_none(self, n, k):
        x = np.zeros((n, k))
        y = np.zeros(n, dtype=np.int64)
        assert best_split(x, y, 2) is None

    def test_matches_brute_force_feature_choice(self):
        rng = RngStream(5, "split")
        for trial in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 5))
            x = np.round(rng.normal(n, k), 1)  # rounded so ties occur
            y = rng.integers(0, 3, size=n)
            got = best_split(x, y, 3)
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
        assert best_split(x, y, 2) is None

    def test_perfect_split(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        j, t = best_split(x, y, 2)
        assert j == 0 and 1.0 < t < 2.0


class TestNodeFeatures:
    def test_distinct_sorted_and_uniform_over_subsets(self):
        keys = RngStream(18).integers(0, 2**63, size=24000).view(np.uint64)
        feats = F._node_features(keys, 6, 3)
        assert feats.shape == (24000, 3)
        assert np.all(feats[:, :-1] < feats[:, 1:])
        assert feats.min() == 0 and feats.max() == 5
        # all C(6, 3) = 20 subsets, each near 1/20 of the draws
        codes = (feats * np.array([36, 6, 1])).sum(axis=1)
        subsets, freq = np.unique(codes, return_counts=True)
        assert len(subsets) == 20
        assert np.all(np.abs(freq - 1200) < 150)

    def test_every_feature_when_k_is_d(self):
        keys = np.arange(5, dtype=np.uint64)
        assert np.array_equal(F._node_features(keys, 4, 4), np.tile(np.arange(4), (5, 1)))

    def test_children_keys_differ_from_parent_and_each_other(self):
        keys = RngStream(19).integers(0, 2**63, size=1000).view(np.uint64)
        lkey, rkey = F._child_keys(keys, 3)
        assert len(np.unique(np.concatenate([keys, lkey, rkey]))) == 3000


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
        boot = RngStream(2).child("bootstrap").integers(0, 4, size=(1, 4))[0]
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
                    t.leaf.copy(),
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
            assert np.array_equal(t1.leaf, t2.leaf)

    @pytest.mark.parametrize("n,d,seed", [(90, 20, 13), (150, 6, 14), (40, 60, 15)])
    def test_trees_match_recursive_oracle(self, n, d, seed):
        data = RngStream(seed, "oracle")
        x = np.round(data.normal(n, d), 1)
        y = data.integers(0, 3, size=n)
        rng = RngStream(seed, "fit")
        model = F.train_forest(x, y, 3, trees=8, rng=rng)
        k = max(1, int(np.sqrt(d)))
        boot = F._bootstrap(rng, 8, n)
        keys = F._root_keys(rng, 8)
        assert len(model.trees) == 8
        for t, got in enumerate(model.trees):
            want = recursive_tree(x, y, 3, boot[t], keys[t], k)
            for name in ("feature", "threshold", "left", "right", "leaf"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t, name)

    def test_first_trees_are_the_smaller_forest(self):
        rng = RngStream(16)
        x = np.round(rng.normal(60, 9), 1)
        y = rng.integers(0, 3, size=60)
        big = F.train_forest(x, y, 3, trees=7, rng=RngStream(17))
        small = F.train_forest(x, y, 3, trees=3, rng=RngStream(17))
        for a, b in zip(small.trees, big.trees):
            for name in ("feature", "threshold", "left", "right", "leaf"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("trees", [0, -1])
    def test_no_trees_rejected(self, trees):
        x, y = blobs(RngStream(15), n_per=5)
        with pytest.raises(ValueError, match="trees"):
            F.train_forest(x, y, 2, trees=trees, rng=RngStream(0))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            F.train_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), 2, 5, RngStream(0))

    @pytest.mark.parametrize("y", [np.zeros(4, dtype=int), np.full(4, 1), np.zeros(0, dtype=int)],
                             ids=["zeros", "ones", "empty"])
    def test_single_class_message(self, y):
        with pytest.raises(ValueError, match="^training labels contain a single class$"):
            F.train_forest(np.zeros((len(y), 2)), y, 2, 5, RngStream(0))

    def test_scores_are_vote_fractions(self):
        rng = RngStream(7)
        x, y = blobs(rng, n_per=50)
        model = F.train_forest(x, y, 2, trees=40, rng=rng.child("fit"))
        scores = F.predict_scores(model, x)
        assert np.all((scores >= 0) & (scores <= 1))
        # strongly separated data: scores near the true labels
        assert np.mean((scores > 0.5) == (y == 1)) >= 0.95

    def test_bootstrap_rows_land_in_leaves_of_their_class(self):
        # trees grow to purity, and continuous features have no duplicate
        # rows, so every in-bag row is replayed by every tree
        rng = RngStream(8)
        x, y = blobs(rng, n_per=25, sep=0.5)
        model = F.train_forest(x, y, 2, trees=5, rng=rng.child("fit"))
        boots = rng.child("fit").child("bootstrap").integers(0, len(y), size=(5, len(y)))
        for tree, boot in zip(model.trees, boots):
            assert np.array_equal(F.predict(F.Forest(2, [tree]), x[boot]), y[boot])

    def test_pinned_tree_digest(self):
        # feature/threshold/left/right and each node's majority class of
        # seeded forests on rounded (tie-heavy) three-class data
        h = hashlib.sha256()
        for seed in range(4):
            data = RngStream(seed, "digest")
            x = np.round(data.normal(150, 6), 1)
            y = data.integers(0, 3, size=150)
            model = F.train_forest(x, y, 3, trees=6, rng=RngStream(seed, "fit"))
            for t in model.trees:
                for a in (t.feature, t.threshold, t.left, t.right, t.leaf):
                    h.update(a.tobytes())
        assert h.hexdigest() == (
            "0e6fe69a1c5d5e95c92e40a80442eb532ccd1c8db7f0b8060f1eb65dc2531a89"
        )
