"""Decision-forest classifier with an exact gini split search.

Bagged binary trees with per-node feature subsampling (sqrt of the feature
count), grown to purity unless a depth cap is given. Prediction is a majority
vote over the trees' leaf classes; scores are per-class vote fractions.
Training is deterministic given the stream: every tree derives its own child
stream, so trees can be built in any order.

The split search at a node scores every candidate column in one pass, in the
manner of SPRINT's presorted exact-greedy scan (Shafer et al., VLDB 1996): one
stable argsort per column, one integer cumulative sum of the class one-hots
over a (classes, columns, rows) block, the gini score of every cut of every
column, and one argmin over (column, cut) that keeps the first minimum. The
class counts are exact integers and the score is the same float expression,
so every chosen (feature, threshold), and every tree, equals that of a
column-by-column scan with strict-< across columns, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = ["Tree", "Forest", "best_split", "train_forest", "predict", "predict_scores"]


def best_split(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Best gini split over the given feature columns.

    Returns ``(feature_index, threshold)`` or ``None`` when no feature admits
    a split (all candidate columns constant, fewer than two rows or no
    columns). ``x`` is (n, k) float64, ``y`` is (n,) int64 class codes.
    Among equal scores the first cut in sorted order wins, then the lowest
    column.
    """
    n, k = x.shape
    if n < 2 or k == 0:
        return None
    # every column at once, one row per column: (k, n) sorted values and
    # (n_classes, k, n) class counts up to and including each sorted row
    xt = x.T
    order = np.argsort(xt, axis=1, kind="stable")
    xs = xt[np.arange(k)[:, None], order]
    onehot = y[order] == np.arange(n_classes)[:, None, None]
    cum = np.cumsum(onehot, axis=2, dtype=np.int64)
    left = cum[:, :, :-1]
    right = cum[:, :, -1:] - left
    nl = np.arange(1, n, dtype=np.int64)
    nr = n - nl
    ssl = np.einsum("ckn,ckn->kn", left, left)
    ssr = np.einsum("ckn,ckn->kn", right, right)
    score = (nl - ssl / nl) + (nr - ssr / nr)
    score = np.where(xs[:, :-1] < xs[:, 1:], score, np.inf)
    # the first minimum in (column, cut) order: the lowest column among the
    # best, and its first best cut
    j, i = divmod(int(np.argmin(score)), n - 1)
    if score[j, i] == np.inf:
        return None
    return j, float(0.5 * (xs[j, i] + xs[j, i + 1]))


@dataclass
class Tree:
    """Array-encoded binary tree; leaves carry a class distribution."""

    feature: np.ndarray  # (nodes,) int64, -1 at leaves
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int64 child ids
    right: np.ndarray
    leaf_dist: np.ndarray  # (nodes, n_classes), rows sum to 1 at leaves


@dataclass
class Forest:
    n_classes: int
    trees: list[Tree]


class _TreeBuilder:
    def __init__(self, x, y, n_classes, n_feat_sub, max_depth, rng):
        self.x, self.y = x, y
        self.n_classes = n_classes
        self.n_feat_sub = n_feat_sub
        self.max_depth = max_depth
        self.rng = rng
        self.feature, self.threshold = [], []
        self.left, self.right, self.dist = [], [], []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(np.zeros(self.n_classes))
        return len(self.feature) - 1

    def build(self, idx, depth) -> int:
        node = self._add_node()
        y = self.y[idx]
        counts = np.bincount(y, minlength=self.n_classes).astype(np.float64)
        self.dist[node] = counts / len(idx)
        if (
            len(idx) < 2
            or counts.max() == len(idx)
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        d = self.x.shape[1]
        feats = self.rng.subsample(d, min(self.n_feat_sub, d))
        found = best_split(self.x[np.ix_(idx, feats)], y, self.n_classes)
        if found is None:
            return node
        j, thresh = found
        feat = int(feats[j])
        mask = self.x[idx, feat] <= thresh
        self.feature[node] = feat
        self.threshold[node] = thresh
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def tree(self) -> Tree:
        return Tree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.vstack(self.dist),
        )


def train_forest(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    trees: int,
    rng: RngStream,
    max_depth: int | None = None,
) -> Forest:
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if trees < 1:
        raise ValueError(f"trees must be at least 1, got {trees}")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    n, d = x.shape
    n_feat_sub = max(1, int(math.sqrt(d)))
    out = []
    for t in range(trees):
        stream = rng.child("tree", t)
        boot = stream.integers(0, n, size=n)
        builder = _TreeBuilder(x, y, n_classes, n_feat_sub, max_depth, stream)
        builder.build(np.sort(boot), 0)
        out.append(builder.tree())
    return Forest(n_classes, out)


def _tree_leaf_classes(tree: Tree, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        cur = node[rows]
        go_left = x[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[node] >= 0
    return np.argmax(tree.leaf_dist[node], axis=1)


def _vote_counts(forest: Forest, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    votes = np.zeros((x.shape[0], forest.n_classes))
    for tree in forest.trees:
        cls = _tree_leaf_classes(tree, x)
        votes[np.arange(x.shape[0]), cls] += 1.0
    return votes


def predict(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Majority-vote class per row (ties resolve to the lowest class id)."""
    return np.argmax(_vote_counts(forest, x), axis=1)


def predict_scores(forest: Forest, x: np.ndarray, positive: int = 1) -> np.ndarray:
    """Fraction of trees voting for the given class."""
    votes = _vote_counts(forest, x)
    return votes[:, positive] / len(forest.trees)
