"""Decision-forest classifier with an exact gini split search.

Bagged binary trees with per-node feature subsampling (sqrt of the feature
count), grown to purity unless a depth cap is given. Prediction is a majority
vote over the trees' leaf classes; scores are per-class vote fractions.
Training is deterministic given the stream: every tree derives its own child
stream, so trees can be built in any order.
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
    a split (all candidate columns constant). ``x`` is (n, k) float64, ``y``
    is (n,) int64 class codes.
    """
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
