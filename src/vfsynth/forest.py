"""Decision-forest classifier with an exact gini split search.

Bagged binary trees with per-node feature subsampling (sqrt of the feature
count), grown to purity. Each tree grows from an explicit work list: a split
node pushes its right child before its left, so nodes are numbered, and draw
their feature subsets, in preorder. Every node stores its majority class (its
leaf class once it is a leaf). Prediction is a majority vote over the trees'
leaf classes; scores are per-class vote fractions. Training is deterministic
given the stream: every tree derives its own child stream, so trees can be
built in any order.

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
    """Array-encoded binary tree; every node carries its majority class."""

    feature: np.ndarray  # (nodes,) int64, -1 at leaves
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int64 child ids
    right: np.ndarray
    leaf: np.ndarray  # (nodes,) int64 majority class (lowest id on ties)


@dataclass
class Forest:
    n_classes: int
    trees: list[Tree]


def _grow_tree(x, y, n_classes, n_feat_sub, rows, rng: RngStream) -> Tree:
    """Grow one tree to purity on the given (bootstrap) rows.

    Nodes come off a work list; a split node pushes its right child before
    its left, so node ids and feature-subset draws follow preorder.
    """
    d = x.shape[1]
    feature, threshold, left, right, leaf = [], [], [], [], []
    work = [(rows, None, -1)]  # (rows, parent's child-id list, parent)
    while work:
        idx, link, parent = work.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=n_classes)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf.append(int(np.argmax(counts)))
        if len(idx) < 2 or counts.max() == len(idx):
            continue
        feats = rng.subsample(d, min(n_feat_sub, d))
        found = best_split(x[np.ix_(idx, feats)], y_node, n_classes)
        if found is None:
            continue
        j, thresh = found
        feature[node] = int(feats[j])
        threshold[node] = thresh
        mask = x[idx, feature[node]] <= thresh
        work.append((idx[~mask], right, node))
        work.append((idx[mask], left, node))
    return Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(leaf, dtype=np.int64),
    )


def train_forest(
    x: np.ndarray, y: np.ndarray, n_classes: int, trees: int, rng: RngStream
) -> Forest:
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    if trees < 1:
        raise ValueError(f"trees must be at least 1, got {trees}")
    if y.size == 0 or y.min() == y.max():
        raise ValueError("training labels contain a single class")
    n, d = x.shape
    n_feat_sub = max(1, int(math.sqrt(d)))
    out = []
    for t in range(trees):
        stream = rng.child("tree", t)
        boot = stream.integers(0, n, size=n)
        out.append(_grow_tree(x, y, n_classes, n_feat_sub, np.sort(boot), stream))
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
    return tree.leaf[node]


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
