"""Decision-forest classifier with an exact gini split search.

Bagged binary trees with per-node feature subsampling (k = floor(sqrt(d)) of
the d feature columns), grown to purity. Every node stores its majority class
(the lowest class on ties; its leaf class once it is a leaf). Nodes are
numbered breadth-first: the root is 0, then each depth's children in the order
of their parents, left before right. Prediction is a majority vote over the
trees' leaf classes, every row routed through every tree at once; scores are
per-class vote fractions. The same ``(x, y, trees, rng)`` always gives the
same forest.

Random draws. ``train_forest`` reads two children of its stream:

* ``rng.child("bootstrap")`` draws every tree's bootstrap rows in one
  (trees, n) call, row t for tree t;
* ``rng.child("features")`` draws one 64-bit key per tree, its root's key.
  A node's key seeds a splitmix64 sequence: outputs 1..k draw the node's k
  features without replacement (Floyd's algorithm, sorted ascending), and
  outputs k+1 and k+2 are its left and right children's keys.

A node's feature subset is thus keyed by its place in its tree (its path from
the root), not by the order in which nodes grow, and both draws run tree-major,
so the first t trees of a forest are the forest of t trees.

Level-wise growth. All trees grow together, one depth per pass, in the manner
of SPRINT (Shafer et al., VLDB 1996) and the exact greedy builder of XGBoost
(Chen & Guestrin, KDD 2016). Each tree holds its bootstrap as its distinct rows
with their multiplicities. One pass over the open nodes of a depth:

1. one weighted bincount gives every node's class counts, so its majority
   class and whether it is pure;
2. the impure nodes draw their feature subsets;
3. their rows go, whole nodes at a time, to chunks of about ``_CHUNK``
   (row, drawn column) elements, so that no per-depth array outgrows
   O(open nodes x k x rows), and a chunk's arrays stay within about 128 KiB
   unless one node alone has more elements;
4. in a chunk, one argsort of (node, drawn column, dense rank of the value)
   orders every (node, column) group of rows by value, the ranks being
   computed once per forest;
5. integer cumulative sums along every group give each cut's left weight
   ``nl`` and ``ssl``, the sum of the left class counts squared; the right
   side's ``ssr`` follows from the node's class totals; every cut between two
   distinct values scores ``(nl - ssl/nl) + (nr - ssr/nr)``;
6. a segmented argmin takes each node's lowest score, then its lowest feature,
   then its first cut, with the midpoint of the values on either side as the
   threshold;
7. the split nodes' children are numbered, and every row moves to its child.

The weighted counts are the counts over the bootstrap multiset and the score is
the same float expression, so every tree equals the one a plain recursive
builder grows with a column-by-column scan, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = ["Tree", "Forest", "train_forest", "predict", "predict_scores"]

_CHUNK = 1 << 13  # (row, drawn column) elements per split-search call
_GAMMA, _MIX1, _MIX2 = (
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)


def _splitmix(keys: np.ndarray, i) -> np.ndarray:
    """Output(s) i of the splitmix64 sequence seeded by each (uint64) key."""
    z = keys + np.asarray(i, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _node_features(keys: np.ndarray, d: int, k: int) -> np.ndarray:
    """(nodes, k) distinct features out of range(d) per node key, ascending."""
    # Floyd: draw i is uniform on [0, top], top = d - k + i, and is replaced
    # by top itself when an earlier draw took it
    top = np.arange(d - k, d)
    u = (_splitmix(keys[:, None], np.arange(1, k + 1)) >> np.uint64(11)) * 2.0**-53
    picked = (u * (top + 1)).astype(np.int64)
    for i in range(1, k):
        taken = (picked[:, :i] == picked[:, i, None]).any(axis=1)
        picked[taken, i] = top[i]
    return np.sort(picked, axis=1)


def _child_keys(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) children's keys of nodes drawing k features."""
    return _splitmix(keys, k + 1), _splitmix(keys, k + 2)


def _bootstrap(rng: RngStream, trees: int, n: int) -> np.ndarray:
    """Every tree's bootstrap rows, (trees, n), in one draw."""
    return rng.child("bootstrap").integers(0, n, size=(trees, n))


def _root_keys(rng: RngStream, trees: int) -> np.ndarray:
    """Every tree's root key, (trees,) uint64, in one draw."""
    return rng.child("features").integers(0, 2**63, size=trees).view(np.uint64)


def _ranks(x: np.ndarray) -> np.ndarray:
    """(n, d) dense ranks: each value's place among its column's distinct
    values, so equal values share a rank."""
    order = np.argsort(x.T, axis=1)
    xs = np.take_along_axis(x.T, order, axis=1)
    dense = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, out=dense[:, 1:])
    rank = np.empty_like(dense)
    np.put_along_axis(rank, order, dense, axis=1)
    return np.ascontiguousarray(rank.T)


def _segment_cumsum(v: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Inclusive cumulative sum along the last axis of int64 ``v``, restarting
    at every ``start`` (the first is 0; no segment empty). Overwrites ``v``."""
    total = np.add.reduceat(v, start, axis=-1)
    v[..., start[1:]] -= total[..., :-1]
    return np.cumsum(v, axis=-1, out=v)


def _best_cuts(x, y, rank, row, weight, node, feats, n_classes):
    """Best gini cut of every node over its own feature columns.

    Node i holds the distinct rows ``row[node == i]`` with multiplicities
    ``weight``, at least two of them; ``feats`` is (nodes, k) ascending.
    Returns per node the chosen feature (-1 where no column admits a cut)
    and threshold (0.0 there).
    """
    n, d = x.shape
    m, k = feats.shape
    size = np.bincount(node, minlength=m)
    cls = node * n_classes + y[row]  # flat (node, class) index
    counts = np.bincount(cls, weights=weight, minlength=m * n_classes)
    counts = counts.astype(np.int64).reshape(m, n_classes)
    # one element per (row, drawn slot), sorted by (node, slot, value rank);
    # equal keys hold equal values, so their order changes no count at a cut
    col = np.take(feats, node, axis=0)  # (rows, k)
    key = np.take(rank, (row * d)[:, None] + col)
    key += (node * (k * n))[:, None] + np.arange(0, k * n, n)
    order = np.argsort(key, axis=None)
    key = np.take(key, order)
    w = np.repeat(weight, k)[order]
    # left-side weight and class counts at every position of every (node,
    # slot) group; the right side's from the node's totals T, by
    # sum_c (T_c - L_c)^2 = sum T^2 - 2 sum_c T_c L_c + sum L^2, where
    # sum_c T_c L_c accumulates w * T_y
    group = np.repeat(size, k)
    start = np.cumsum(group) - group
    left = np.zeros((n_classes, len(w)), dtype=np.int64)
    left.ravel()[np.repeat(y[row] * len(w), k)[order] + np.arange(len(w))] = w
    ssl = np.einsum("cp,cp->p", *(_segment_cumsum(left, start),) * 2)
    del left
    cross = _segment_cumsum(np.repeat(weight * np.take(counts, cls), k)[order], start)
    nl = _segment_cumsum(w, start)
    span = k * size
    nr = np.repeat(counts.sum(axis=1), span) - nl
    ssr = np.repeat(np.einsum("ic,ic->i", counts, counts), span) - 2 * cross + ssl
    del cross
    # a cut lies between two distinct values of one group; a group's last
    # position (nr == 0) is never one
    cut = np.empty(len(w), dtype=bool)
    np.less(key[:-1], key[1:], out=cut[:-1])
    cut[start + group - 1] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(cut, (nl - ssl / nl) + (nr - ssr / nr), np.inf)
    # per node the first minimum: its lowest slot (feature), then first cut
    first = np.cumsum(span) - span
    best = np.minimum.reduceat(score, first)
    pos = np.arange(len(w))
    i = np.minimum.reduceat(
        np.where(score == np.repeat(best, span), pos, len(w)), first
    )
    ok = best < np.inf
    feature = np.where(ok, np.take(col, order[i]), -1)
    threshold = np.zeros(m)
    lo, hi = order[i[ok]] // k, order[i[ok] + 1] // k
    threshold[ok] = 0.5 * (np.take(x, row[lo] * d + feature[ok])
                           + np.take(x, row[hi] * d + feature[ok]))
    return feature, threshold


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
    k = min(max(1, int(math.sqrt(d))), d)
    rank = _ranks(x)
    # each tree's distinct bootstrap rows and their multiplicities
    mult = np.bincount(
        (np.arange(trees)[:, None] * n + _bootstrap(rng, trees, n)).ravel(),
        minlength=trees * n,
    )
    sample = np.flatnonzero(mult)
    seg, row = np.divmod(sample, n)  # seg: each row's open node
    weight = mult[sample]
    # the open nodes of the current depth, in (tree, id) order
    node_tree = np.arange(trees)
    node_id = np.zeros(trees, dtype=np.int64)
    node_key = _root_keys(rng, trees)
    count = np.ones(trees, dtype=np.int64)  # nodes numbered so far per tree
    levels = []
    while len(node_tree):
        m = len(node_tree)
        counts = np.bincount(
            seg * n_classes + y[row], weights=weight, minlength=m * n_classes
        ).reshape(m, n_classes)
        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.zeros(m)
        impure = np.flatnonzero(counts.max(axis=1) < counts.sum(axis=1))
        if len(impure) and k:
            slot = np.full(m, -1, dtype=np.int64)
            slot[impure] = np.arange(len(impure))
            keep = slot[seg] >= 0
            row, weight, node = row[keep], weight[keep], slot[seg[keep]]
            seg = seg[keep]
            feats = _node_features(node_key[impure], d, k)
            # whole nodes in chunks of about _CHUNK elements (k per row)
            end = np.cumsum(np.bincount(node, minlength=len(impure)))
            bounds = np.flatnonzero(np.diff(k * end // _CHUNK)) + 1
            for a, b in zip([0, *bounds], [*bounds, len(impure)]):
                lo, hi = end[a - 1] if a else 0, end[b - 1]
                feature[impure[a:b]], threshold[impure[a:b]] = _best_cuts(
                    x, y, rank, row[lo:hi], weight[lo:hi], node[lo:hi] - a,
                    feats[a:b], n_classes,
                )
        split = np.flatnonzero(feature >= 0)
        tree = node_tree[split]
        per_tree = np.bincount(tree, minlength=trees)
        left = np.full(m, -1, dtype=np.int64)
        left[split] = count[tree] + 2 * (
            np.arange(len(split)) - (np.cumsum(per_tree) - per_tree)[tree]
        )
        right = np.where(left >= 0, left + 1, -1)
        count += 2 * per_tree
        levels.append((node_tree, node_id, feature, threshold, left, right,
                       np.argmax(counts, axis=1)))
        # the rows of split nodes move to their children, numbered in order
        child = np.full(m, -1, dtype=np.int64)
        child[split] = 2 * np.arange(len(split))
        keep = child[seg] >= 0
        row, weight, seg = row[keep], weight[keep], seg[keep]
        seg = child[seg] + ~(np.take(x, row * d + feature[seg]) <= threshold[seg])
        order = np.argsort(seg)
        row, weight, seg = row[order], weight[order], seg[order]
        node_tree = np.repeat(tree, 2)
        node_id = np.column_stack([left[split], right[split]]).ravel()
        node_key = np.column_stack(_child_keys(node_key[split], k)).ravel()
    # scatter every node to its tree's block at its id
    tree, ids, *columns = (np.concatenate(c) for c in zip(*levels))
    offset = np.cumsum(count) - count
    at = offset[tree] + ids
    bounds = list(zip(offset.tolist(), (offset + count).tolist()))
    parts = []
    for c in columns:
        full = np.empty_like(c)
        full[at] = c
        parts.append([full[lo:hi] for lo, hi in bounds])
    return Forest(n_classes, [Tree(*arrays) for arrays in zip(*parts)])


def _vote_counts(forest: Forest, x: np.ndarray) -> np.ndarray:
    """(rows, classes) votes, every row routed through every tree at once."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    trees = forest.trees
    size = np.array([len(t.feature) for t in trees])
    offset = np.cumsum(size) - size
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + o for t, o in zip(trees, offset)])
    right = np.concatenate([t.right + o for t, o in zip(trees, offset)])
    leaf = np.concatenate([t.leaf for t in trees])
    n = x.shape[0]
    node = np.repeat(offset, n)
    row = np.tile(np.arange(n), len(trees))
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        cur = node[live]
        go_left = x[row[live], feature[cur]] <= threshold[cur]
        node[live] = nxt = np.where(go_left, left[cur], right[cur])
        live = live[feature[nxt] >= 0]
    c = forest.n_classes
    return np.bincount(row * c + leaf[node], minlength=n * c).reshape(n, c)


def predict(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Majority-vote class per row (ties resolve to the lowest class id)."""
    return np.argmax(_vote_counts(forest, x), axis=1)


def predict_scores(forest: Forest, x: np.ndarray, positive: int = 1) -> np.ndarray:
    """Fraction of trees voting for the given class."""
    votes = _vote_counts(forest, x)
    return votes[:, positive] / len(forest.trees)
