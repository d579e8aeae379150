"""Random forest on flattened band x step features, built from scratch.

CART trees with Gini impurity, each grown on a bootstrap resample, a random
feature subset re-drawn at every node, and midpoint thresholds between
adjacent distinct values.  Each tree owns a generator spawned deterministically
from the forest seed, so results are independent of fit/predict order.

Split search (XGBoost's column-block exact search, arXiv:1603.02754): a
node scans one permutation of the features in blocks of the next
`max_features - found` columns.  One numpy pass per block sorts every
column, accumulates class counts and scores the weighted Gini of each
boundary between distinct values with >= `min_leaf` samples per side.
Columns without such a boundary do not count; the scan stops after the
first `max_features` valid features.  Ties go to the feature scanned
first, then to the smaller threshold.

Every tree is node for node the one a plain per-feature search grows; the
work is arranged for numpy:
- A tree grows on the distinct samples its bootstrap drew, each weighted by
  its number of draws.  Copies of a sample only add boundaries inside runs
  of equal values, which never split, so every count at a valid boundary is
  the resample's own, on about a third fewer rows.
- Node-local gathers: the features are held feature-major, and a node
  gathers its samples of the block's features, then of the chosen one, and
  never copies the other features.
- Class-major scan: one cumulative sum gives the counts of each class
  present (exact integers in float64); class by class, in class order, each
  side's squared class share is added into that side's sum, the order a
  left-to-right sum over the classes adds in.  An absent class would add
  only zeros, so it is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .dataio import N_CLASSES, Dataset


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    max_features: int | None = None  # None -> floor(sqrt(n_features))
    min_leaf: int = 1
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "min_leaf", "max_features"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must not be negative, got {self.max_depth}")


@dataclass
class TreeNode:
    counts: np.ndarray                 # class counts of the node's samples
    feature: int = -1                  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


@dataclass
class DecisionTree:
    root: TreeNode

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            node = self.root
            while node.feature >= 0:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = int(node.counts.argmax())  # first max = lowest class
        return out


@dataclass
class Forest:
    trees: list[DecisionTree]
    n_features: int


def _block_splits(xt: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf: int):
    """Best split of each feature, a row of `xt` (k x n), with sample i of class
    `y[i]` counting `w[i]` times: gini (inf if none), threshold, valid."""
    k = xt.shape[0]
    order = np.argsort(xt, axis=1)  # ties in any order: no boundary lies inside a run
    cols = np.arange(k)
    xs = xt[cols[:, None], order]
    ws = w[order]
    classes = np.flatnonzero(np.bincount(y))  # an absent class would only add zeros
    cum = np.cumsum((y[order] == classes[:, None, None]) * ws, axis=2)  # exact integers
    # boundary b lies between sorted positions b and b + 1
    n = w.sum()
    nl = np.cumsum(ws, axis=1)[:, :-1]
    nr = n - nl
    # squared class shares, left (sq[0]) and right (sq[1]), summed in class order
    sq = np.empty((2,) + nl.shape)
    g = np.zeros((2,) + nl.shape)
    for cc in cum:
        np.divide(cc[:, :-1], nl, out=sq[0])
        np.subtract(cc[:, -1:], cc[:, :-1], out=sq[1])
        sq[1] /= nr
        sq *= sq
        g += sq
    weighted = (nl * (1.0 - g[0]) + nr * (1.0 - g[1])) / n  # each side's gini, weighted
    weighted[(xs[:, :-1] == xs[:, 1:]) | (np.minimum(nl, nr) < min_leaf)] = np.inf
    best = weighted.argmin(axis=1)  # first minimum -> smallest threshold
    gini = weighted[cols, best]
    thr = 0.5 * (xs[cols, best] + xs[cols, best + 1])
    return gini, thr, gini < np.inf


def _grow(XT: np.ndarray, y: np.ndarray, w: np.ndarray, cfg: ForestConfig,
          rng: np.random.Generator) -> TreeNode:
    """The tree on the samples in the columns of `XT` (features x n), sample i of
    class `y[i]` counting `w[i]` times."""
    n_features = XT.shape[0]
    max_features = cfg.max_features or max(1, math.floor(math.sqrt(n_features)))

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        yi, wi = y[idx], w[idx]
        counts = np.bincount(yi, wi, minlength=N_CLASSES)
        node = TreeNode(counts)
        if (
            (counts > 0).sum() <= 1
            or counts.sum() < 2 * cfg.min_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
        ):
            return node
        # Scan a random feature order block by block; stop once max_features
        # candidates produced a valid split (constant features do not count).
        perm = rng.permutation(n_features)
        best = None
        found = pos = 0
        while found < max_features and pos < n_features:
            block = perm[pos : pos + max_features - found]
            pos += len(block)
            xt = XT.take(block, axis=0).take(idx, axis=1)  # only the node's samples of the block
            ginis, thrs, valid = _block_splits(xt, yi, wi, cfg.min_leaf)
            found += int(valid.sum())
            j = int(ginis.argmin())  # first minimum -> earliest in scan order
            if valid[j] and (best is None or ginis[j] < best[0]):
                best = (float(ginis[j]), int(block[j]), float(thrs[j]))
        if best is None:
            return node
        _, node.feature, node.threshold = best
        mask = XT[node.feature, idx] <= node.threshold
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


def rf_fit(train: Dataset, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Fit a forest on the flattened reflectance features of a labeled dataset."""
    if len(train) == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    X = train.feature_matrix()
    XT = np.ascontiguousarray(X.T)  # feature-major: a node gathers a few features' rows
    y = train.labels_array() - 1
    seqs = seeding.seed_sequence(cfg.seed, "forest").spawn(cfg.n_trees)
    trees = []
    for seq in seqs:
        rng = np.random.Generator(np.random.PCG64(seq))
        rows, draws = np.unique(rng.integers(0, len(X), len(X)), return_counts=True)
        trees.append(DecisionTree(_grow(XT.take(rows, axis=1), y[rows], draws.astype(np.float64),
                                        cfg, rng)))
    return Forest(trees, X.shape[1])


def rf_predict(forest: Forest, samples: Dataset | np.ndarray) -> np.ndarray:
    """Majority vote over trees; returns 1-based classes, ties to lowest index."""
    X = samples.feature_matrix() if isinstance(samples, Dataset) else np.asarray(samples)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(
            f"feature matrix {X.shape} does not match training width {forest.n_features}"
        )
    votes = np.zeros((len(X), N_CLASSES), dtype=np.int64)
    for tree in forest.trees:
        pred = tree.predict(X)
        votes[np.arange(len(X)), pred] += 1
    return votes.argmax(axis=1) + 1
