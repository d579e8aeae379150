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


def _block_splits(xb: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best split of each column of `xb` (n x k): gini (inf if none), threshold, valid."""
    n, k = xb.shape
    order = np.argsort(xb, axis=0, kind="stable")
    xs = np.take_along_axis(xb, order, axis=0)
    onehot = (y[order][:, :, None] == np.arange(N_CLASSES)).astype(np.float64)
    cum = onehot.cumsum(axis=0)
    # boundary b lies between sorted rows b and b + 1
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    left = cum[:-1]
    right = cum[-1] - left
    gl = 1.0 - ((left / nl[:, None, None]) ** 2).sum(axis=2)
    gr = 1.0 - ((right / nr[:, None, None]) ** 2).sum(axis=2)
    weighted = (nl[:, None] * gl + nr[:, None] * gr) / n
    valid = (xs[:-1] < xs[1:]) & ((nl >= min_leaf) & (nr >= min_leaf))[:, None]
    weighted[~valid] = np.inf
    best = weighted.argmin(axis=0)  # first minimum -> smallest threshold
    cols = np.arange(k)
    thr = 0.5 * (xs[best, cols] + xs[best + 1, cols])
    return weighted[best, cols], thr, valid.any(axis=0)


def _grow(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, rng: np.random.Generator) -> TreeNode:
    n_features = X.shape[1]
    max_features = cfg.max_features or max(1, math.floor(math.sqrt(n_features)))

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        yi = y[idx]
        counts = np.bincount(yi, minlength=N_CLASSES).astype(np.float64)
        node = TreeNode(counts)
        if (
            (counts > 0).sum() <= 1
            or len(idx) < 2 * cfg.min_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
        ):
            return node
        # Scan a random feature order block by block; stop once max_features
        # candidates produced a valid split (constant features do not count).
        perm = rng.permutation(n_features)
        Xi = X[idx]
        best = None
        found = pos = 0
        while found < max_features and pos < n_features:
            block = perm[pos : pos + max_features - found]
            pos += len(block)
            ginis, thrs, valid = _block_splits(Xi[:, block], yi, cfg.min_leaf)
            found += int(valid.sum())
            j = int(ginis.argmin())  # first minimum -> earliest in scan order
            if valid[j] and (best is None or ginis[j] < best[0]):
                best = (float(ginis[j]), int(block[j]), float(thrs[j]))
        if best is None:
            return node
        _, node.feature, node.threshold = best
        mask = Xi[:, node.feature] <= node.threshold
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(len(X)), 0)


def rf_fit(train: Dataset, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Fit a forest on the flattened reflectance features of a labeled dataset."""
    if len(train) == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    X = train.feature_matrix()
    y = train.labels_array() - 1
    seqs = seeding.seed_sequence(cfg.seed, "forest").spawn(cfg.n_trees)
    trees = []
    for seq in seqs:
        rng = np.random.Generator(np.random.PCG64(seq))
        idx = rng.integers(0, len(X), len(X))
        trees.append(DecisionTree(_grow(X[idx], y[idx], cfg, rng)))
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
