import hashlib
import math

import numpy as np
import pytest

from sslcrop import cli, seeding
from sslcrop import forest as forest_mod
from sslcrop.dataio import N_CLASSES, CropClass, Dataset, Sample
from sslcrop.forest import DecisionTree, Forest, ForestConfig, TreeNode, rf_fit, rf_predict


def dataset_from_features(X, labels):
    """One-band datasets whose flattened features equal the given matrix."""
    samples = tuple(
        Sample(f"s{i}", 2016, CropClass(y), np.asarray(row, dtype=float).reshape(1, -1))
        for i, (row, y) in enumerate(zip(X, labels))
    )
    return Dataset(samples, ("B01",), len(X[0]))


def fit_on_every_sample(train, cfg):
    """`rf_fit`'s forest, but each tree grown by `forest._grow` on all of `train`, each
    sample once, not on a bootstrap resample: the trees `rf_fit` would grow from the
    same generators."""
    X, y = train.feature_matrix(), train.labels_array() - 1
    seqs = seeding.seed_sequence(cfg.seed, "forest").spawn(cfg.n_trees)
    trees = [DecisionTree(forest_mod._grow(X.T, y, np.ones(len(X)), cfg,
                                           np.random.Generator(np.random.PCG64(seq))))
             for seq in seqs]
    return Forest(trees, X.shape[1])


class TestGini:
    """The impurity the split search scores a boundary by: each side's Gini, weighted by size."""

    def test_even_split(self):
        gini, thr, valid = forest_mod._block_splits(np.array([[1.0, 1.0, 2.0, 2.0]]),
                                                    np.array([0, 1, 0, 1]), np.ones(4, int), 1)
        assert (gini.tolist(), thr.tolist(), valid.tolist()) == ([0.5], [1.5], [True])

    def test_pure(self):
        gini, thr, _ = forest_mod._block_splits(np.array([[1.0, 1.0, 2.0, 2.0]]),
                                                np.array([0, 0, 1, 1]), np.ones(4, int), 1)
        assert (gini.tolist(), thr.tolist()) == ([0.0], [1.5])


class TestFit:
    def test_forced_split_on_single_feature(self):
        X = [[v] for v in (1.0, 2.0, 3.0, 7.0, 8.0, 9.0)]
        y = [1, 1, 1, 2, 2, 2]
        d = dataset_from_features(X, y)
        forest = fit_on_every_sample(d, ForestConfig(n_trees=5, seed=0))
        for tree in forest.trees:
            assert tree.root.feature == 0
            assert 3.0 < tree.root.threshold < 7.0
        assert np.array_equal(rf_predict(forest, d), np.array(y))

    def test_pure_class_is_single_leaf(self):
        d = dataset_from_features([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]], [4, 4, 4])
        forest = rf_fit(d, ForestConfig(n_trees=3, seed=1))
        for tree in forest.trees:
            assert tree.root.feature == -1
            assert tree.root.left is None

    def test_full_depth_fits_training_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5)) + 10.0
        y = (rng.integers(1, 7, size=40)).tolist()
        d = dataset_from_features(X.tolist(), y)
        forest = fit_on_every_sample(d, ForestConfig(n_trees=1, max_features=5, seed=2))
        assert np.array_equal(rf_predict(forest, d), np.array(y))

    def test_empty_dataset_rejected(self):
        d = Dataset((), ("B01",), 3)
        with pytest.raises(ValueError, match="empty"):
            rf_fit(d, ForestConfig(n_trees=1))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4)) + 10.0
        y = (rng.integers(1, 4, size=30)).tolist()
        d = dataset_from_features(X.tolist(), y)
        a = rf_predict(rf_fit(d, ForestConfig(n_trees=7, seed=5)), d)
        b = rf_predict(rf_fit(d, ForestConfig(n_trees=7, seed=5)), d)
        assert np.array_equal(a, b)

        def roots(seed):
            forest = rf_fit(d, ForestConfig(n_trees=7, seed=seed))
            return [(t.root.feature, t.root.threshold) for t in forest.trees]

        assert roots(5) == roots(5)
        assert roots(5) != roots(6)


class TestPredict:
    def test_single_tree_forest_uses_leaf_majority(self):
        d = dataset_from_features([[1.0], [2.0], [9.0]], [1, 1, 3])
        forest = fit_on_every_sample(d, ForestConfig(n_trees=1, seed=0))
        assert np.array_equal(rf_predict(forest, d), np.array([1, 1, 3]))

    def test_unanimous_vote(self):
        d = dataset_from_features([[1.0], [9.0]], [2, 5])
        forest = fit_on_every_sample(d, ForestConfig(n_trees=9, seed=0))
        assert np.array_equal(rf_predict(forest, d), np.array([2, 5]))

    def test_tie_breaks_to_lowest_class(self):
        # two constructed leaf-only trees voting c1 and c3 respectively
        t1 = DecisionTree(TreeNode(np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0])))
        t3 = DecisionTree(TreeNode(np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0])))
        forest = Forest([t1, t3], 1)
        assert rf_predict(forest, np.array([[0.5]]))[0] == 1

    def test_dimension_mismatch_rejected(self):
        d = dataset_from_features([[1.0, 2.0], [3.0, 4.0]], [1, 2])
        forest = rf_fit(d, ForestConfig(n_trees=1, seed=0))
        with pytest.raises(ValueError, match="width"):
            rf_predict(forest, np.zeros((2, 3)))


class TestConfig:
    def test_default_max_features_is_sqrt(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 16)) + 10.0
        y = (rng.integers(1, 3, size=20)).tolist()
        d = dataset_from_features(X.tolist(), y)
        forest = rf_fit(d, ForestConfig(n_trees=2, seed=0))
        assert forest.n_features == 16  # smoke: fit works with sqrt default

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)


# ---------------------------------------------------------------------------
# reference: the per-feature scalar split search the block search replaced


def _reference_best_split(x, y, min_leaf):
    """Best (gini, threshold) split of one feature column, or None."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    onehot = np.zeros((len(ys), N_CLASSES))
    onehot[np.arange(len(ys)), ys] = 1.0
    cum = onehot.cumsum(axis=0)
    total = cum[-1]
    n = len(ys)
    # candidate boundaries: between adjacent distinct values, honoring min_leaf
    cuts = np.nonzero(xs[:-1] < xs[1:])[0]
    cuts = cuts[(cuts + 1 >= min_leaf) & (n - cuts - 1 >= min_leaf)]
    if len(cuts) == 0:
        return None
    nl = (cuts + 1).astype(np.float64)
    nr = n - nl
    left = cum[cuts]
    right = total - left
    gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
    weighted = (nl * gl + nr * gr) / n
    best = int(weighted.argmin())  # first minimum -> smallest threshold
    thr = 0.5 * (xs[cuts[best]] + xs[cuts[best] + 1])
    return float(weighted[best]), float(thr)


def _reference_grow(X, y, cfg, rng):
    n_features = X.shape[1]
    max_features = cfg.max_features or max(1, math.floor(math.sqrt(n_features)))

    def build(idx, depth):
        counts = np.bincount(y[idx], minlength=N_CLASSES).astype(np.float64)
        node = TreeNode(counts)
        if (
            (counts > 0).sum() <= 1
            or len(idx) < 2 * cfg.min_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
        ):
            return node
        best = None
        found = 0
        for f in rng.permutation(n_features):
            res = _reference_best_split(X[idx, f], y[idx], cfg.min_leaf)
            if res is None:
                continue
            found += 1
            if best is None or res[0] < best[0]:
                best = (res[0], int(f), res[1])
            if found >= max_features:
                break
        if best is None:
            return node
        _, node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(len(X)), 0)


def _reference_fit(train, cfg):
    """`rf_fit` as first written: each tree the scalar search on its bootstrap
    resample, row for row in draw order, from the same generator."""
    X, y = train.feature_matrix(), train.labels_array() - 1
    trees = []
    for seq in seeding.seed_sequence(cfg.seed, "forest").spawn(cfg.n_trees):
        rng = np.random.Generator(np.random.PCG64(seq))
        idx = rng.integers(0, len(X), len(X))
        trees.append(DecisionTree(_reference_grow(X[idx], y[idx], cfg, rng)))
    return Forest(trees, X.shape[1])


def _nodes(node):
    """Pre-order (feature, threshold, counts) of every node of a tree."""
    out = [(node.feature, node.threshold, node.counts.tolist())]
    if node.feature >= 0:
        out += _nodes(node.left) + _nodes(node.right)
    return out


def _awkward_features(seed, n=60, n_features=9):
    """Continuous, rounded (many ties) and constant columns, mixed."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features)) * 3.0 + 20.0
    X[:, 1::3] = np.round(X[:, 1::3])
    X[:, 2] = np.round(X[:, 2] / 4.0) * 4.0
    X[:, 4] = 7.0
    X[:, 7] = 0.0
    y = rng.integers(1, 7, size=n)
    return dataset_from_features(X.tolist(), y.tolist())


class TestBlockSplitSearch:
    @pytest.mark.parametrize("max_features", [None, 1, 9])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trees_match_scalar_reference(self, seed, max_depth, min_leaf, max_features):
        d = _awkward_features(seed)
        cfg = ForestConfig(n_trees=4, max_features=max_features, min_leaf=min_leaf,
                           max_depth=max_depth, seed=seed)
        fast = rf_fit(d, cfg)
        slow = _reference_fit(d, cfg)
        assert len(fast.trees) == len(slow.trees)
        for a, b in zip(fast.trees, slow.trees):
            assert _nodes(a.root) == _nodes(b.root)
        assert np.array_equal(rf_predict(fast, d), rf_predict(slow, d))

    def test_all_constant_columns_make_a_leaf(self):
        d = dataset_from_features([[3.0, 5.0]] * 6, [1, 2, 1, 2, 1, 2])
        forest = rf_fit(d, ForestConfig(n_trees=2, max_features=1, seed=0))
        for tree in forest.trees:
            assert tree.root.feature == -1

    @pytest.mark.parametrize("case", ["min_leaf_2", "min_leaf_5", "two_samples",
                                      "two_samples_min_leaf_2", "absent_classes",
                                      "constant_block", "samples_drawn_more_than_once"])
    def test_block_matches_scalar_reference(self, case):
        """Every column's split from one block pass equals the scalar search's, bit for bit;
        a sample of multiplicity w counts as w copies of it."""
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(40, 7)) * 3.0, 1)
        X[:, 3] = 2.0
        y = rng.integers(0, N_CLASSES, size=40)
        w = np.ones(len(X), dtype=np.int64)
        min_leaf = 1
        if case.startswith("min_leaf"):
            min_leaf = int(case[-1])
        elif case.startswith("two_samples"):
            X = np.array([[1.0, 4.0, 3.0], [2.0, 4.0, -1.0]])
            y, w = np.array([5, 2]), np.ones(2, dtype=np.int64)
            min_leaf = 2 if case.endswith("2") else 1
        elif case == "absent_classes":
            y = np.array([0, 3, 5])[rng.integers(0, 3, size=40)]
        elif case == "constant_block":
            X = np.tile(np.array([3.0, -1.0, 0.0, 7.5]), (40, 1))
        elif case == "samples_drawn_more_than_once":
            w = rng.integers(1, 4, size=40)
            min_leaf = 3
        gini, thr, valid = forest_mod._block_splits(X.T, y, w, min_leaf)
        X, y = np.repeat(X, w, axis=0), np.repeat(y, w)
        for j in range(X.shape[1]):
            ref = _reference_best_split(X[:, j], y, min_leaf)
            if ref is None:
                assert not valid[j] and gini[j] == np.inf
            else:
                assert valid[j] and (float(gini[j]), float(thr[j])) == ref
        if case in ("two_samples_min_leaf_2", "constant_block"):
            assert not valid.any()
        else:
            assert valid.any()


class TestGolden:
    def test_rf_matrix_artifacts(self, tmp_path):
        """Every byte of a small rf matrix's reports and summary, as the forest grew them."""
        settings = dict(cli.DEFAULTS, methods="rf", scenarios="e1,e2,e3,e4", target_year=2018,
                        n_trees=16, synth_n=10, seed=7)
        (tmp_path / "summary.csv").write_text(cli.run_matrix(settings, tmp_path, jobs=1))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in (
            "rf_e1/report.json", "rf_e2/report.json", "rf_e3/report.json", "rf_e4/report.json",
            "summary.csv")}
        assert digests == {
            "rf_e1/report.json": "252cb3992fa3926fc15c05026fe573be3bac5b164c1e7a4a798d76815156bdb6",
            "rf_e2/report.json": "26fbf840c3997ba6bc6ff21910639a96ad3cf03fc5f080407b572168a92403b5",
            "rf_e3/report.json": "8ce4e6bf134e3b26ea2a34e94b752b7c23438f66e9b4b78236bab5ec8c9886a4",
            "rf_e4/report.json": "08eb24370532ccc8b6d9f20cb163a493c295454fdca930e07ab1b1bb8dddf380",
            "summary.csv": "a7909326ecdfdad7cf9080bd38db4a0c0b07379585d3b92650791a996fb28de5",
        }
