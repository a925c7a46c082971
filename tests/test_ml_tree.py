"""Tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.ml import tree as tree_module
from repro.ml.compiled import LEAF
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _best_split
from tests.conftest import oracle_tree_arrays, tree_arrays, walk_tree_predict


def _score(tree, X, y):
    return float(np.mean(walk_tree_predict(tree, X) == np.asarray(y)))


def _single_tree_forest(X, y):
    """A one-tree forest grown on the full set (the tree's scoring form)."""
    return RandomForestClassifier(
        n_estimators=1, bootstrap=False, max_features=None, random_state=0
    ).fit(X, y)


def assert_arrays_equal(expected, actual):
    assert expected.keys() == actual.keys()
    for key in expected:
        assert expected[key].dtype == actual[key].dtype, key
        assert expected[key].shape == actual[key].shape, key
        assert expected[key].tobytes() == actual[key].tobytes(), key


def _linearly_separable(n=100, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestFit:
    def test_perfect_fit_on_separable_data(self):
        X, y = _linearly_separable()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert _score(tree, X, y) >= 0.97

    def test_single_class(self):
        X = np.zeros((10, 3))
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.all(walk_tree_predict(tree, X) == 1)
        assert tree.depth == 0
        assert tree.feature_.tolist() == [LEAF]

    def test_max_depth_limits_tree(self):
        X, y = _linearly_separable(200)
        shallow = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
        assert shallow.depth <= 1
        assert deep.node_count_ >= shallow.node_count_

    def test_min_samples_leaf(self):
        X, y = _linearly_separable(40)
        tree = DecisionTreeClassifier(min_samples_leaf=10, random_state=0).fit(X, y)
        assert tree.depth <= 3

    def test_string_labels(self):
        X, y_int = _linearly_separable(60)
        y = np.where(y_int == 1, "device", "other")
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        predictions = walk_tree_predict(tree, X)
        assert set(predictions.tolist()) <= {"device", "other"}

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(150, 3))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert _score(tree, X, y) > 0.9
        assert len(tree.classes_) == 3
        assert tree.probabilities_.shape == (tree.node_count_, 3)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((0, 3)), np.zeros(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((5, 3)), np.zeros(4))

    def test_1d_input_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))


class TestPredict:
    def test_predict_proba_rows_sum_to_one(self):
        X, y = _linearly_separable()
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        leaves = tree.feature_ == LEAF
        assert tree.probabilities_.shape == (tree.node_count_, 2)
        np.testing.assert_allclose(tree.probabilities_[leaves].sum(axis=1), 1.0)
        assert not tree.probabilities_[~leaves].any()

    def test_feature_count_mismatch(self):
        X, y = _linearly_separable()
        with pytest.raises(ModelError):
            _single_tree_forest(X, y).predict_proba(np.zeros((1, 7)))

    def test_single_sample_predict(self):
        X, y = _linearly_separable()
        assert _single_tree_forest(X, y).predict_proba(X[0]).shape == (1, 2)

    def test_deterministic_under_seed(self):
        X, y = _linearly_separable(80)
        first = DecisionTreeClassifier(max_features="sqrt", random_state=5).fit(X, y)
        second = DecisionTreeClassifier(max_features="sqrt", random_state=5).fit(X, y)
        assert_arrays_equal(tree_arrays(first), tree_arrays(second))


class TestFeatureSubsampling:
    def test_sqrt_and_log2_and_fraction(self):
        X, y = _linearly_separable(60)
        for max_features in ("sqrt", "log2", 2, 0.5, None):
            tree = DecisionTreeClassifier(max_features=max_features, random_state=0).fit(X, y)
            assert _score(tree, X, y) > 0.5

    def test_unknown_string_rejected(self):
        X, y = _linearly_separable(30)
        with pytest.raises(ModelError):
            DecisionTreeClassifier(max_features="cube").fit(X, y)


# --------------------------------------------------------------------------- #
# The vectorised split search against the per-feature oracle.
# --------------------------------------------------------------------------- #


def per_feature_best_split(columns, y, n_classes, min_samples_leaf):
    """The split search one candidate column at a time (the oracle).

    Each column gets its own argsort, cumulative class counts and Gini
    evaluation over the positions between distinct values; a column
    replaces the best so far only if it beats it by more than ``1e-12``.
    """
    n_samples = len(y)
    one_hot = np.zeros((n_samples, n_classes), dtype=np.float64)
    one_hot[np.arange(n_samples), y] = 1.0

    def gini(counts, totals):
        return 1.0 - np.sum((counts / totals[:, None]) ** 2, axis=1)

    best_column, best_threshold, best_impurity = -1, 0.0, np.inf
    for column in range(columns.shape[1]):
        values = columns[:, column]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        cumulative = np.cumsum(one_hot[order], axis=0)
        boundaries = np.nonzero(sorted_values[1:] != sorted_values[:-1])[0]
        left_sizes = boundaries + 1
        valid = (left_sizes >= min_samples_leaf) & (n_samples - left_sizes >= min_samples_leaf)
        if not np.any(valid):
            continue
        boundaries, left_sizes = boundaries[valid], left_sizes[valid]
        right_sizes = n_samples - left_sizes
        left_counts = cumulative[boundaries]
        right_counts = cumulative[-1] - left_counts
        weighted = (
            left_sizes * gini(left_counts, left_sizes.astype(np.float64))
            + right_sizes * gini(right_counts, right_sizes.astype(np.float64))
        ) / n_samples
        index = int(np.argmin(weighted))
        if weighted[index] < best_impurity - 1e-12:
            best_impurity = float(weighted[index])
            best_column = column
            position = boundaries[index]
            best_threshold = float((sorted_values[position] + sorted_values[position + 1]) / 2.0)
    return best_column, best_threshold


@st.composite
def split_problems(draw):
    """Small integer-valued nodes: heavy ties, some constant columns."""
    n_samples = draw(st.integers(min_value=2, max_value=40))
    n_features = draw(st.integers(min_value=1, max_value=9))
    n_classes = draw(st.sampled_from([2, 3]))
    levels = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n_samples, n_features)).astype(np.float64)
    constant = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
    X[:, np.array(constant)] = float(levels)
    y = rng.integers(0, n_classes, size=n_samples)
    return X, y, n_classes, seed


def _candidates(n_features, max_features, seed):
    """The candidate draw of a tree node, via the production helper."""
    tree = DecisionTreeClassifier(max_features=max_features)
    tree.n_features_ = n_features
    tree._rng = np.random.default_rng(seed)
    return tree._split_candidates()


def _oracle_forest(monkeypatch, X, y, **params):
    with monkeypatch.context() as patched:
        patched.setattr(tree_module, "_best_split", per_feature_best_split)
        return RandomForestClassifier(**params).fit(X, y)


class TestVectorisedSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        split_problems(),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([None, "sqrt"]),
    )
    def test_matches_per_feature_oracle(self, problem, min_samples_leaf, max_features):
        X, y, n_classes, seed = problem
        columns = X[:, _candidates(X.shape[1], max_features, seed)]
        assert _best_split(columns, y, n_classes, min_samples_leaf) == (
            per_feature_best_split(columns, y, n_classes, min_samples_leaf)
        )
        # The array grower writes the rows the node-graph grower flattens to.
        params = dict(min_samples_leaf=min_samples_leaf, max_features=max_features, random_state=seed)
        assert_arrays_equal(
            oracle_tree_arrays(DecisionTreeClassifier(**params), X, y),
            tree_arrays(DecisionTreeClassifier(**params).fit(X, y)),
        )

    def test_no_valid_split(self):
        columns = np.ones((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert _best_split(columns, y, 2, 1) == (-1, 0.0)

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("max_features", ["sqrt", None])
    def test_forest_compiles_bitwise_equal_to_oracle_forest(
        self, monkeypatch, classes, max_features
    ):
        rng = np.random.default_rng(classes)
        X = rng.integers(0, 5, size=(150, 16)).astype(np.float64)
        X[:, 3] = 7.0
        y = (X[:, 0] + X[:, 1] + rng.integers(0, 3, size=150)) % classes
        params = dict(n_estimators=4, max_features=max_features, random_state=11)
        expected = _oracle_forest(monkeypatch, X, y, **params).pack()
        actual = RandomForestClassifier(**params).fit(X, y).pack()
        assert_arrays_equal(expected, actual)


class TestDeepBuild:
    def test_deeper_than_the_recursion_limit(self):
        # Alternating labels on one feature: every split peels off one
        # sample, so the tree is ~n deep -- beyond Python's recursion limit.
        n = 2000
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.depth >= 1000
        assert tree.node_count_ == len(tree.feature_) == 2 * n - 1
        assert _score(tree, X, y) == 1.0
