"""Tests for fitted-forest node arrays and their vectorised descent."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.compiled import LEAF, CompiledForest, ForestStack
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.conftest import (
    oracle_tree_arrays,
    tree_arrays,
    walk_forest_predict,
    walk_forest_proba,
)


def _dataset(n=200, d=12, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.7 * X[:, 1] - 0.3 * X[:, 2] > 0).astype(int)
    if classes > 2:
        y = y + (X[:, 3] > 0.8).astype(int) * 2
    return X, y


def _single_tree(X, y, random_state=0):
    """A one-tree forest on the full set: the tree's node rows, scorable."""
    return RandomForestClassifier(
        n_estimators=1, bootstrap=False, max_features=None, random_state=random_state
    ).fit(X, y)


class TestCompiledTree:
    def test_equivalent_to_interpreted_on_random_inputs(self):
        # The grown rows equal the node-graph oracle's flattening, and the
        # vectorised descent equals the per-sample walk over them.
        X, y = _dataset()
        tree = DecisionTreeClassifier(random_state=3).fit(X, y)
        expected = oracle_tree_arrays(DecisionTreeClassifier(random_state=3), X, y)
        for key, array in tree_arrays(tree).items():
            assert array.tobytes() == expected[key].tobytes(), key
        forest = _single_tree(X, y, random_state=3)
        queries = np.random.default_rng(9).normal(size=(500, X.shape[1]))
        assert forest.predict_proba(queries).tobytes() == walk_forest_proba(forest, queries).tobytes()

    def test_single_leaf_tree(self):
        X = np.zeros((10, 4))
        y = np.ones(10, dtype=int)
        forest = _single_tree(X, y)
        assert forest.node_count == 1
        assert forest.feature.tolist() == [LEAF]
        assert np.all(forest.predict_proba(np.zeros((3, 4))) == 1.0)

    def test_depth_matches_interpreted(self):
        X, y = _dataset(400, seed=5)
        tree = DecisionTreeClassifier(random_state=5).fit(X, y)
        # Depth from the rows: a child sits one level below its parent.
        depths = np.zeros(tree.node_count_, dtype=np.int64)
        for index in np.nonzero(tree.feature_ != LEAF)[0]:
            depths[tree.left_[index]] = depths[tree.right_[index]] = depths[index] + 1
        assert tree.depth == depths.max()

    def test_feature_count_mismatch_raises(self):
        X, y = _dataset()
        with pytest.raises(ModelError):
            _single_tree(X, y).predict_proba(np.zeros((2, X.shape[1] + 1)))


class TestCompiledForest:
    def test_bitwise_equivalent_to_interpreted(self):
        X, y = _dataset(300, seed=1)
        forest = RandomForestClassifier(n_estimators=12, random_state=11).fit(X, y)
        # Rows sitting exactly on a split threshold must go left (x <= t).
        thresholds = forest.threshold[forest.feature != LEAF]
        on_edges = np.repeat(thresholds[:, None], X.shape[1], axis=1)
        queries = np.vstack([np.random.default_rng(2).normal(size=(800, X.shape[1])), on_edges])
        assert forest.predict_proba(queries).tobytes() == walk_forest_proba(forest, queries).tobytes()

    def test_multiclass_with_class_subset_trees(self):
        # A class too rare for most bootstrap draws: fit redraws (or falls
        # back to the full set) until every tree has seen every class, so
        # every tree's probability columns are the forest's.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 6))
        y = np.zeros(120, dtype=int)
        y[X[:, 0] > 0] = 1
        y[7] = 2
        forest = RandomForestClassifier(n_estimators=8, random_state=4).fit(X, y)
        assert forest.classes_.tolist() == [0, 1, 2]
        leaves = forest.feature == LEAF
        for start, stop in zip(forest.offsets[:-1], forest.offsets[1:]):
            tree_leaves = forest.probabilities[start:stop][leaves[start:stop]]
            assert tree_leaves[:, 2].any()
        queries = rng.normal(size=(200, 6))
        assert forest.predict_proba(queries).tobytes() == walk_forest_proba(forest, queries).tobytes()

    def test_string_labels(self):
        X, y_int = _dataset(150, classes=2, seed=6)
        y = np.where(y_int == 1, "camera", "plug")
        forest = RandomForestClassifier(n_estimators=5, random_state=6).fit(X, y)
        assert forest.classes_.tolist() == ["camera", "plug"]
        queries = np.random.default_rng(7).normal(size=(40, X.shape[1]))
        predicted = forest.classes_[np.argmax(forest.predict_proba(queries), axis=1)]
        assert np.array_equal(predicted, walk_forest_predict(forest, queries))

    def test_score_and_shapes(self):
        X, y = _dataset(250, seed=8)
        forest = RandomForestClassifier(n_estimators=6, random_state=8).fit(X, y)
        assert forest.n_estimators == 6
        assert forest.offsets[0] == 0 and forest.offsets[-1] == forest.node_count
        assert forest.predict_proba(X).shape == (len(X), len(forest.classes_))
        assert np.mean(walk_forest_predict(forest, X) == y) > 0.9


class TestForestStack:
    def test_each_forest_bitwise_equal_to_its_own_predict(self):
        # Forests over different class subsets, aligned onto one stack order.
        X, y = _dataset(classes=3, seed=2)
        forests = [
            RandomForestClassifier(n_estimators=4, random_state=seed).fit(X[keep], y[keep])
            for seed, keep in enumerate([y >= 0, y <= 1, y != 0])
        ]
        classes = np.unique(y)
        stack = ForestStack(forests=tuple(forests), classes_=classes)
        queries = np.random.default_rng(5).normal(size=(37, X.shape[1]))
        stacked = stack.predict_proba(queries)
        assert stacked.shape == (37, 3, len(classes))
        for index, forest in enumerate(forests):
            columns = np.searchsorted(classes, forest.classes_)
            assert stacked[:, index, columns].tobytes() == forest.predict_proba(queries).tobytes()
            walked = walk_forest_proba(forest, queries)
            assert stacked[:, index, columns].tobytes() == walked.tobytes()

    def test_mismatched_forests_rejected(self):
        X, y = _dataset(classes=2)
        small = RandomForestClassifier(n_estimators=2, random_state=0).fit(X, y)
        large = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ModelError, match="disagree"):
            ForestStack(forests=(small, large), classes_=np.array([0, 1]))
        with pytest.raises(ModelError, match="outside"):
            ForestStack(forests=(small,), classes_=np.array([0]))


class TestPackUnpack:
    def test_roundtrip_preserves_predictions(self):
        X, y = _dataset(200, seed=10)
        forest = RandomForestClassifier(n_estimators=7, random_state=10).fit(X, y)
        restored = CompiledForest.unpack(forest.pack())
        for key, array in forest.pack().items():
            assert restored.pack()[key].tobytes() == array.tobytes(), key
        for name in ("offsets", "feature", "threshold", "left", "right", "probabilities"):
            assert getattr(restored, name).dtype == getattr(forest, name).dtype, name
            assert getattr(restored, name).tobytes() == getattr(forest, name).tobytes(), name
        queries = np.random.default_rng(12).normal(size=(300, X.shape[1]))
        assert np.array_equal(forest.predict_proba(queries), restored.predict_proba(queries))

    def test_missing_array_rejected(self):
        X, y = _dataset(80, seed=13)
        packed = RandomForestClassifier(n_estimators=3, random_state=13).fit(X, y).pack()
        del packed["threshold"]
        with pytest.raises(ModelError):
            CompiledForest.unpack(packed)

    def test_inconsistent_offsets_rejected(self):
        X, y = _dataset(80, seed=14)
        packed = RandomForestClassifier(n_estimators=3, random_state=14).fit(X, y).pack()
        packed["offsets"] = packed["offsets"][:-1]
        with pytest.raises(ModelError):
            CompiledForest.unpack(packed)

    def test_out_of_range_children_rejected(self):
        X, y = _dataset(80, seed=15)
        packed = RandomForestClassifier(n_estimators=2, random_state=15).fit(X, y).pack()
        left = packed["left"].copy()
        inner = np.nonzero(packed["feature"] >= 0)[0]
        if len(inner):
            left[inner[0]] = 10_000
            packed["left"] = left
            with pytest.raises(ModelError):
                CompiledForest.unpack(packed)

    def test_rows_shared_by_two_parents_rejected(self):
        # In range and after their parent, but not a tree: the root's two
        # children are one row, and its right subtree hangs from nothing.
        X, y = _dataset(80, seed=16)
        packed = RandomForestClassifier(n_estimators=2, random_state=16).fit(X, y).pack()
        assert packed["feature"][0] != LEAF
        right = packed["right"].copy()
        right[0] = packed["left"][0]
        packed["right"] = right
        with pytest.raises(ModelError, match="one tree per root"):
            CompiledForest.unpack(packed)


class TestDeepTrees:
    def test_depth_and_importances_survive_deep_trees(self):
        # A monotone single-feature staircase forces one split per distinct
        # value: depth ~ n/2 with min_samples_leaf=1, far beyond what a
        # recursive walk could survive at scale.  The iterative grower
        # still matches the node-graph oracle row for row.
        n = 600
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = (np.arange(n) % 2).astype(int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.depth >= 100
        assert np.all(tree.feature_[tree.feature_ != LEAF] == 0)
        expected = oracle_tree_arrays(DecisionTreeClassifier(random_state=0), X, y)
        for key, array in tree_arrays(tree).items():
            assert array.tobytes() == expected[key].tobytes(), key

    def test_deep_tree_beyond_default_recursion_limit_chunk(self):
        import sys

        limit = sys.getrecursionlimit()
        n = 700
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = (np.arange(n) % 2).astype(int)
        # The stack-based grower and descent stay flat regardless of the limit.
        sys.setrecursionlimit(120)
        try:
            forest = _single_tree(X, y)
            assert forest.predict_proba(X).tobytes() == np.eye(2)[y].tobytes()
        finally:
            sys.setrecursionlimit(limit)
