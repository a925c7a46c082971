"""Tests for compiled (flattened, vectorized) tree and forest inference."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.compiled import CompiledForest, ForestStack
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


def _dataset(n=200, d=12, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.7 * X[:, 1] - 0.3 * X[:, 2] > 0).astype(int)
    if classes > 2:
        y = y + (X[:, 3] > 0.8).astype(int) * 2
    return X, y


class TestCompiledTree:
    def test_equivalent_to_interpreted_on_random_inputs(self):
        X, y = _dataset()
        tree = DecisionTreeClassifier(random_state=3).fit(X, y)
        compiled = tree.compile()
        queries = np.random.default_rng(9).normal(size=(500, X.shape[1]))
        assert np.array_equal(tree.predict_proba(queries), compiled.predict_proba(queries))
        assert np.array_equal(tree.predict(queries), compiled.predict(queries))

    def test_single_leaf_tree(self):
        X = np.zeros((10, 4))
        y = np.ones(10, dtype=int)
        compiled = DecisionTreeClassifier().fit(X, y).compile()
        assert compiled.node_count == 1
        assert compiled.depth == 0
        assert np.all(compiled.predict(np.zeros((3, 4))) == 1)

    def test_depth_matches_interpreted(self):
        X, y = _dataset(400, seed=5)
        tree = DecisionTreeClassifier(random_state=5).fit(X, y)
        assert tree.compile().depth == tree.depth

    def test_compile_before_fit_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().compile()

    def test_feature_count_mismatch_raises(self):
        X, y = _dataset()
        compiled = DecisionTreeClassifier(random_state=0).fit(X, y).compile()
        with pytest.raises(ModelError):
            compiled.predict_proba(np.zeros((2, X.shape[1] + 1)))


class TestCompiledForest:
    def test_bitwise_equivalent_to_interpreted(self):
        X, y = _dataset(300, seed=1)
        forest = RandomForestClassifier(n_estimators=12, random_state=11).fit(X, y)
        compiled = forest.compile()
        queries = np.random.default_rng(2).normal(size=(800, X.shape[1]))
        assert np.array_equal(forest.predict_proba(queries), compiled.predict_proba(queries))
        assert np.array_equal(forest.predict(queries), compiled.predict(queries))

    def test_multiclass_with_class_subset_trees(self):
        # Force a tree that saw only a label subset into the ensemble (the
        # bootstrap edge case the interpreted path realigns columns for)
        # and check the compiled alignment matches it exactly.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 6))
        y = np.zeros(120, dtype=int)
        y[X[:, 0] > 0] = 1
        y[X[:, 1] > 1.0] = 2
        forest = RandomForestClassifier(n_estimators=4, random_state=4).fit(X, y)
        subset = y != 2
        partial = DecisionTreeClassifier(random_state=4).fit(X[subset], y[subset])
        forest.estimators_.append(partial)
        assert len(partial.classes_) < len(forest.classes_)
        compiled = forest.compile()
        queries = rng.normal(size=(200, 6))
        assert np.array_equal(forest.predict_proba(queries), compiled.predict_proba(queries))

    def test_string_labels(self):
        X, y_int = _dataset(150, classes=2, seed=6)
        y = np.where(y_int == 1, "camera", "plug")
        forest = RandomForestClassifier(n_estimators=5, random_state=6).fit(X, y)
        compiled = forest.compile()
        queries = np.random.default_rng(7).normal(size=(40, X.shape[1]))
        assert np.array_equal(forest.predict(queries), compiled.predict(queries))

    def test_score_and_shapes(self):
        X, y = _dataset(250, seed=8)
        forest = RandomForestClassifier(n_estimators=6, random_state=8).fit(X, y)
        compiled = forest.compile()
        assert compiled.n_estimators == 6
        assert compiled.predict_proba(X).shape == (len(X), len(forest.classes_))
        assert compiled.score(X, y) == forest.score(X, y)

    def test_compile_before_fit_raises(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().compile()


class TestForestStack:
    def test_each_forest_bitwise_equal_to_its_own_predict(self):
        # Forests over different class subsets, aligned onto one stack order.
        X, y = _dataset(classes=3, seed=2)
        forests = [
            RandomForestClassifier(n_estimators=4, random_state=seed).fit(X[keep], y[keep]).compile()
            for seed, keep in enumerate([y >= 0, y <= 1, y != 0])
        ]
        classes = np.unique(y)
        stack = ForestStack(forests=tuple(forests), classes_=classes)
        queries = np.random.default_rng(5).normal(size=(37, X.shape[1]))
        stacked = stack.predict_proba(queries)
        assert stacked.shape == (37, 3, len(classes))
        for index, forest in enumerate(forests):
            columns = np.searchsorted(classes, forest.classes_)
            own = forest.predict_proba(queries)
            assert stacked[:, index, columns].tobytes() == own.tobytes()

    def test_mismatched_forests_rejected(self):
        X, y = _dataset(classes=2)
        small = RandomForestClassifier(n_estimators=2, random_state=0).fit(X, y).compile()
        large = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y).compile()
        with pytest.raises(ModelError, match="disagree"):
            ForestStack(forests=(small, large), classes_=np.array([0, 1]))
        with pytest.raises(ModelError, match="outside"):
            ForestStack(forests=(small,), classes_=np.array([0]))


class TestPackUnpack:
    def test_roundtrip_preserves_predictions(self):
        X, y = _dataset(200, seed=10)
        compiled = RandomForestClassifier(n_estimators=7, random_state=10).fit(X, y).compile()
        restored = CompiledForest.unpack(compiled.pack())
        queries = np.random.default_rng(12).normal(size=(300, X.shape[1]))
        assert np.array_equal(compiled.predict_proba(queries), restored.predict_proba(queries))

    def test_missing_array_rejected(self):
        X, y = _dataset(80, seed=13)
        packed = RandomForestClassifier(n_estimators=3, random_state=13).fit(X, y).compile().pack()
        del packed["threshold"]
        with pytest.raises(ModelError):
            CompiledForest.unpack(packed)

    def test_inconsistent_offsets_rejected(self):
        X, y = _dataset(80, seed=14)
        packed = RandomForestClassifier(n_estimators=3, random_state=14).fit(X, y).compile().pack()
        packed["offsets"] = packed["offsets"][:-1]
        with pytest.raises(ModelError):
            CompiledForest.unpack(packed)

    def test_out_of_range_children_rejected(self):
        X, y = _dataset(80, seed=15)
        packed = RandomForestClassifier(n_estimators=2, random_state=15).fit(X, y).compile().pack()
        left = packed["left"].copy()
        inner = np.nonzero(packed["feature"] >= 0)[0]
        if len(inner):
            left[inner[0]] = 10_000
            packed["left"] = left
            with pytest.raises(ModelError):
                CompiledForest.unpack(packed)


class TestDeepTrees:
    def test_depth_and_importances_survive_deep_trees(self):
        # A monotone single-feature staircase forces one split per distinct
        # value: depth ~ n/2 with min_samples_leaf=1, far beyond what a
        # recursive walk could survive at scale.  Keep it modest but assert
        # the iterative walk agrees with the compiled layout.
        n = 600
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = (np.arange(n) % 2).astype(int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.depth >= 100
        importances = tree.feature_importances()
        assert importances.shape == (1,)
        assert importances[0] == pytest.approx(1.0)
        assert tree.compile().depth == tree.depth

    def test_deep_tree_beyond_default_recursion_limit_chunk(self):
        import sys

        limit = sys.getrecursionlimit()
        n = 700
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = (np.arange(n) % 2).astype(int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        # The stack-based walks stay flat regardless of the limit.
        sys.setrecursionlimit(120)
        try:
            assert tree.depth > 0
            assert tree.feature_importances()[0] == pytest.approx(1.0)
        finally:
            sys.setrecursionlimit(limit)
