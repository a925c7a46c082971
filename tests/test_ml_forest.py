"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.forest import RandomForestClassifier
from tests.conftest import walk_forest_predict


def _score(forest, X, y):
    return float(np.mean(walk_forest_predict(forest, X) == np.asarray(y)))


def _dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 12)).astype(float)
    y = ((X[:, 0] + X[:, 3] + X[:, 7]) > 4).astype(int)
    return X, y


class TestFit:
    def test_accuracy_on_train(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert _score(forest, X, y) > 0.95

    def test_generalisation_beats_chance(self):
        X, y = _dataset(400)
        X_train, y_train = X[:300], y[:300]
        X_test, y_test = X[300:], y[300:]
        forest = RandomForestClassifier(n_estimators=20, random_state=1).fit(X_train, y_train)
        assert _score(forest, X_test, y_test) > 0.85

    def test_number_of_estimators(self):
        X, y = _dataset(50)
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert forest.n_estimators == 7
        assert len(forest.offsets) == 8

    def test_invalid_estimator_count(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(n_estimators=0).fit(*_dataset(20))

    def test_empty_dataset(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().fit(np.zeros((0, 4)), np.zeros(0))

    def test_string_labels(self):
        X, y_int = _dataset(80)
        y = np.where(y_int == 1, "target-type", "other")
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert set(walk_forest_predict(forest, X).tolist()) <= {"target-type", "other"}

    def test_without_bootstrap(self):
        X, y = _dataset(60)
        forest = RandomForestClassifier(n_estimators=5, bootstrap=False, random_state=0).fit(X, y)
        assert _score(forest, X, y) > 0.9

    def test_deterministic_under_seed(self):
        X, y = _dataset(100)
        probe = _dataset(30, seed=9)[0]
        first = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y)
        second = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y)
        for key, array in first.pack().items():
            assert second.pack()[key].tobytes() == array.tobytes(), key
        assert first.predict_proba(probe).tobytes() == second.predict_proba(probe).tobytes()


class TestPredict:
    def test_predict_proba_shape_and_normalisation(self):
        X, y = _dataset(100)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        probabilities = forest.predict_proba(X[:10])
        assert probabilities.shape == (10, 2)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_single_sample(self):
        X, y = _dataset(50)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert forest.predict_proba(X[0]).shape == (1, 2)
