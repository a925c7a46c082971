"""Random Forest classifier (Breiman 2001): bagged CART trees."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.exceptions import ModelError
from repro.ml.compiled import CompiledForest
from repro.ml.tree import DecisionTreeClassifier


@dataclass
class RandomForestClassifier:
    """An ensemble of CART trees trained on bootstrap samples.

    This mirrors the classifier the paper uses for the per-device-type
    binary models.  Each tree is grown on a bootstrap resample of the
    training set and considers a random ``sqrt(d)`` subset of features at
    every split; predictions average the trees' leaf class distributions.

    Attributes:
        n_estimators: number of trees.
        max_depth: per-tree depth limit (None = unbounded).
        min_samples_split / min_samples_leaf: per-tree split constraints.
        max_features: per-split feature subsample ("sqrt" by default).
        bootstrap: draw bootstrap resamples (True) or use the full set.
        random_state: seed controlling bootstrap draws and feature subsampling.
    """

    n_estimators: int = 10
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: Union[str, int, float, None] = "sqrt"
    bootstrap: bool = True
    random_state: Optional[int] = None

    estimators_: list[DecisionTreeClassifier] = field(default_factory=list, repr=False, compare=False)
    classes_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    n_features_: int = field(default=0, repr=False, compare=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the forest on samples ``X`` (n, d) and labels ``y`` (n,)."""
        if self.n_estimators <= 0:
            raise ModelError(f"n_estimators must be positive, got {self.n_estimators}")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(X) != len(y):
            raise ModelError(f"X and y disagree on sample count: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise ModelError("cannot fit a forest on an empty dataset")

        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        n_samples = len(X)

        # Each tree's seed and bootstrap sample come from the master
        # generator; a tree's own fit draws only from its seeded generator.
        estimators = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
                # Bootstrap resamples can miss a class entirely; redraw a few
                # times and fall back to the full set to keep the binary
                # classifiers well defined.
                for _attempt in range(5):
                    if len(np.unique(y[indices])) == len(self.classes_):
                        break
                    indices = rng.integers(0, n_samples, size=n_samples)
                else:
                    indices = np.arange(n_samples)
            else:
                indices = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            estimators.append(tree.fit(X[indices], y[indices]))
        self.estimators_ = estimators
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged class-probability estimates over all trees."""
        if not self.estimators_ or self.classes_ is None:
            raise ModelError("RandomForestClassifier.predict_proba called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        accumulated = np.zeros((len(X), len(self.classes_)), dtype=np.float64)
        for tree in self.estimators_:
            tree_probabilities = tree.predict_proba(X)
            # Trees may have seen only a subset of classes (bootstrap edge
            # case); align their columns onto the forest's class order.
            if len(tree.classes_) == len(self.classes_):
                accumulated += tree_probabilities
            else:
                column_map = np.searchsorted(self.classes_, tree.classes_)
                accumulated[:, column_map] += tree_probabilities
        return accumulated / len(self.estimators_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (majority probability)."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on the given test data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def feature_importances(self) -> np.ndarray:
        """Average split-based feature importances over the trees."""
        if not self.estimators_:
            raise ModelError("forest is not fitted")
        total = np.zeros(self.n_features_, dtype=np.float64)
        for tree in self.estimators_:
            total += tree.feature_importances()
        return total / len(self.estimators_)

    def compile(self) -> CompiledForest:
        """Flatten the fitted forest for vectorized batch prediction.

        The compiled forest's ``predict_proba`` matches the interpreted
        path bitwise (see :mod:`repro.ml.compiled`) while replacing the
        per-sample Python node walk with level-synchronous array gathers.
        """
        if not self.estimators_ or self.classes_ is None:
            raise ModelError("RandomForestClassifier.compile called before fit")
        return CompiledForest.from_estimators(
            self.estimators_, classes=self.classes_, n_features=self.n_features_
        )
