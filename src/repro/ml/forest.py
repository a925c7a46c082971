"""Random Forest classifier (Breiman 2001): bagged CART trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.exceptions import ModelError
from repro.ml.compiled import CompiledForest, _tree_starts
from repro.ml.tree import DecisionTreeClassifier


@dataclass
class RandomForestClassifier:
    """An ensemble of CART trees trained on bootstrap samples.

    This mirrors the classifier the paper uses for the per-device-type
    binary models.  Each tree is grown on a bootstrap resample of the
    training set and considers a random ``sqrt(d)`` subset of features at
    every split; predictions average the trees' leaf class distributions.

    The classifier holds only hyperparameters: :meth:`fit` returns the
    fitted forest as a :class:`~repro.ml.compiled.CompiledForest`.

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

    def fit(self, X: np.ndarray, y: np.ndarray) -> CompiledForest:
        """Fit a forest on samples ``X`` (n, d) and labels ``y`` (n,)."""
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
        classes = np.unique(y)
        n_samples = len(X)

        # Each tree's seed and bootstrap sample come from the master
        # generator; a tree's own fit draws only from its seeded generator.
        trees = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
                # Bootstrap resamples can miss a class entirely; redraw a few
                # times and fall back to the full set, so every tree sees
                # every class and its probability columns are the forest's.
                for _attempt in range(5):
                    if len(np.unique(y[indices])) == len(classes):
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
            trees.append(tree.fit(X[indices], y[indices]))

        sizes = [tree.node_count_ for tree in trees]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        starts = _tree_starts(offsets)
        return CompiledForest(
            offsets=offsets,
            feature=np.concatenate([tree.feature_ for tree in trees]),
            threshold=np.concatenate([tree.threshold_ for tree in trees]),
            left=np.concatenate([tree.left_ for tree in trees]) + starts,
            right=np.concatenate([tree.right_ for tree in trees]) + starts,
            probabilities=np.concatenate([tree.probabilities_ for tree in trees]),
            classes_=classes,
            n_features_=X.shape[1],
        )
