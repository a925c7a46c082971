"""CART decision tree classifier (Gini impurity, numeric features)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.exceptions import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ml.compiled import CompiledTree


@dataclass
class _Node:
    """A single tree node; leaves carry class-probability vectors."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    probabilities: Optional[np.ndarray] = None
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(
    columns: np.ndarray, y: np.ndarray, n_classes: int, min_samples_leaf: int
) -> tuple[int, float]:
    """The ``(column, threshold)`` split minimising weighted child Gini.

    ``columns`` holds a node's ``(n, k)`` candidate feature values and ``y``
    its encoded labels.  Every column is scored in one pass: one stable
    argsort of the columns, one cumulative sum of the one-hot labels
    and one impurity evaluation over every valid ``(position, column)``
    pair -- a position between two distinct values that leaves both
    children at least ``min_samples_leaf`` samples; every other position
    scores ``inf``.  Across columns, candidate order decides: a later
    column wins only if it beats the best so far by more than ``1e-12``.
    Returns ``(-1, 0.0)`` when no valid split exists.
    """
    n_samples, n_columns = columns.shape
    order = np.argsort(columns, axis=0, kind="stable")
    sorted_values = columns[order, np.arange(n_columns)]
    # Splitting after sorted position i sends the i + 1 smallest values left.
    left_sizes = np.arange(1, n_samples)[:, None]
    valid = (
        (sorted_values[1:] != sorted_values[:-1])
        & (left_sizes >= min_samples_leaf)
        & (n_samples - left_sizes >= min_samples_leaf)
    )
    valid_rows, valid_columns = np.nonzero(valid)
    # cumulative[i, j] counts each class among the i + 1 smallest values
    # of column j; its last row is the node's class counts.
    cumulative = np.cumsum(np.eye(n_classes)[y[order]], axis=0)
    left_counts = cumulative[valid_rows, valid_columns]
    right_counts = cumulative[-1, 0] - left_counts
    left = valid_rows + 1
    right = n_samples - left
    left_gini = 1.0 - np.sum((left_counts / left[:, None]) ** 2, axis=1)
    right_gini = 1.0 - np.sum((right_counts / right[:, None]) ** 2, axis=1)
    weighted = np.full(valid.shape, np.inf)
    weighted[valid_rows, valid_columns] = (left * left_gini + right * right_gini) / n_samples
    positions = np.argmin(weighted, axis=0)
    scores = weighted[positions, np.arange(n_columns)]

    best_column = -1
    best_impurity = np.inf
    for column, score in enumerate(scores.tolist()):
        if score < best_impurity - 1e-12:
            best_impurity = score
            best_column = column
    if best_column < 0:
        return -1, 0.0
    position = positions[best_column]
    threshold = (
        sorted_values[position, best_column] + sorted_values[position + 1, best_column]
    ) / 2.0
    return best_column, float(threshold)


@dataclass
class DecisionTreeClassifier:
    """A CART classification tree.

    Splits are exact threshold splits (``x <= t``) chosen to minimise the
    weighted Gini impurity of the children.  ``max_features`` limits the
    number of candidate features examined per node, which is how the Random
    Forest injects feature randomness.

    Attributes:
        max_depth: maximum tree depth (None means unbounded).
        min_samples_split: do not split nodes smaller than this.
        min_samples_leaf: minimum samples required in each child.
        max_features: number of features considered per split; ``"sqrt"``,
            ``"log2"``, an int, a float fraction, or None for all features.
        random_state: seed for the per-node feature subsampling.
    """

    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: Union[str, int, float, None] = None
    random_state: Optional[int] = None

    _root: Optional[_Node] = field(default=None, repr=False, compare=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)
    classes_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    n_features_: int = field(default=0, repr=False, compare=False)
    node_count_: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Fitting.
    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on samples ``X`` (n, d) and labels ``y`` (n,)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(X) != len(y):
            raise ModelError(f"X and y disagree on sample count: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise ModelError("cannot fit a tree on an empty dataset")

        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self.node_count_ = 0
        self._root = self._build(X, encoded.astype(np.int64))
        return self

    def _resolve_max_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if isinstance(self.max_features, str):
            if self.max_features == "sqrt":
                return max(1, int(math.sqrt(self.n_features_)))
            if self.max_features == "log2":
                return max(1, int(math.log2(self.n_features_)))
            raise ModelError(f"unknown max_features value: {self.max_features!r}")
        if isinstance(self.max_features, float):
            return max(1, min(self.n_features_, int(self.max_features * self.n_features_)))
        return max(1, min(self.n_features_, int(self.max_features)))

    def _split_candidates(self) -> np.ndarray:
        """The features one node's split search examines (draws from the RNG)."""
        n_candidates = self._resolve_max_features()
        if n_candidates < self.n_features_:
            return self._rng.choice(self.n_features_, size=n_candidates, replace=False)
        return np.arange(self.n_features_)

    def _build(self, X: np.ndarray, y: np.ndarray) -> _Node:
        """Grow the tree iteratively with an explicit stack.

        Nodes are expanded in pre-order, left child before right, exactly
        as a recursive build would, so the per-node candidate draws (and
        hence the fitted tree) do not depend on how the build is driven --
        and a tree deeper than Python's recursion limit still fits.
        """
        n_classes = len(self.classes_)
        root = _Node()
        # Nodes carry row indices into X; a split gathers only its
        # candidate columns.
        stack: list[tuple[_Node, np.ndarray, int]] = [(root, np.arange(len(y)), 0)]
        while stack:
            node, rows, depth = stack.pop()
            labels = y[rows]
            node.n_samples = n_samples = len(rows)
            self.node_count_ += 1
            counts = np.bincount(labels, minlength=n_classes)
            if (
                n_samples < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.count_nonzero(counts) == 1
            ):
                node.probabilities = counts / n_samples
                continue

            candidates = self._split_candidates()
            column, threshold = _best_split(
                X[rows[:, None], candidates], labels, n_classes, self.min_samples_leaf
            )
            if column < 0:
                node.probabilities = counts / n_samples
                continue
            feature = int(candidates[column])
            mask = X[rows, feature] <= threshold
            left_count = int(mask.sum())
            if left_count < self.min_samples_leaf or n_samples - left_count < self.min_samples_leaf:
                node.probabilities = counts / n_samples
                continue

            node.feature, node.threshold = feature, threshold
            node.left, node.right = _Node(), _Node()
            stack.append((node.right, rows[~mask], depth + 1))
            stack.append((node.left, rows[mask], depth + 1))
        return root

    # ------------------------------------------------------------------ #
    # Prediction.
    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, shape ``(n, n_classes)``."""
        if self._root is None or self.classes_ is None:
            raise ModelError("DecisionTreeClassifier.predict_proba called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"feature count mismatch: model has {self.n_features_}, input has {X.shape[1]}"
            )
        output = np.empty((len(X), len(self.classes_)), dtype=np.float64)
        for index, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            output[index] = node.probabilities
        return output

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on the given test data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    @property
    def depth(self) -> int:
        """The depth of the fitted tree (0 for a single leaf).

        Walks iteratively with an explicit stack: a pathological tree (e.g.
        one grown on adversarially ordered data with no ``max_depth``) can
        be deeper than Python's recursion limit.
        """
        if self._root is None:
            raise ModelError("tree is not fitted")
        deepest = 0
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    def feature_importances(self) -> np.ndarray:
        """Split-count based feature importances (normalised to sum to 1).

        Iterative for the same reason as :attr:`depth`: unbounded trees may
        exceed the recursion limit.
        """
        if self._root is None:
            raise ModelError("tree is not fitted")
        counts = np.zeros(self.n_features_, dtype=np.float64)
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            counts[node.feature] += node.n_samples
            stack.append(node.left)
            stack.append(node.right)
        total = counts.sum()
        return counts / total if total > 0 else counts

    def compile(self) -> "CompiledTree":
        """Flatten the fitted tree for vectorized batch prediction.

        See :mod:`repro.ml.compiled`; the compiled tree's ``predict_proba``
        is bitwise-identical to the interpreted walk.
        """
        from repro.ml.compiled import CompiledTree

        return CompiledTree.from_tree(self)
