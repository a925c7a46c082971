"""CART decision tree classifier (Gini impurity, numeric features)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.exceptions import ModelError
from repro.ml.compiled import LEAF


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
    """A CART classification tree, grown straight into node arrays.

    Splits are exact threshold splits (``x <= t``) chosen to minimise the
    weighted Gini impurity of the children.  ``max_features`` limits the
    number of candidate features examined per node, which is how the Random
    Forest injects feature randomness.

    A fitted tree is its node arrays, one row per node in preorder (a
    left child right after its parent): ``feature_`` (``LEAF`` on leaves),
    ``threshold_`` (``x <= t`` goes left), tree-local child rows
    ``left_``/``right_`` (0 on leaves) and ``probabilities_``, the class
    distribution of leaf rows (inner rows are zero).  These are the rows
    :class:`~repro.ml.compiled.CompiledForest` concatenates, descends and
    packs.

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

    _rng: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)
    classes_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    n_features_: int = field(default=0, repr=False, compare=False)
    node_count_: int = field(default=0, repr=False, compare=False)
    feature_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    threshold_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    left_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    right_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    probabilities_: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _depth: int = field(default=0, repr=False, compare=False)

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
        self._build(X, encoded.astype(np.int64))
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

    def _build(self, X: np.ndarray, y: np.ndarray) -> None:
        """Grow the tree iteratively with an explicit stack.

        Nodes are expanded in preorder, left child before right, exactly
        as a recursive build would, so the per-node candidate draws (and
        hence the fitted tree) do not depend on how the build is driven --
        and a tree deeper than Python's recursion limit still fits.  A
        node takes the next array row as it is popped and sets its
        parent's child pointer then.
        """
        n_classes = len(self.classes_)
        inner = np.zeros(n_classes)
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        probabilities: list[np.ndarray] = []
        deepest = 0
        # Nodes carry row indices into X, their depth, and their parent's
        # row in the child-pointer list (left or right) that names them;
        # the root names itself in a throwaway list.
        stack: list[tuple[np.ndarray, int, int, list[int]]] = [(np.arange(len(y)), 0, 0, [0])]
        while stack:
            rows, depth, parent, pointers = stack.pop()
            index = len(feature)
            pointers[parent] = index
            deepest = max(deepest, depth)
            left.append(0)
            right.append(0)
            labels = y[rows]
            counts = np.bincount(labels, minlength=n_classes)
            split = self._split(X, rows, labels, counts, depth)
            if split is None:
                feature.append(LEAF)
                threshold.append(0.0)
                probabilities.append(counts / len(rows))
                continue
            chosen, value, mask = split
            feature.append(chosen)
            threshold.append(value)
            probabilities.append(inner)
            stack.append((rows[~mask], depth + 1, index, right))
            stack.append((rows[mask], depth + 1, index, left))

        self.feature_ = np.array(feature, dtype=np.int32)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.left_ = np.array(left, dtype=np.int32)
        self.right_ = np.array(right, dtype=np.int32)
        self.probabilities_ = np.array(probabilities, dtype=np.float64)
        self.node_count_ = len(feature)
        self._depth = deepest

    def _split(
        self, X: np.ndarray, rows: np.ndarray, labels: np.ndarray, counts: np.ndarray, depth: int
    ) -> Optional[tuple[int, float, np.ndarray]]:
        """A node's ``(feature, threshold, goes-left mask)``, or None for a leaf."""
        n_samples = len(rows)
        if (
            n_samples < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) == 1
        ):
            return None
        candidates = self._split_candidates()
        column, threshold = _best_split(
            X[rows[:, None], candidates], labels, len(counts), self.min_samples_leaf
        )
        if column < 0:
            return None
        feature = int(candidates[column])
        mask = X[rows, feature] <= threshold
        left_count = int(mask.sum())
        if left_count < self.min_samples_leaf or n_samples - left_count < self.min_samples_leaf:
            return None
        return feature, threshold, mask

    @property
    def depth(self) -> int:
        """The depth of the fitted tree (0 for a single leaf)."""
        if self.feature_ is None:
            raise ModelError("tree is not fitted")
        return self._depth
