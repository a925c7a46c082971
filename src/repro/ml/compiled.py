"""Fitted forests as flat node arrays, scored by one vectorised descent.

A fitted Random Forest exists in one form only: every tree's nodes
(feature index, threshold, child pointers and a per-node class-probability
matrix) stacked back to back in one array set, with ``offsets`` marking
where each tree starts.  The trees grow straight into these rows
(:mod:`repro.ml.tree`), the model store ships them
(:meth:`CompiledForest.pack` / :meth:`CompiledForest.unpack`) and the
gateway scores them.  :func:`_descend` advances *every* ``(sample, tree)``
pair of a batch one level per Python iteration with a handful of
vectorised gathers, so the loop count is the deepest descent, not
``n x trees x depth``.  :class:`ForestStack` fuses a bank of forests into
one array set, so a whole bank descends in one loop.

>>> import numpy as np
>>> from repro.ml.forest import RandomForestClassifier
>>> X = np.array([[0.0], [1.0], [2.0], [3.0]])
>>> forest = RandomForestClassifier(n_estimators=2, bootstrap=False, random_state=0).fit(
...     X, np.array([0, 0, 1, 1]))
>>> sorted(forest.pack())
['classes', 'feature', 'left', 'n_features', 'offsets', 'probabilities', 'right', 'threshold']
>>> forest.offsets.tolist(), forest.feature.tolist(), forest.threshold.tolist()
([0, 3, 6], [0, -1, -1, 0, -1, -1], [1.5, 0.0, 0.0, 1.5, 0.0, 0.0])
>>> forest.predict_proba(np.array([[0.5], [2.5]])).tolist()
[[1.0, 0.0], [0.0, 1.0]]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.exceptions import ModelError

#: Sentinel feature index marking a leaf row in the node arrays.
LEAF = -1


def _descend(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Leaf row of every ``(sample, root)`` descent, shape ``(n, len(roots))``.

    ``feature``/``threshold``/``left``/``right`` form one node array set
    whose child pointers are global rows.  Every pair advances one level
    per Python iteration, so the loop count is the deepest descent.
    """
    samples, width = len(X), len(roots)
    positions = np.tile(roots, samples)
    sample_of = np.repeat(np.arange(samples), width)
    active = np.nonzero(feature[positions] != LEAF)[0]
    while active.size:
        current = positions[active]
        go_left = X[sample_of[active], feature[current]] <= threshold[current]
        advanced = np.where(go_left, left[current], right[current])
        positions[active] = advanced
        active = active[feature[advanced] != LEAF]
    return positions.reshape(samples, width)


def _tree_starts(offsets: np.ndarray) -> np.ndarray:
    """Each node row's tree root row: what turns tree-local pointers global."""
    return np.repeat(offsets[:-1], np.diff(offsets))


def _checked_input(X: np.ndarray, n_features: int) -> np.ndarray:
    """``X`` as a float64 ``(n, n_features)`` batch, or ModelError."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != n_features:
        raise ModelError(
            f"feature count mismatch: model has {n_features}, input has {X.shape[1]}"
        )
    return X


@dataclass(frozen=True)
class CompiledForest:
    """A fitted Random Forest: every tree's nodes in one array set.

    Attributes:
        offsets: ``n_estimators + 1`` row boundaries; tree ``t`` owns rows
            ``offsets[t]:offsets[t + 1]`` and is rooted at ``offsets[t]``.
        feature: per-node split feature index, ``LEAF`` (-1) for leaves.
        threshold: per-node split threshold (``x <= t`` goes left).
        left / right: per-node child rows, global across the forest (a
            leaf points at its own tree's root row).
        probabilities: per-node class distribution over ``classes_``;
            only leaf rows are read, inner rows are zero.
        classes_: class labels, in the column order of ``probabilities``.
        n_features_: expected input dimensionality.
    """

    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probabilities: np.ndarray
    classes_: np.ndarray
    n_features_: int

    @property
    def n_estimators(self) -> int:
        return len(self.offsets) - 1

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged class-probability estimates over all trees.

        All ``(sample, tree)`` descents advance together, one tree level
        per Python iteration; leaf probabilities are then accumulated in
        tree order, so :class:`ForestStack` reproduces the result bitwise.
        """
        X = _checked_input(X, self.n_features_)
        positions = _descend(
            self.feature, self.threshold, self.left, self.right, self.offsets[:-1], X
        )
        accumulated = np.zeros((len(X), len(self.classes_)), dtype=np.float64)
        for column in range(self.n_estimators):
            accumulated += self.probabilities[positions[:, column]]
        return accumulated / self.n_estimators

    # ------------------------------------------------------------------ #
    # Serialisation (used by the model store).
    # ------------------------------------------------------------------ #
    def pack(self) -> dict[str, np.ndarray]:
        """The forest as a flat dict of arrays.

        Child pointers are stored tree-local (rebased off the global
        rows) so that :meth:`unpack` can validate each tree independently.
        """
        starts = _tree_starts(self.offsets)
        return {
            "offsets": self.offsets,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": (self.left - starts).astype(np.int32),
            "right": (self.right - starts).astype(np.int32),
            "probabilities": self.probabilities,
            "classes": np.asarray(self.classes_),
            "n_features": np.array([self.n_features_], dtype=np.int64),
        }

    @classmethod
    def unpack(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledForest":
        """Rebuild a forest from :meth:`pack` output.

        Validates the structural invariants (offsets, child pointers and
        feature indices in range) so that corrupt or truncated payloads are
        rejected instead of producing out-of-bounds gathers at serve time.
        """
        required = ("offsets", "feature", "threshold", "left", "right", "probabilities",
                    "classes", "n_features")
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ModelError(f"packed forest is missing arrays: {missing}")
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        feature = np.asarray(arrays["feature"], dtype=np.int32)
        threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        left = np.asarray(arrays["left"], dtype=np.int64)
        right = np.asarray(arrays["right"], dtype=np.int64)
        probabilities = np.asarray(arrays["probabilities"], dtype=np.float64)
        classes = np.asarray(arrays["classes"])
        n_features = np.asarray(arrays["n_features"]).reshape(-1)
        if len(n_features) != 1 or n_features.dtype.kind not in "iu" or n_features[0] < 0:
            raise ModelError("packed forest n_features must be one non-negative integer")
        n_features = int(n_features[0])

        total = len(feature)
        if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != total:
            raise ModelError("packed forest offsets are inconsistent with the node arrays")
        if np.any(np.diff(offsets) <= 0):
            raise ModelError("packed forest offsets must be strictly increasing")
        for name, array in (("threshold", threshold), ("left", left), ("right", right)):
            if len(array) != total:
                raise ModelError(f"packed forest array {name!r} disagrees on node count")
        if probabilities.ndim != 2 or len(probabilities) != total:
            raise ModelError("packed forest probabilities disagree on node count")
        if probabilities.shape[1] != len(classes):
            raise ModelError("packed forest probabilities disagree on class count")
        if np.any(feature >= n_features) or np.any(feature < LEAF):
            raise ModelError("packed forest references features beyond n_features")

        # Rows are preorder, so every inner node's children lie after it
        # and inside its own tree; requiring that here also rules out
        # cyclic pointer graphs that would spin the descent forever.
        starts = _tree_starts(offsets)
        own = np.arange(total, dtype=np.int64) - starts
        counts = np.diff(offsets)
        sizes = np.repeat(counts, counts)
        inner = feature != LEAF
        for child in (left, right):
            if np.any((child[inner] <= own[inner]) | (child[inner] >= sizes[inner])):
                raise ModelError("packed forest child pointers are out of range")
        return cls(
            offsets=offsets,
            feature=feature,
            threshold=threshold,
            left=left + starts,
            right=right + starts,
            probabilities=probabilities,
            classes_=classes,
            n_features_=n_features,
        )


@dataclass(frozen=True)
class ForestStack:
    """Many forests fused into one node array set.

    A bank of per-type forests scored forest by forest pays one Python
    descent loop per forest.  The stack concatenates every forest's
    nodes (child pointers rebased onto stack rows) and descends every
    ``(sample, forest, tree)`` triple of a batch together.

    Every forest must have the same tree and feature counts, and its
    classes must be a subset of ``classes_``, onto which its probability
    columns are aligned.  Leaf probabilities are then accumulated one
    tree position at a time, in tree order, so each forest's mean is
    bitwise identical to its own :meth:`CompiledForest.predict_proba`.
    """

    forests: tuple[CompiledForest, ...]
    classes_: np.ndarray

    def __post_init__(self) -> None:
        classes = np.asarray(self.classes_)
        shapes = {(forest.n_features_, forest.n_estimators) for forest in self.forests}
        if len(shapes) > 1:
            raise ModelError(f"stacked forests disagree on (features, trees): {sorted(shapes)}")
        n_features, depth = shapes.pop() if shapes else (0, 0)
        blocks: list[tuple[np.ndarray, ...]] = []
        offset = 0
        for forest in self.forests:
            unknown = np.setdiff1d(forest.classes_, classes)
            if len(unknown):
                raise ModelError(f"stacked forest has classes outside the stack: {unknown}")
            probabilities = np.zeros((forest.node_count, len(classes)), dtype=np.float64)
            probabilities[:, np.searchsorted(classes, forest.classes_)] = forest.probabilities
            blocks.append(
                (
                    forest.feature,
                    forest.threshold,
                    forest.left + offset,
                    forest.right + offset,
                    probabilities,
                    forest.offsets[:-1] + offset,
                )
            )
            offset += forest.node_count
        names = ("_feature", "_threshold", "_left", "_right", "_probabilities", "_roots")
        for index, name in enumerate(names):
            parts = [block[index] for block in blocks]
            joined = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            object.__setattr__(self, name, joined)
        object.__setattr__(self, "_roots", self._roots.reshape(len(self.forests), depth))
        object.__setattr__(self, "n_features_", n_features)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-forest mean class probabilities, shape ``(n, n_forests, n_classes)``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        forests, depth = self._roots.shape
        accumulated = np.zeros((len(X), forests, len(self.classes_)), dtype=np.float64)
        if not forests:
            return accumulated
        X = _checked_input(X, self.n_features_)
        positions = _descend(
            self._feature, self._threshold, self._left, self._right, self._roots.ravel(), X
        ).reshape(len(X), forests, depth)
        for column in range(depth):
            accumulated += self._probabilities[positions[:, :, column]]
        return accumulated / depth
