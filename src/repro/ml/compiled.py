"""Compiled (flattened, vectorized) inference for CART trees and forests.

The interpreted predict path walks ``_Node`` objects one sample at a time
in a Python loop, so a batch of ``n`` fingerprints against a bank of ``T``
device-type forests costs ``n x T x trees x depth`` Python iterations.
Compiling a fitted tree flattens it into contiguous numpy arrays (feature
index, threshold, child pointers and a per-node class-probability matrix)
and evaluates whole batches level by level: every iteration advances *all*
still-descending samples one level with a handful of vectorized gathers,
so the Python-loop count drops from ``n x depth`` to ``depth``.
:class:`ForestStack` goes one step further for a bank of forests: every
forest's nodes share one array set, so a whole bank descends in one loop.

The arrays are also the on-disk representation used by
:mod:`repro.identification.model_store`: a compiled forest round-trips
through :meth:`CompiledForest.pack` / :meth:`CompiledForest.unpack`
without ever rebuilding ``_Node`` objects.

Compiled predictions are bitwise-identical to the interpreted path: leaf
probability vectors are copied verbatim and the split comparison
(``x <= threshold``) is evaluated on the same float64 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exceptions import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ml.tree import DecisionTreeClassifier, _Node

#: Sentinel feature index marking a leaf row in the flattened arrays.
LEAF = -1


def _flatten_nodes(root: "_Node") -> list["_Node"]:
    """Collect every node of a tree iteratively (no recursion), preorder."""
    nodes: list["_Node"] = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            # Push right first so the left child is visited (and numbered)
            # immediately after its parent.
            stack.append(node.right)
            stack.append(node.left)
    return nodes


@dataclass(frozen=True)
class CompiledTree:
    """A fitted decision tree flattened into contiguous arrays.

    Attributes:
        feature: per-node split feature index, ``LEAF`` (-1) for leaves.
        threshold: per-node split threshold (``x <= t`` goes left).
        left / right: per-node child row indices (0 for leaves).
        probabilities: per-node class distribution; only leaf rows are read
            at predict time, inner rows are zero.
        classes_: class labels, in the column order of ``probabilities``.
        n_features_: expected input dimensionality.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probabilities: np.ndarray
    classes_: np.ndarray
    n_features_: int

    @classmethod
    def from_tree(cls, tree: "DecisionTreeClassifier") -> "CompiledTree":
        """Flatten a fitted :class:`DecisionTreeClassifier`."""
        if tree._root is None or tree.classes_ is None:
            raise ModelError("cannot compile an unfitted tree")
        nodes = _flatten_nodes(tree._root)
        index_of = {id(node): index for index, node in enumerate(nodes)}
        count = len(nodes)
        feature = np.full(count, LEAF, dtype=np.int32)
        threshold = np.zeros(count, dtype=np.float64)
        left = np.zeros(count, dtype=np.int32)
        right = np.zeros(count, dtype=np.int32)
        probabilities = np.zeros((count, len(tree.classes_)), dtype=np.float64)
        for index, node in enumerate(nodes):
            if node.is_leaf:
                probabilities[index] = node.probabilities
            else:
                feature[index] = node.feature
                threshold[index] = node.threshold
                left[index] = index_of[id(node.left)]
                right[index] = index_of[id(node.right)]
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            probabilities=probabilities,
            classes_=np.asarray(tree.classes_),
            n_features_=tree.n_features_,
        )

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def depth(self) -> int:
        """Depth of the compiled tree (0 for a single leaf), iteratively."""
        depths = np.zeros(self.node_count, dtype=np.int64)
        deepest = 0
        for index in range(self.node_count):
            if self.feature[index] == LEAF:
                deepest = max(deepest, int(depths[index]))
            else:
                depths[self.left[index]] = depths[index] + 1
                depths[self.right[index]] = depths[index] + 1
        return deepest

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Row index of the leaf each sample lands in, fully vectorized."""
        positions = np.zeros(len(X), dtype=np.int64)
        active = np.nonzero(self.feature[positions] != LEAF)[0]
        while active.size:
            current = positions[active]
            go_left = X[active, self.feature[current]] <= self.threshold[current]
            advanced = np.where(go_left, self.left[current], self.right[current])
            positions[active] = advanced
            active = active[self.feature[advanced] != LEAF]
        return positions

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, shape ``(n, n_classes)``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"feature count mismatch: model has {self.n_features_}, input has {X.shape[1]}"
            )
        return self.probabilities[self.leaf_indices(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


def _aligned_probabilities(tree: CompiledTree, classes: np.ndarray) -> np.ndarray:
    """Expand a tree's probability columns onto the forest's class order."""
    if len(tree.classes_) == len(classes) and np.array_equal(tree.classes_, classes):
        return tree.probabilities
    aligned = np.zeros((tree.node_count, len(classes)), dtype=np.float64)
    column_map = np.searchsorted(classes, tree.classes_)
    aligned[:, column_map] = tree.probabilities
    return aligned


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


@dataclass(frozen=True)
class CompiledForest:
    """A bank-ready compiled Random Forest: a tuple of compiled trees.

    Every tree's probability matrix is pre-aligned onto the forest's class
    order at compile time, so prediction is a plain sum over trees.  The
    object is immutable and holds no Python node graphs, which is what the
    model store serialises.

    On construction the per-tree node blocks are additionally merged into
    one global array set (child pointers rebased onto global rows), so
    ``predict_proba`` descends every ``(sample, tree)`` pair of a batch
    simultaneously: the Python-level loop count is the *maximum tree
    depth*, not ``n_estimators x depth``.
    """

    trees: tuple[CompiledTree, ...]
    classes_: np.ndarray
    n_features_: int

    def __post_init__(self) -> None:
        if not self.trees:
            empty = np.zeros(0, dtype=np.int64)
            for name in ("_roots", "_feature", "_threshold", "_left", "_right"):
                object.__setattr__(self, name, empty)
            object.__setattr__(self, "_probabilities", np.zeros((0, len(self.classes_))))
            return
        offsets = np.zeros(len(self.trees) + 1, dtype=np.int64)
        for index, tree in enumerate(self.trees):
            offsets[index + 1] = offsets[index] + tree.node_count
        object.__setattr__(self, "_roots", offsets[:-1])
        object.__setattr__(
            self, "_feature", np.concatenate([tree.feature for tree in self.trees])
        )
        object.__setattr__(
            self, "_threshold", np.concatenate([tree.threshold for tree in self.trees])
        )
        object.__setattr__(
            self,
            "_left",
            np.concatenate(
                [tree.left.astype(np.int64) + offset for tree, offset in zip(self.trees, offsets)]
            ),
        )
        object.__setattr__(
            self,
            "_right",
            np.concatenate(
                [tree.right.astype(np.int64) + offset for tree, offset in zip(self.trees, offsets)]
            ),
        )
        object.__setattr__(
            self, "_probabilities", np.concatenate([tree.probabilities for tree in self.trees])
        )

    @classmethod
    def from_estimators(
        cls,
        estimators: list["DecisionTreeClassifier"],
        classes: np.ndarray,
        n_features: int,
    ) -> "CompiledForest":
        """Compile a fitted estimator list (the forest's trees)."""
        if not estimators:
            raise ModelError("cannot compile a forest with no fitted trees")
        classes = np.asarray(classes)
        compiled = []
        for tree in estimators:
            flat = CompiledTree.from_tree(tree)
            compiled.append(
                CompiledTree(
                    feature=flat.feature,
                    threshold=flat.threshold,
                    left=flat.left,
                    right=flat.right,
                    probabilities=_aligned_probabilities(flat, classes),
                    classes_=classes,
                    n_features_=n_features,
                )
            )
        return cls(trees=tuple(compiled), classes_=classes, n_features_=n_features)

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    @property
    def node_count(self) -> int:
        return sum(tree.node_count for tree in self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged class-probability estimates over all trees.

        All ``(sample, tree)`` descents advance together, one tree level
        per Python iteration; leaf probabilities are then accumulated in
        tree order, which keeps the floating-point summation -- and hence
        the result -- bitwise identical to the interpreted forest.
        """
        if not self.trees:
            raise ModelError("compiled forest has no trees")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"feature count mismatch: model has {self.n_features_}, input has {X.shape[1]}"
            )
        samples = len(X)
        positions = _descend(
            self._feature, self._threshold, self._left, self._right, self._roots, X
        )
        accumulated = np.zeros((samples, len(self.classes_)), dtype=np.float64)
        for column in range(len(self.trees)):
            accumulated += self._probabilities[positions[:, column]]
        return accumulated / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (majority probability)."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on the given test data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # ------------------------------------------------------------------ #
    # Serialisation (used by the model store).
    # ------------------------------------------------------------------ #
    def pack(self) -> dict[str, np.ndarray]:
        """Concatenate all trees into a flat dict of arrays.

        The per-tree node blocks are stacked back to back; ``offsets`` has
        ``n_estimators + 1`` entries delimiting each tree's rows.  Reuses
        the merged arrays cached at construction; only the child pointers
        are stored tree-local (rebased back off the global rows) so that
        :meth:`unpack` can validate each tree independently.
        """
        offsets = np.concatenate(
            [self._roots, np.array([len(self._feature)], dtype=np.int64)]
        )
        return {
            "offsets": offsets,
            "feature": self._feature,
            "threshold": self._threshold,
            "left": np.concatenate([tree.left for tree in self.trees]),
            "right": np.concatenate([tree.right for tree in self.trees]),
            "probabilities": self._probabilities,
            "classes": np.asarray(self.classes_),
            "n_features": np.array([self.n_features_], dtype=np.int64),
        }

    @classmethod
    def unpack(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledForest":
        """Rebuild a compiled forest from :meth:`pack` output.

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
        left = np.asarray(arrays["left"], dtype=np.int32)
        right = np.asarray(arrays["right"], dtype=np.int32)
        probabilities = np.asarray(arrays["probabilities"], dtype=np.float64)
        classes = np.asarray(arrays["classes"])
        n_features = int(np.asarray(arrays["n_features"]).reshape(-1)[0])

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

        trees = []
        for index in range(len(offsets) - 1):
            start, stop = int(offsets[index]), int(offsets[index + 1])
            count = stop - start
            tree_left = left[start:stop]
            tree_right = right[start:stop]
            inner = feature[start:stop] != LEAF
            # Flattening is preorder, so every child row index is strictly
            # greater than its parent's; requiring that here also rules out
            # cyclic pointer graphs that would spin predict_proba forever.
            own = np.arange(count, dtype=np.int64)[inner]
            if np.any((tree_left[inner] <= own) | (tree_left[inner] >= count)) or np.any(
                (tree_right[inner] <= own) | (tree_right[inner] >= count)
            ):
                raise ModelError("packed forest child pointers are out of range")
            trees.append(
                CompiledTree(
                    feature=feature[start:stop],
                    threshold=threshold[start:stop],
                    left=tree_left,
                    right=tree_right,
                    probabilities=probabilities[start:stop],
                    classes_=classes,
                    n_features_=n_features,
                )
            )
        return cls(trees=tuple(trees), classes_=classes, n_features_=n_features)


@dataclass(frozen=True)
class ForestStack:
    """Many compiled forests fused into one node array set.

    A bank of per-type forests scored forest by forest pays one Python
    descent loop per forest.  The stack concatenates every forest's
    merged nodes (child pointers rebased onto stack rows, as
    :class:`CompiledForest` does for its trees) and descends every
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
            probabilities = np.zeros((len(forest._feature), len(classes)), dtype=np.float64)
            probabilities[:, np.searchsorted(classes, forest.classes_)] = forest._probabilities
            blocks.append(
                (
                    forest._feature,
                    forest._threshold,
                    forest._left + offset,
                    forest._right + offset,
                    probabilities,
                    forest._roots + offset,
                )
            )
            offset += len(forest._feature)
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
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"feature count mismatch: model has {self.n_features_}, input has {X.shape[1]}"
            )
        positions = _descend(
            self._feature, self._threshold, self._left, self._right, self._roots.ravel(), X
        ).reshape(len(X), forests, depth)
        for column in range(depth):
            accumulated += self._probabilities[positions[:, :, column]]
        return accumulated / depth
