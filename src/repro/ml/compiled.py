"""Fitted forests as flat node arrays, scored by leaf bitmasks.

A fitted Random Forest exists in one form only: every tree's nodes
(feature index, threshold, child pointers and a per-node class-probability
matrix) stacked back to back in one array set, with ``offsets`` marking
where each tree starts.  The trees grow straight into these rows
(:mod:`repro.ml.tree`), the model store ships them
(:meth:`CompiledForest.pack` / :meth:`CompiledForest.unpack`) and the
gateway scores them.

:class:`ForestStack` fuses a bank of forests and scores them without
walking any tree, in the manner of QuickScorer (Lucchese et al., SIGIR
2015).  Each inner node owns a bitmask of its tree's leaves, numbered left
to right: the leaves of its left subtree, which a sample that goes right
can never reach.  One comparison of the batch against every inner node's
threshold, one OR of the masks of the nodes each sample goes right at, per
tree, and the sample's exit leaf is the lowest leaf left unmasked.  A call
costs the same handful of numpy operations at any batch size and tree
depth.  A single forest scores as a stack of one.

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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ModelError

#: Sentinel feature index marking a leaf row in the node arrays.
LEAF = -1

#: Leaves per word of a tree's leaf bitmask; a tree with more leaves
#: spreads its masks over several words.
_WORD = 64

#: A word with every leaf masked.
_FULL = np.uint64((1 << _WORD) - 1)

#: Cells of the ``(words x samples x inner nodes)`` mask array built per
#: chunk of samples; bounds the scoring scratch memory on huge batches.
_SCORE_BLOCK_CELLS = 1 << 20


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

    @cached_property
    def _stack(self) -> "ForestStack":
        return ForestStack(forests=(self,), classes_=self.classes_)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged class-probability estimates over all trees.

        Scored as a :class:`ForestStack` of this forest alone (built on
        the first call): leaf probabilities are summed in tree order and
        divided by the tree count, the float operations a per-sample walk
        performs.
        """
        return self._stack.predict_proba(X)[:, 0]

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
        # cyclic pointer graphs.  Every row but a root is the child of
        # exactly one inner row, so each tree's rows are one tree (the
        # leaf masks number its leaves by one walk from the root).
        starts = _tree_starts(offsets)
        own = np.arange(total, dtype=np.int64) - starts
        counts = np.diff(offsets)
        sizes = np.repeat(counts, counts)
        inner = feature != LEAF
        for child in (left, right):
            if np.any((child[inner] <= own[inner]) | (child[inner] >= sizes[inner])):
                raise ModelError("packed forest child pointers are out of range")
        children = np.concatenate([left[inner], right[inner]]) + np.tile(starts[inner], 2)
        expected = np.ones(total, dtype=np.int64)
        expected[offsets[:-1]] = 0
        if np.any(np.bincount(children, minlength=total) != expected):
            raise ModelError("packed forest rows do not form one tree per root")
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


def _leaf_ranges(
    feature: Sequence[int], left: Sequence[int], right: Sequence[int], root: int
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """One tree's leaf rows left to right, its inner rows, and their masks.

    Each inner row's mask is the ``[low, high)`` range of leaf numbers in
    its left subtree.  The walk is depth first with an explicit stack, so
    a deep tree needs no recursion.
    """
    leaves: list[int] = []
    inner: list[int] = []
    first: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        first[node] = len(leaves)
        if feature[node] == LEAF:
            leaves.append(node)
        else:
            inner.append(node)
            stack.append(right[node])
            stack.append(left[node])
    return leaves, inner, [(first[node], first[right[node]]) for node in inner]


@dataclass(frozen=True)
class ForestStack:
    """Many forests fused into one set of leaf-mask tables.

    Every forest must have the same tree and feature counts, and its
    classes must be a subset of ``classes_``, onto which its probability
    columns are aligned.  Trees are held position-major (every forest's
    first tree, then every forest's second, ...).  A sample's exit leaves
    are found as the module docstring describes; their probabilities are
    then accumulated one tree position at a time, in tree order, so each
    forest's mean is bitwise identical to a per-sample walk of its trees.

    A tree with no inner node gets one stand-in that masks nothing, so
    every tree owns at least one entry of the inner-node tables.
    """

    forests: tuple[CompiledForest, ...]
    classes_: np.ndarray

    def __post_init__(self) -> None:
        classes = np.asarray(self.classes_)
        shapes = {(forest.n_features_, forest.n_estimators) for forest in self.forests}
        if len(shapes) > 1:
            raise ModelError(f"stacked forests disagree on (features, trees): {sorted(shapes)}")
        n_features, depth = shapes.pop() if shapes else (0, 0)
        # Every forest's nodes in one array set, child pointers rebased
        # onto it, probability columns aligned onto the stack's classes.
        offsets = np.cumsum([0] + [forest.node_count for forest in self.forests])
        aligned = []
        for forest in self.forests:
            unknown = np.setdiff1d(forest.classes_, classes)
            if len(unknown):
                raise ModelError(f"stacked forest has classes outside the stack: {unknown}")
            probabilities = np.zeros((forest.node_count, len(classes)), dtype=np.float64)
            probabilities[:, np.searchsorted(classes, forest.classes_)] = forest.probabilities
            aligned.append(probabilities)

        def joined(parts: list[np.ndarray], dtype: type) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        feature = joined([forest.feature for forest in self.forests], np.int32)
        threshold = joined([forest.threshold for forest in self.forests], np.float64)
        left = joined([f.left + o for f, o in zip(self.forests, offsets)], np.int64).tolist()
        right = joined([f.right + o for f, o in zip(self.forests, offsets)], np.int64).tolist()
        rows: list[int] = []  # each inner-node entry's node row (-1: a stand-in)
        ranges: list[tuple[int, int]] = []
        tree_slots: list[int] = []
        leaf_base: list[int] = []
        leaf_rows: list[int] = []
        features = feature.tolist()
        for position in range(depth):
            for forest, offset in zip(self.forests, offsets.tolist()):
                leaves, inner, masks = _leaf_ranges(
                    features, left, right, offset + int(forest.offsets[position])
                )
                tree_slots.append(len(rows))
                leaf_base.append(len(leaf_rows))
                leaf_rows.extend(leaves)
                if not inner:
                    rows.append(-1)
                    ranges.append((0, 0))
                rows.extend(inner)
                ranges.extend(masks)
        widest = max(np.diff([*leaf_base, len(leaf_rows)]), default=0)
        words = max(1, -(-int(widest) // _WORD))
        masks = [((1 << high) - (1 << low)) for low, high in ranges]
        elimination = np.array(
            [[(mask >> (word * _WORD)) & int(_FULL) for mask in masks] for word in range(words)],
            dtype=np.uint64,
        ).reshape(words, len(masks))
        slot_rows = np.array(rows, dtype=np.intp)
        stand_in = slot_rows < 0
        set_ = object.__setattr__
        set_(self, "n_features_", n_features)
        set_(self, "_shape", (len(self.forests), depth))
        set_(self, "_feature", np.where(stand_in, 0, feature[slot_rows]).astype(np.intp))
        set_(self, "_threshold", np.where(stand_in, np.inf, threshold[slot_rows]))
        # (words, 1, inner nodes): broadcasts over a chunk's samples.
        set_(self, "_elimination", elimination[:, None, :])
        set_(self, "_tree_slots", np.array(tree_slots, dtype=np.intp))
        # Minus one: the exit leaf is the tree's base plus the trailing
        # masked leaves, which is the popcount of ``dead ^ (dead + 1)`` less one.
        set_(self, "_leaf_base", np.array(leaf_base, dtype=np.intp) - 1)
        set_(
            self,
            "_leaf_probabilities",
            joined(aligned, np.float64).reshape(-1, len(classes)).take(leaf_rows, axis=0),
        )

    def _score(self, X: np.ndarray) -> np.ndarray:
        """Per-forest mean class probabilities of one chunk of samples."""
        forests, depth = self._shape
        # ``x <= t`` goes left, so a sample goes right where that is false
        # (a NaN feature included).
        right = ~(X.take(self._feature, axis=1) <= self._threshold)
        dead = np.bitwise_or.reduceat(self._elimination * right, self._tree_slots, axis=2)
        counts = np.bitwise_count(dead ^ (dead + np.uint64(1)))
        leaf = self._leaf_base + counts[0]
        spilled = None
        for word in range(1, len(dead)):
            # A tree whose leaves so far were all masked exits in this word.
            full = dead[word - 1] == _FULL
            spilled = full if spilled is None else spilled & full
            leaf = np.where(spilled, self._leaf_base + word * _WORD + counts[word], leaf)
        # (depth, samples, forests, classes): summed along its slow first
        # axis, numpy adds tree position by tree position -- a per-sample
        # walk's additions, in its order (pairwise summation only ever
        # runs along the fast axis).
        leaves = self._leaf_probabilities.take(
            leaf.reshape(len(X), depth, forests).transpose(1, 0, 2), axis=0
        )
        accumulated = np.add.reduce(leaves, axis=0)
        accumulated /= depth
        return accumulated

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-forest mean class probabilities, shape ``(n, n_forests, n_classes)``."""
        forests, _ = self._shape
        if not forests:
            return np.zeros((len(np.atleast_2d(X)), 0, len(self.classes_)), dtype=np.float64)
        X = _checked_input(X, self.n_features_)
        chunk = max(1, _SCORE_BLOCK_CELLS // self._elimination.size)
        return np.concatenate(
            [self._score(X[start : start + chunk]) for start in range(0, max(len(X), 1), chunk)]
        )
