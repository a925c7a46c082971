"""Stratified k-fold cross-validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError


@dataclass
class StratifiedKFold:
    """Stratified k-fold splitter.

    Every fold receives approximately the same per-class sample proportions
    as the full dataset.  The paper evaluates identification with stratified
    10-fold cross-validation repeated 10 times; repetition is obtained by
    creating splitters with different ``random_state`` values.
    """

    n_splits: int = 10
    shuffle: bool = True
    random_state: Optional[int] = None

    def split(self, labels: Sequence) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) pairs."""
        labels = np.asarray(labels)
        if self.n_splits < 2:
            raise ModelError(f"n_splits must be at least 2, got {self.n_splits}")
        if len(labels) < self.n_splits:
            raise ModelError(
                f"cannot split {len(labels)} samples into {self.n_splits} folds"
            )
        rng = np.random.default_rng(self.random_state)

        fold_of_sample = np.empty(len(labels), dtype=np.int64)
        for label in np.unique(labels):
            members = np.nonzero(labels == label)[0]
            if self.shuffle:
                members = members[rng.permutation(len(members))]
            # Round-robin assignment keeps folds balanced per class.
            fold_of_sample[members] = np.arange(len(members)) % self.n_splits

        for fold in range(self.n_splits):
            test_mask = fold_of_sample == fold
            if not np.any(test_mask):
                continue
            yield np.nonzero(~test_mask)[0], np.nonzero(test_mask)[0]
