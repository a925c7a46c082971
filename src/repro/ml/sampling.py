"""Sampling utilities: negative subsampling for the per-type classifiers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ModelError


def negative_subsample(
    negative_indices: Sequence[int],
    positive_count: int,
    ratio: float = 10.0,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Select a bounded random subset of negative samples.

    The paper trains each per-type classifier with all ``n`` fingerprints of
    the target type as the positive class and ``10 * n`` randomly selected
    fingerprints of other types as the negative class, to avoid imbalanced
    class learning issues.  ``ratio`` is that multiplier.
    """
    if positive_count <= 0:
        raise ModelError("positive_count must be positive")
    if ratio <= 0:
        raise ModelError("ratio must be positive")
    negatives = np.asarray(list(negative_indices))
    if len(negatives) == 0:
        raise ModelError("no negative samples available")
    target = int(round(ratio * positive_count))
    if target >= len(negatives):
        return negatives.copy()
    chosen = rng.choice(len(negatives), size=target, replace=False)
    return negatives[chosen]
