"""Sampling utilities: negative subsampling and train/test splits."""

from __future__ import annotations

from typing import Optional, Sequence

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


def train_test_split(
    n_samples: int,
    test_fraction: float = 0.25,
    stratify: Optional[Sequence] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (optionally stratified) train/test index split."""
    if not 0 < test_fraction < 1:
        raise ModelError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n_samples < 2:
        raise ModelError("train_test_split requires at least two samples")
    # repro-lint: disable=no-unseeded-rng -- documented exploratory default: callers wanting reproducible draws pass their own seeded generator
    rng = rng or np.random.default_rng()

    if stratify is None:
        permutation = rng.permutation(n_samples)
        test_size = max(1, int(round(test_fraction * n_samples)))
        return np.sort(permutation[test_size:]), np.sort(permutation[:test_size])

    labels = np.asarray(stratify)
    if len(labels) != n_samples:
        raise ModelError("stratify labels must match n_samples")
    test_indices: list[int] = []
    for label in np.unique(labels):
        members = np.nonzero(labels == label)[0]
        members = members[rng.permutation(len(members))]
        take = max(1, int(round(test_fraction * len(members))))
        test_indices.extend(members[:take].tolist())
    test = np.array(sorted(test_indices))
    mask = np.ones(n_samples, dtype=bool)
    mask[test] = False
    return np.nonzero(mask)[0], test
