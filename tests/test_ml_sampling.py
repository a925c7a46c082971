"""Tests for sampling utilities (negative subsampling, splits)."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.sampling import negative_subsample, train_test_split


class TestNegativeSubsample:
    def test_ratio_10x(self):
        chosen = negative_subsample(range(1000), positive_count=20, ratio=10.0, rng=np.random.default_rng(0))
        assert len(chosen) == 200
        assert len(set(chosen.tolist())) == 200  # without replacement

    def test_returns_all_when_not_enough_negatives(self):
        chosen = negative_subsample(range(30), positive_count=20, ratio=10.0, rng=np.random.default_rng(0))
        assert sorted(chosen.tolist()) == list(range(30))

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            negative_subsample(range(10), positive_count=0, rng=rng)
        with pytest.raises(ModelError):
            negative_subsample(range(10), positive_count=5, ratio=0, rng=rng)
        with pytest.raises(ModelError):
            negative_subsample([], positive_count=5, rng=rng)

    def test_deterministic_under_seed(self):
        first = negative_subsample(range(500), 10, rng=np.random.default_rng(4)).tolist()
        second = negative_subsample(range(500), 10, rng=np.random.default_rng(4)).tolist()
        assert first == second


class TestTrainTestSplit:
    def test_disjoint_and_complete(self):
        train, test = train_test_split(40, test_fraction=0.25, rng=np.random.default_rng(0))
        assert len(train) + len(test) == 40
        assert set(train.tolist()) & set(test.tolist()) == set()

    def test_stratified_split_keeps_all_classes_in_test(self):
        labels = ["a"] * 30 + ["b"] * 10
        _, test = train_test_split(40, test_fraction=0.2, stratify=labels, rng=np.random.default_rng(0))
        test_labels = {labels[index] for index in test}
        assert test_labels == {"a", "b"}

    def test_invalid_fraction(self):
        with pytest.raises(ModelError):
            train_test_split(10, test_fraction=1.5)

    def test_too_few_samples(self):
        with pytest.raises(ModelError):
            train_test_split(1)

    def test_stratify_length_mismatch(self):
        with pytest.raises(ModelError):
            train_test_split(10, stratify=["a"] * 5)
