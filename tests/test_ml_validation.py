"""Tests for stratified k-fold cross-validation."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.validation import StratifiedKFold


class TestStratifiedKFold:
    def test_every_sample_tested_exactly_once(self):
        labels = np.array(["a"] * 20 + ["b"] * 30)
        splitter = StratifiedKFold(n_splits=5, random_state=0)
        tested = np.zeros(len(labels), dtype=int)
        for train_indices, test_indices in splitter.split(labels):
            tested[test_indices] += 1
            assert set(train_indices) & set(test_indices) == set()
        assert np.all(tested == 1)

    def test_stratification_keeps_class_balance(self):
        labels = np.array(["a"] * 40 + ["b"] * 10)
        splitter = StratifiedKFold(n_splits=5, random_state=0)
        for _, test_indices in splitter.split(labels):
            test_labels = labels[test_indices]
            assert np.sum(test_labels == "b") == 2
            assert np.sum(test_labels == "a") == 8

    def test_number_of_folds(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        folds = list(StratifiedKFold(n_splits=3, random_state=1).split(labels))
        assert len(folds) == 3

    def test_too_few_samples(self):
        with pytest.raises(ModelError):
            list(StratifiedKFold(n_splits=10).split([0, 1]))

    def test_invalid_split_count(self):
        with pytest.raises(ModelError):
            list(StratifiedKFold(n_splits=1).split([0, 1, 2]))

    def test_deterministic_under_seed(self):
        labels = np.arange(30) % 3
        first = [test.tolist() for _, test in StratifiedKFold(5, random_state=9).split(labels)]
        second = [test.tolist() for _, test in StratifiedKFold(5, random_state=9).split(labels)]
        assert first == second

    def test_different_seeds_differ(self):
        labels = np.arange(40) % 4
        first = [test.tolist() for _, test in StratifiedKFold(5, random_state=1).split(labels)]
        second = [test.tolist() for _, test in StratifiedKFold(5, random_state=2).split(labels)]
        assert first != second
