"""Tests for negative subsampling."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.sampling import negative_subsample


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
