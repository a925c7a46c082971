"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.metrics import confusion_matrix, per_class_accuracy


class TestAccuracy:
    def test_perfect(self):
        assert per_class_accuracy([1, 2, 3], [1, 2, 3]) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_partial(self):
        accuracy = per_class_accuracy(["a", "a", "b", "b"], ["a", "b", "x", "y"])
        assert accuracy == {"a": 0.5, "b": 0.0}

    def test_empty_rejected(self):
        for metric in (confusion_matrix, per_class_accuracy):
            with pytest.raises(ModelError):
                metric([], [])

    def test_length_mismatch_rejected(self):
        for metric in (confusion_matrix, per_class_accuracy):
            with pytest.raises(ModelError):
                metric([1, 2], [1])


class TestConfusionMatrix:
    def test_counts(self):
        matrix, labels = confusion_matrix(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert labels == ["a", "b"]
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 2]])

    def test_explicit_label_order(self):
        matrix, labels = confusion_matrix(["a", "b"], ["b", "b"], labels=["b", "a"])
        assert labels == ["b", "a"]
        assert matrix[0, 0] == 1  # b predicted b
        assert matrix[1, 0] == 1  # a predicted b

    def test_prediction_only_label_included_by_default(self):
        matrix, labels = confusion_matrix(["a"], ["unknown"])
        assert "unknown" in labels
        assert matrix.sum() == 1

    def test_restricting_labels_drops_other_samples(self):
        matrix, labels = confusion_matrix(["a", "c"], ["a", "c"], labels=["a"])
        assert matrix.sum() == 1


class TestPerClassMetrics:
    def test_per_class_accuracy(self):
        accuracy = per_class_accuracy(["a", "a", "b"], ["a", "x", "b"])
        assert accuracy["a"] == 0.5
        assert accuracy["b"] == 1.0
