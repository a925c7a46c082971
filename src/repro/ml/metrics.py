"""Classification metrics: the confusion matrix and per-class accuracy."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ModelError


def _validate(y_true: Sequence, y_pred: Sequence) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(y_true)
    pred = np.asarray(y_pred)
    if len(true) != len(pred):
        raise ModelError(f"y_true and y_pred disagree on length: {len(true)} vs {len(pred)}")
    if len(true) == 0:
        raise ModelError("metrics require at least one sample")
    return true, pred


def confusion_matrix(
    y_true: Sequence, y_pred: Sequence, labels: Optional[Sequence] = None
) -> tuple[np.ndarray, list]:
    """Confusion matrix ``M[i, j]`` = count of true label i predicted as j.

    Returns the matrix and the label order used for its rows/columns.
    Labels appearing only in predictions (e.g. the "unknown" pseudo-type)
    are included after the true labels.
    """
    true, pred = _validate(y_true, y_pred)
    if labels is None:
        label_list = sorted(set(true.tolist()) | set(pred.tolist()), key=str)
    else:
        label_list = list(labels)
    index = {label: position for position, label in enumerate(label_list)}
    matrix = np.zeros((len(label_list), len(label_list)), dtype=np.int64)
    for actual, predicted in zip(true.tolist(), pred.tolist()):
        if actual in index and predicted in index:
            matrix[index[actual], index[predicted]] += 1
    return matrix, label_list


def per_class_accuracy(y_true: Sequence, y_pred: Sequence) -> dict:
    """Ratio of correct identification per true class (Fig. 5 of the paper)."""
    true, pred = _validate(y_true, y_pred)
    result: dict = {}
    for label in sorted(set(true.tolist()), key=str):
        mask = true == label
        result[label] = float(np.mean(pred[mask] == label))
    return result
