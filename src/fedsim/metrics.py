"""Evaluation metrics computed on the server's honest test set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_ce_loss: float
    per_class_recall: tuple[float, ...]  # 1.0 for a class missing from the test set


def sparse_categorical_accuracy(predictions, labels) -> float:
    """Fraction of predictions that exactly match the labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError(f"predictions {predictions.shape} vs labels {labels.shape}")
    return float(np.mean(predictions == labels))


def source_class_recall(predictions, labels, source_class: int) -> float:
    """TP / (TP + FN) restricted to the source class; 1.0 if the class is absent."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"predictions {predictions.shape} vs labels {labels.shape}")
    mask = labels == source_class
    if not mask.any():
        return 1.0
    return float(np.mean(predictions[mask] == source_class))


def evaluate_model(model: nn.ModelParams, test_set: Dataset) -> EvalResult:
    """Accuracy, mean loss and per-class recall from one forward pass over the test set.

    A row's prediction is its highest logit; ties go to the lowest class.
    """
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    labels = test_set.labels
    logits = nn.forward(model, test_set.features)
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    predictions = np.argmax(logits, axis=1)
    classes = range(test_set.num_classes)
    return EvalResult(
        accuracy=sparse_categorical_accuracy(predictions, labels),
        mean_ce_loss=loss,
        per_class_recall=tuple(source_class_recall(predictions, labels, c) for c in classes),
    )
