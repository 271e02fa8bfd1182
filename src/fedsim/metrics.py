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


def evaluate_model(model: nn.ModelParams, test_set: Dataset) -> EvalResult:
    """Accuracy, mean loss and per-class recall from one forward pass over the test set.

    A row's prediction is its highest logit; ties go to the lowest class.
    """
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    labels = test_set.labels
    logits = nn.forward(model, test_set.features)
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    correct = np.argmax(logits, axis=1) == labels
    hits = np.bincount(labels[correct], minlength=test_set.num_classes)
    totals = np.bincount(labels, minlength=test_set.num_classes)
    return EvalResult(
        accuracy=float(np.mean(correct)),
        mean_ce_loss=loss,
        per_class_recall=tuple(np.where(totals > 0, hits / np.maximum(totals, 1), 1.0).tolist()),
    )
