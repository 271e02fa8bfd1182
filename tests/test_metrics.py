"""Tests for test-set evaluation metrics."""

import numpy as np
import pytest

from fedsim import metrics, nn
from fedsim.data import Dataset


def constant_model(scores):
    """A bias-only model that emits the same logits for every input."""
    k = len(scores)
    return nn.ModelParams((np.zeros((k, 2)),), (np.array(scores, dtype=float),))


def predicting_model(predictions, num_classes):
    """A model and one-hot inputs whose argmax on row i is predictions[i]."""
    model = nn.ModelParams((np.eye(num_classes),), (np.zeros(num_classes),))
    return model, np.eye(num_classes)[predictions]


def test_accuracy_rejects_mismatch_and_empty():
    model, _ = predicting_model([0], 3)
    with pytest.raises(ValueError, match="test set is empty"):
        metrics.evaluate_model(model, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 3))
    with pytest.raises(nn.ShapeMismatchError):
        metrics.evaluate_model(model, Dataset(np.zeros((2, 4)), np.array([0, 1]), 3))


def test_source_class_recall():
    model, features = predicting_model([5, 3, 5, 1, 5], 10)
    result = metrics.evaluate_model(model, Dataset(features, np.array([5, 5, 5, 1, 2]), 10))
    assert result.accuracy == pytest.approx(3 / 5)
    assert result.per_class_recall[5] == pytest.approx(2 / 3)
    assert result.per_class_recall[1] == 1.0
    assert result.per_class_recall[2] == 0.0
    assert result.per_class_recall[9] == 1.0  # absent class
    assert all(type(r) is float for r in result.per_class_recall)


def test_evaluate_model_consistency():
    # Model always predicts class 1; recalls follow directly.
    model = constant_model([0.0, 5.0, 0.0])
    ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 1, 1]), 3)
    result = metrics.evaluate_model(model, ds)
    assert result.accuracy == pytest.approx(0.75)
    assert result.per_class_recall == (0.0, 1.0, 1.0)  # class 2 is absent: recall 1
    expected, _ = nn.softmax_cross_entropy(nn.forward(model, ds.features), ds.labels)
    assert result.mean_ce_loss == expected


def test_evaluate_model_argmax_ties_go_to_lowest_class():
    # Classes 0 and 1 tie on every row, so every row predicts class 0.
    model = constant_model([1.0, 1.0, 0.0])
    result = metrics.evaluate_model(model, Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 3))
    assert result.per_class_recall == (1.0, 0.0, 1.0)
    assert result.accuracy == 0.5


def test_evaluate_model_perfect_classifier():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(-3, 0.1, (20, 2)), rng.normal(3, 0.1, (20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    model = nn.ModelParams((np.array([[-1.0, -1.0], [1.0, 1.0]]),), (np.zeros(2),))
    result = metrics.evaluate_model(model, Dataset(x, y, 2))
    assert result.accuracy == 1.0
    assert result.per_class_recall == (1.0, 1.0)
