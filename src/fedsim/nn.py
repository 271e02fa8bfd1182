"""Minimal dense neural-network engine.

Forward pass, softmax cross-entropy, backpropagation and plain SGD for a
fully connected ReLU network. Everything is float64 and purely functional:
no layer objects, no hidden state, just arrays in and arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when array shapes violate an operation's contract."""


@dataclass(frozen=True)
class ModelParams:
    """Ordered (weight, bias) pairs of a dense network.

    weights[k] has shape (dims[k+1], dims[k]); biases[k] has shape (dims[k+1],).
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ShapeMismatchError("weights and biases differ in layer count")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ShapeMismatchError(f"layer {k}: weight {w.shape} / bias {b.shape}")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ShapeMismatchError(
                    f"layer {k} input dim {w.shape[1]} != layer {k-1} output dim"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]


def init_params(dims, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn from the given generator."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(tuple(weights), tuple(biases))


def _check_inputs(model: ModelParams, inputs: np.ndarray) -> None:
    if inputs.ndim != 2 or inputs.shape[1] != model.dims[0]:
        raise ShapeMismatchError(
            f"inputs {inputs.shape} incompatible with model input dim {model.dims[0]}"
        )


def forward(model: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Logits for a batch. Hidden layers use ReLU; the last layer is affine."""
    _check_inputs(model, inputs)
    return _forward_trace(model, inputs)[-1]


def _forward_trace(model: ModelParams, inputs: np.ndarray):
    """Forward pass keeping each layer's post-activation (for backprop)."""
    activations = [inputs]
    a = inputs
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        a = z if k == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (mean_loss, d loss / d logits). Softmax is computed with
    max-subtraction so large logits stay finite.
    """
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"{labels.shape[0] if labels.ndim else 0} labels for {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label out of range [0, {num_classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), labels].mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def backward(model: ModelParams, inputs: np.ndarray, labels) -> tuple[ModelParams, float]:
    """Gradients of the mean cross-entropy loss w.r.t. every parameter."""
    activations = _forward_trace(model, inputs)
    loss, delta = softmax_cross_entropy(activations[-1], labels)
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for k in range(len(model.weights) - 1, -1, -1):
        grad_w[k] = delta.T @ activations[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (activations[k] > 0)
    return ModelParams(tuple(grad_w), tuple(grad_b)), loss


def sgd_step(model: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One plain gradient-descent step: p' = p - lr * g."""
    if model.dims != grads.dims:
        raise ShapeMismatchError(f"model dims {model.dims} != gradient dims {grads.dims}")
    return ModelParams(
        tuple(w - lr * g for w, g in zip(model.weights, grads.weights)),
        tuple(b - lr * g for b, g in zip(model.biases, grads.biases)),
    )


def predict(model: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    return np.argmax(forward(model, inputs), axis=1)
