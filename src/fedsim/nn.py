"""Minimal dense neural-network engine.

Forward pass, softmax cross-entropy, backpropagation and plain SGD for a
fully connected ReLU network in float64. forward, backward and sgd_step are
pure; descend writes an SGD step into the arrays of a model its caller owns.

Every function also takes a stack of models with a leading client axis:
weights of shape (C, out, in), inputs of shape (C, rows, in) and labels of
shape (C, rows). Each client's slice goes through the same matrix products
and reductions as a lone 2-D model would, so a stack of C models computes
exactly the bits of C separate calls, with one numpy dispatch instead of C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when array shapes violate an operation's contract."""


@dataclass(frozen=True)
class ModelParams:
    """Ordered (weight, bias) pairs of a dense network, or of a stack of them.

    weights[k] has shape (*lead, dims[k+1], dims[k]); biases[k] has shape
    (*lead, dims[k+1]). lead is () for one model and (C,) for C stacked ones.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ShapeMismatchError("weights and biases differ in layer count")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
                raise ShapeMismatchError(f"layer {k}: weight {w.shape} / bias {b.shape}")
            # Same leading axes as the layer before, and its outputs as inputs.
            if k > 0 and w.shape[:-2] + w.shape[-1:] != self.weights[k - 1].shape[:-1]:
                raise ShapeMismatchError(
                    f"layer {k} weight {w.shape} does not follow layer {k-1} weight "
                    f"{self.weights[k - 1].shape}"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[-1],) + tuple(w.shape[-2] for w in self.weights)


def init_params(dims, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn from the given generator."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(tuple(weights), tuple(biases))


def _check_inputs(model: ModelParams, inputs: np.ndarray) -> None:
    lead, dim = model.weights[0].shape[:-2], model.dims[0]
    if inputs.ndim != len(lead) + 2 or inputs.shape[:-2] != lead or inputs.shape[-1] != dim:
        stack = f" and client axes {lead}" if lead else ""
        raise ShapeMismatchError(f"inputs {inputs.shape} incompatible with model input dim {dim}{stack}")


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
        # Bias and ReLU in place: the same bits, one full-size array per layer.
        a = a @ w.swapaxes(-1, -2)
        a += b[..., None, :]
        if k != last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def _softmax_grad(logits: np.ndarray, labels: np.ndarray):
    """Row-max-shifted logits, their exp-sums, each label's flat position, and
    d mean loss / d logits = (softmax - one-hot) / rows. Labels unchecked."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    grad = np.exp(shifted, order="C")  # C order, so reshape(-1) below is a view
    total = grad.sum(axis=-1, keepdims=True)
    grad /= total
    picks = np.arange(labels.size) * logits.shape[-1] + labels.ravel()
    grad.reshape(-1)[picks] -= 1.0
    grad /= logits.shape[-2]
    return shifted, total, picks, grad


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (mean_loss, d loss / d logits). The mean is over the rows of each
    model: a float for 2-D logits, an array of C losses for (C, rows, classes)
    logits. Softmax is computed with max-subtraction so large logits stay finite.
    """
    labels = np.asarray(labels)
    num_classes = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ShapeMismatchError(f"labels {labels.shape} for logits {logits.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label out of range [0, {num_classes})")
    shifted, total, picks, grad = _softmax_grad(logits, labels)
    log_probs = shifted.reshape(-1)[picks] - np.log(total.reshape(-1))
    loss = -log_probs.reshape(labels.shape).mean(axis=-1)
    return (float(loss) if loss.ndim == 0 else loss), grad


def _gradients(model: ModelParams, activations, delta: np.ndarray):
    """Each layer's (weight, bias) gradients from delta = d loss / d logits,
    last layer first. A layer's weights have fed the next delta by the time
    its gradients are yielded, so the caller may then overwrite that layer."""
    for k in range(len(model.weights) - 1, -1, -1):
        grad_w = delta.swapaxes(-1, -2) @ activations[k]
        grad_b = delta.sum(axis=-2)
        if k > 0:
            delta = (delta @ model.weights[k]) * (activations[k] > 0)
        yield grad_w, grad_b


def backward(model: ModelParams, inputs: np.ndarray, labels) -> tuple[ModelParams, float | np.ndarray]:
    """Gradients of the mean cross-entropy loss w.r.t. every parameter, and that loss."""
    _check_inputs(model, inputs)
    activations = _forward_trace(model, inputs)
    loss, delta = softmax_cross_entropy(activations[-1], labels)
    grad_w, grad_b = zip(*reversed(list(_gradients(model, activations, delta))))
    return ModelParams(grad_w, grad_b), loss


def sgd_step(model: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One plain gradient-descent step: p' = p - lr * g, in new arrays.

    It allocates one array per parameter: lr * g is computed into it, and p
    minus it written back into it, the bits of p - lr * g. Neither model nor
    grads is written.
    """
    shapes, grad_shapes = [w.shape for w in model.weights], [g.shape for g in grads.weights]
    if shapes != grad_shapes:
        raise ShapeMismatchError(f"model weights {shapes} != gradient weights {grad_shapes}")

    def step(p, g):
        out = np.multiply(g, lr)
        return np.subtract(p, out, out=out)

    return ModelParams(
        tuple(map(step, model.weights, grads.weights)), tuple(map(step, model.biases, grads.biases))
    )


def descend(model: ModelParams, inputs: np.ndarray, labels: np.ndarray, lr: float) -> None:
    """Write sgd_step(model, backward(model, inputs, labels)[0], lr) into model's arrays.

    Same bits, minus the loss, the checks and a new ModelParams. A read-only
    array (a broadcast view) raises ValueError; nothing is copied.
    Precondition: inputs fit the model and every label lies in [0, classes),
    as a softmax_cross_entropy pass over the same rows has checked.
    """
    activations = _forward_trace(model, inputs)
    delta = _softmax_grad(activations[-1], labels)[-1]
    layers = zip(reversed(model.weights), reversed(model.biases))
    for (w, b), (grad_w, grad_b) in zip(layers, _gradients(model, activations, delta)):
        for p, g in ((w, grad_w), (b, grad_b)):
            g *= lr
            p -= g
