"""Unit tests for the dense network engine, anchored on independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn


def random_model(rng, dims=None):
    dims = dims or (5, 7, 4, 3)
    model = nn.init_params(dims, rng)
    # Nonzero biases keep pre-activations away from the exact ReLU kink.
    model = nn.ModelParams(
        model.weights, tuple(rng.standard_normal(b.shape) * 0.1 for b in model.biases)
    )
    return model, dims


def naive_forward(model, x):
    """Reference forward pass: explicit per-sample, per-unit loops."""
    out = []
    for row in x:
        a = list(row)
        last = len(model.weights) - 1
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = [sum(w[i, j] * a[j] for j in range(w.shape[1])) + b[i] for i in range(w.shape[0])]
            a = z if k == last else [max(v, 0.0) for v in z]
        out.append(a)
    return np.array(out)


def flatten_params(p):
    return np.concatenate([a.ravel() for a in p.weights + p.biases])


def test_forward_matches_naive_loops():
    rng = np.random.default_rng(7)
    model, dims = random_model(rng)
    x = rng.standard_normal((6, dims[0]))
    np.testing.assert_allclose(nn.forward(model, x), naive_forward(model, x), atol=1e-12)


def test_forward_rejects_bad_input_shape():
    model, _ = random_model(np.random.default_rng(0))
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(model, np.zeros((3, 99)))
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(model, np.zeros(5))
    with pytest.raises(nn.ShapeMismatchError, match="incompatible with model input dim 5"):
        nn.backward(model, np.zeros((3, 99)), np.zeros(3, dtype=int))  # not numpy's matmul error


def test_softmax_cross_entropy_matches_naive():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((8, 4))
    labels = rng.integers(0, 4, size=8)
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(probs[np.arange(8), labels]))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_softmax_cross_entropy_stable_for_huge_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss, grad = nn.softmax_cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_softmax_cross_entropy_rejects_bad_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        nn.softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(nn.ShapeMismatchError):
        nn.softmax_cross_entropy(logits, np.array([0]))


def test_loss_gradient_wrt_logits_finite_difference():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    _, grad = nn.softmax_cross_entropy(logits, labels)
    # Column-major logits hold the same values, so they must give the same gradient.
    assert nn.softmax_cross_entropy(np.asfortranarray(logits), labels)[1].tobytes() == grad.tobytes()
    eps = 1e-6
    for i in range(5):
        for j in range(4):
            bump = logits.copy()
            bump[i, j] += eps
            up, _ = nn.softmax_cross_entropy(bump, labels)
            bump[i, j] -= 2 * eps
            down, _ = nn.softmax_cross_entropy(bump, labels)
            assert grad[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-8)


def test_backward_finite_difference_spot_check():
    rng = np.random.default_rng(5)
    model, dims = random_model(rng)
    x = rng.standard_normal((4, dims[0]))
    labels = rng.integers(0, dims[-1], size=4)
    grads, _ = nn.backward(model, x, labels)
    flat_grad = flatten_params(grads)
    theta = flatten_params(model)
    eps = 1e-6

    def loss_at(vec):
        arrays, offset = [], 0
        shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]
        for shape in shapes:
            size = int(np.prod(shape))
            arrays.append(vec[offset : offset + size].reshape(shape))
            offset += size
        half = len(model.weights)
        m = nn.ModelParams(tuple(arrays[:half]), tuple(arrays[half:]))
        loss, _ = nn.softmax_cross_entropy(nn.forward(m, x), labels)
        return loss

    for idx in rng.choice(theta.size, size=25, replace=False):
        e = np.zeros_like(theta)
        e[idx] = eps
        fd = (loss_at(theta + e) - loss_at(theta - e)) / (2 * eps)
        assert flat_grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_backward_returns_same_loss_as_forward():
    rng = np.random.default_rng(13)
    model, dims = random_model(rng)
    x = rng.standard_normal((6, dims[0]))
    labels = rng.integers(0, dims[-1], size=6)
    _, loss = nn.backward(model, x, labels)
    direct, _ = nn.softmax_cross_entropy(nn.forward(model, x), labels)
    assert loss == pytest.approx(direct, abs=1e-15)


def test_sgd_step_is_pure_and_exact():
    """The bits of p - lr * g in fresh C-contiguous, writeable arrays, for a lone
    model and for the read-only broadcast stack local_train starts from."""
    rng = np.random.default_rng(2)
    lone, _ = random_model(rng)
    broadcast = nn.ModelParams(
        tuple(np.broadcast_to(w, (3, *w.shape)) for w in lone.weights),
        tuple(np.broadcast_to(b, (3, *b.shape)) for b in lone.biases),
    )
    for model, grads in ((lone, random_model(rng)[0]), (broadcast, stack([random_model(rng)[0] for _ in range(3)]))):
        before = [a.tobytes() for a in arrays(model) + arrays(grads)]
        stepped = nn.sgd_step(model, grads, 0.25)
        for p, g, new in zip(arrays(model), arrays(grads), arrays(stepped)):
            assert new.shape == p.shape and new.tobytes() == (p - 0.25 * g).tobytes()
            assert new.flags.c_contiguous and new.flags.writeable
            assert not np.shares_memory(new, p) and not np.shares_memory(new, g)
        assert [a.tobytes() for a in arrays(model) + arrays(grads)] == before


def test_sgd_step_rejects_mismatched_dims():
    rng = np.random.default_rng(2)
    model, _ = random_model(rng, dims=(5, 4, 3))
    grads, _ = random_model(rng, dims=(5, 6, 3))
    with pytest.raises(nn.ShapeMismatchError):
        nn.sgd_step(model, grads, 0.1)


def test_init_params_bounds_and_determinism():
    dims = (10, 6, 3)
    a = nn.init_params(dims, np.random.default_rng(42))
    b = nn.init_params(dims, np.random.default_rng(42))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for w, (fan_in, fan_out) in zip(a.weights, zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
    for bias in a.biases:
        assert np.all(bias == 0.0)
    assert a.dims == dims


def test_model_params_validates_layer_chain():
    with pytest.raises(nn.ShapeMismatchError):
        nn.ModelParams((np.zeros((3, 2)), np.zeros((4, 5))), (np.zeros(3), np.zeros(4)))
    with pytest.raises(nn.ShapeMismatchError):
        nn.ModelParams((np.zeros((3, 2)),), (np.zeros(4),))


def stack(models):
    """One ModelParams with a leading client axis over the given 2-D models."""
    return nn.ModelParams(
        tuple(np.stack(ws) for ws in zip(*(m.weights for m in models))),
        tuple(np.stack(bs) for bs in zip(*(m.biases for m in models))),
    )


def arrays(params):
    return params.weights + params.biases


def test_stacked_models_compute_each_slice_bit_for_bit():
    rng = np.random.default_rng(17)
    models = [random_model(rng)[0] for _ in range(4)]
    stacked = stack(models)
    assert stacked.dims == models[0].dims
    # 20 rows per client exceed numpy's 8-way unrolled summation, so a reduction
    # that summed a stack in a different order than a lone model would show.
    x = rng.standard_normal((4, 20, 5))
    y = rng.integers(0, 3, size=(4, 20))
    logits = nn.forward(stacked, x)
    losses, dlogits = nn.softmax_cross_entropy(logits, y)
    grads, backward_losses = nn.backward(stacked, x, y)
    stepped = nn.sgd_step(stacked, grads, 0.3)
    for i, model in enumerate(models):
        assert logits[i].tobytes() == nn.forward(model, x[i]).tobytes()
        loss, dlogit = nn.softmax_cross_entropy(logits[i], y[i])
        assert losses[i].tobytes() == np.float64(loss).tobytes()
        assert dlogits[i].tobytes() == dlogit.tobytes()
        grad, loss = nn.backward(model, x[i], y[i])
        assert backward_losses[i].tobytes() == np.float64(loss).tobytes()
        for a, b in zip(arrays(grads), arrays(grad)):
            assert a[i].tobytes() == b.tobytes()
        for a, b in zip(arrays(stepped), arrays(nn.sgd_step(model, grad, 0.3))):
            assert a[i].tobytes() == b.tobytes()


@settings(max_examples=80)
@given(
    hidden=st.sampled_from([(), (6,), (7, 5)]),
    clients=st.sampled_from([None, 1, 3]),
    samples=st.integers(1, 13),
    batch_size=st.integers(1, 6),
    lr=st.sampled_from([0.05, 0.3, 0.6, 1.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_descend_matches_sgd_step_of_backward(hidden, clients, samples, batch_size, lr, seed):
    """An epoch of in-place steps, short last batch included, ends on the bits
    of the same epoch of pure steps, for lone and stacked models."""
    rng = np.random.default_rng(seed)
    dims = (5, *hidden, 4)
    lead = () if clients is None else (clients,)
    pure = nn.ModelParams(
        tuple(rng.standard_normal((*lead, out, fan_in)) for fan_in, out in zip(dims[:-1], dims[1:])),
        tuple(rng.standard_normal((*lead, out)) * 0.1 for out in dims[1:]),
    )
    owned = nn.ModelParams(tuple(w.copy() for w in pure.weights), tuple(b.copy() for b in pure.biases))
    x = rng.standard_normal((*lead, samples, dims[0]))
    y = rng.integers(0, dims[-1], size=(*lead, samples))
    for start in range(0, samples, batch_size):
        batch = (x[..., start : start + batch_size, :], y[..., start : start + batch_size])
        pure = nn.sgd_step(pure, nn.backward(pure, *batch)[0], lr)
        assert nn.descend(owned, *batch, lr) is None
        for got, want in zip(arrays(owned), arrays(pure)):
            assert got.tobytes() == want.tobytes()


def test_descend_refuses_a_read_only_stack():
    """A broadcast view is read-only: descend raises rather than copy or write through it."""
    rng = np.random.default_rng(8)
    model, dims = random_model(rng)
    stacked = nn.ModelParams(
        tuple(np.broadcast_to(w, (3, *w.shape)) for w in model.weights),
        tuple(np.broadcast_to(b, (3, *b.shape)) for b in model.biases),
    )
    before = [a.tobytes() for a in arrays(model)]
    x = rng.standard_normal((3, 4, dims[0]))
    y = rng.integers(0, dims[-1], size=(3, 4))
    with pytest.raises(ValueError, match="read-only"):
        nn.descend(stacked, x, y, 0.3)
    assert [a.tobytes() for a in arrays(model)] == before


def test_stacked_shapes_are_checked():
    rng = np.random.default_rng(4)
    stacked = stack([random_model(rng)[0] for _ in range(3)])
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(stacked, np.zeros((2, 6, 5)))  # two clients' inputs for three models
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(stacked, np.zeros((6, 5)))  # one model's inputs for a stack
    with pytest.raises(nn.ShapeMismatchError):
        nn.backward(stacked, np.zeros((3, 6, 4)), np.zeros((3, 6), dtype=int))  # inputs one too narrow
    with pytest.raises(nn.ShapeMismatchError):
        nn.softmax_cross_entropy(np.zeros((3, 6, 4)), np.zeros((3, 5), dtype=int))
    lone, _ = random_model(rng)
    with pytest.raises(nn.ShapeMismatchError):
        nn.sgd_step(stacked, stack([lone, lone]), 0.1)


def test_model_params_rejects_disagreeing_leading_axes():
    with pytest.raises(nn.ShapeMismatchError):  # layers stacked over 2 and 3 clients
        nn.ModelParams(
            (np.zeros((2, 3, 2)), np.zeros((3, 4, 3))), (np.zeros((2, 3)), np.zeros((3, 4)))
        )
    with pytest.raises(nn.ShapeMismatchError):  # a stacked layer after a lone one
        nn.ModelParams((np.zeros((3, 2)), np.zeros((2, 4, 3))), (np.zeros(3), np.zeros((2, 4))))
    with pytest.raises(nn.ShapeMismatchError):  # weight over 2 clients, bias over 3
        nn.ModelParams((np.zeros((2, 3, 2)),), (np.zeros((3, 3)),))
    with pytest.raises(nn.ShapeMismatchError):  # a lone bias for a stacked weight
        nn.ModelParams((np.zeros((2, 3, 2)),), (np.zeros(3),))


def test_gradient_descent_fits_separable_blobs():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    model = nn.init_params((2, 8, 2), rng)
    for _ in range(200):
        grads, _ = nn.backward(model, x, y)
        model = nn.sgd_step(model, grads, 0.5)
    assert np.mean(np.argmax(nn.forward(model, x), axis=1) == y) == 1.0
