"""Tests for the Laplace mechanism: scale, sampler shape, and privacy bound."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import privacy


def test_scale_is_sensitivity_over_epsilon():
    assert privacy.laplace_scale(privacy.LdpConfig(epsilon=1.0, sensitivity=0.0001)) == 0.0001
    assert privacy.laplace_scale(privacy.LdpConfig(epsilon=0.5, sensitivity=0.0001)) == 0.0002
    assert privacy.laplace_scale(privacy.LdpConfig(epsilon=2.0, sensitivity=1.0)) == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        privacy.LdpConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        privacy.LdpConfig(sensitivity=-1.0)


def test_sampler_deterministic_given_generator_state():
    a = privacy.laplace_sample(1.0, np.random.default_rng(9), size=100)
    b = privacy.laplace_sample(1.0, np.random.default_rng(9), size=100)
    np.testing.assert_array_equal(a, b)


def test_sampler_scalar_and_array_modes():
    rng = np.random.default_rng(0)
    scalar = privacy.laplace_sample(1.0, rng)
    assert isinstance(scalar, float)
    arr = privacy.laplace_sample(1.0, rng, size=10)
    assert arr.shape == (10,)


def test_sampler_rejects_nonpositive_scale():
    for b in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"scale b {b} must be positive"):
            privacy.laplace_sample(b, np.random.default_rng(0))


def test_sampler_finite_across_many_draws():
    samples = privacy.laplace_sample(1.0, np.random.default_rng(1), size=1_000_000)
    assert np.all(np.isfinite(samples))


def test_sampler_moments_match_laplace():
    b = 0.7
    samples = privacy.laplace_sample(b, np.random.default_rng(123), size=1_000_000)
    assert abs(samples.mean()) < 0.01
    assert samples.var() == pytest.approx(2 * b * b, rel=0.02)
    assert 0.497 <= np.mean(samples > 0) <= 0.503


def test_sampler_tail_probability():
    # P(|X| > t) = exp(-t/b) for Laplace(b).
    b = 1.0
    samples = privacy.laplace_sample(b, np.random.default_rng(7), size=1_000_000)
    for t in (1.0, 2.0, 3.0):
        assert np.mean(np.abs(samples) > t) == pytest.approx(np.exp(-t / b), rel=0.05)


def test_perturb_loss_adds_noise_at_configured_scale():
    cfg = privacy.LdpConfig(epsilon=1.0, sensitivity=0.0001)
    rng = np.random.default_rng(5)
    noise = privacy.perturb_loss(np.ones(20000), cfg, [rng] * 20000) - 1.0
    assert abs(noise.mean()) < 1e-5
    assert noise.var() == pytest.approx(2 * 1e-8, rel=0.05)


def test_perturb_loss_rejects_nonfinite():
    cfg = privacy.LdpConfig()
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="loss must be finite, got nan"):
        privacy.perturb_loss(np.array([0.5, float("nan")]), cfg, rngs)
    with pytest.raises(ValueError, match="loss must be finite, got inf"):
        privacy.perturb_loss(np.array([float("inf"), 0.5]), cfg, rngs)


def test_perturb_loss_needs_one_generator_per_loss():
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="3 losses and 2 generators"):
        privacy.perturb_loss(np.array([0.5, 0.5, 0.5]), privacy.LdpConfig(), rngs)


def test_perturb_loss_rejects_losses_that_are_not_one_dimensional():
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match=re.escape("losses must be 1-D, one per client, got shape (2, 2)")):
        privacy.perturb_loss(np.full((2, 2), 0.5), privacy.LdpConfig(), rngs)


class ZeroDraw:
    """A generator stub whose uniform draw is exactly 0.0, the closed end of [0, 1)."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@settings(max_examples=100)
@given(
    losses=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20),
    epsilon=st.floats(1e-3, 1e3),
    sensitivity=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**32 - 1),
    zero_draws=st.sets(st.integers(0, 19)),
)
def test_perturb_loss_matches_per_client_laplace_sample_bit_for_bit(losses, epsilon, sensitivity, seed, zero_draws):
    cfg = privacy.LdpConfig(epsilon=epsilon, sensitivity=sensitivity)
    b = privacy.laplace_scale(cfg)

    def generators():
        return [ZeroDraw() if i in zero_draws else np.random.default_rng([seed, i]) for i in range(len(losses))]

    got = privacy.perturb_loss(np.array(losses), cfg, generators())
    want = [loss + privacy.laplace_sample(b, rng) for loss, rng in zip(losses, generators())]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert np.isfinite(got).all()


def test_zero_draw_is_nudged_inside_the_open_interval():
    b = 0.5
    noise = privacy.laplace_sample(b, ZeroDraw())
    # u = 0.0 - 0.5 moves to the largest float above -0.5: noise = b * ln(1 - 2|u|), about -36.7 b.
    assert noise == b * np.log1p(-2.0 * abs(np.nextafter(-0.5, 0.0)))
    assert -37 * b < noise < -36 * b
    [reported] = privacy.perturb_loss(np.array([1.0]), privacy.LdpConfig(epsilon=1.0, sensitivity=b), [ZeroDraw()])
    assert reported == 1.0 + noise


def test_epsilon_dp_ratio_bound_empirically():
    """Histogram densities of the mechanism on adjacent inputs respect e^eps."""
    eps, sens = 1.0, 0.0001
    b = sens / eps
    n = 1_000_000
    out_x = 0.0 + privacy.laplace_sample(b, np.random.default_rng(21), size=n)
    out_y = sens + privacy.laplace_sample(b, np.random.default_rng(22), size=n)
    edges = np.linspace(-4 * b, 4 * b + sens, 41)
    hx, _ = np.histogram(out_x, bins=edges)
    hy, _ = np.histogram(out_y, bins=edges)
    mask = (hx > 2000) & (hy > 2000)
    assert mask.sum() >= 10
    ratio = hx[mask] / hy[mask]
    slack = 1.10  # sampling error allowance on top of the exact bound
    assert np.all(ratio <= np.exp(eps) * slack)
    assert np.all(ratio >= np.exp(-eps) / slack)
