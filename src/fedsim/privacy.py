"""Laplace mechanism for locally private loss reporting.

Each client adds Laplace(b) noise with b = sensitivity / epsilon to its
training loss before the value ever leaves the device. Sampling is by
inverse CDF so a given generator state always yields the same noise on
every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_field_kinds


@dataclass(frozen=True)
class LdpConfig:
    """Pure epsilon-DP budget for the Laplace mechanism (delta is always 0)."""

    epsilon: float = 1.0
    sensitivity: float = 0.0001

    def __post_init__(self):
        check_field_kinds(self)
        for name in ("epsilon", "sensitivity"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} {getattr(self, name)} must be positive and finite")
        if not 0 < laplace_scale(self) < np.inf:
            pair = f"sensitivity {self.sensitivity} / epsilon {self.epsilon}"
            raise ValueError(f"noise scale {pair} must be positive and finite")


def laplace_scale(config: LdpConfig) -> float:
    """Noise scale b = sensitivity / epsilon."""
    return config.sensitivity / config.epsilon


def _laplace_noise(b: float, uniform):
    """Laplace(0, b) noise from uniform draws in [0, 1), elementwise, by inverse CDF.

    Maps each draw to u in [-0.5, 0.5) and returns -b * sign(u) * ln(1 - 2|u|).
    """
    if not 0 < b < np.inf:
        raise ValueError(f"scale b {b} must be positive and finite")
    u = uniform - 0.5
    # rng.random() can return exactly 0.0, which maps u to the closed
    # endpoint -0.5 and the formula to -inf; nudge inside the open interval.
    u = np.where(u == -0.5, np.nextafter(-0.5, 0.0), u)
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_sample(b: float, rng: np.random.Generator, size: int | None = None):
    """Laplace(0, b) noise: a scalar when size is None, else an array of that length."""
    noise = _laplace_noise(b, rng.random(size))
    return float(noise) if size is None else noise


def perturb_loss(losses: np.ndarray, config: LdpConfig, rngs) -> np.ndarray:
    """The reported values: each true loss plus Laplace noise. May go negative.

    Client i draws one uniform from rngs[i], so its noise is what
    laplace_sample(laplace_scale(config), rngs[i]) would return.
    """
    if np.ndim(losses) != 1:
        raise ValueError(f"losses must be 1-D, one per client, got shape {np.shape(losses)}")
    if isinstance(rngs, np.random.Generator):
        raise ValueError("rngs must be a list of generators, one per loss, got one Generator")
    if len(losses) != len(rngs):
        raise ValueError(f"{len(losses)} losses and {len(rngs)} generators; need one each")
    if not np.isfinite(losses).all():
        raise ValueError(f"loss must be finite, got {losses[~np.isfinite(losses)][0]}")
    return losses + _laplace_noise(laplace_scale(config), np.array([rng.random() for rng in rngs]))
