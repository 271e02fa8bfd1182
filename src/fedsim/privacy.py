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
from .defense import REPORT_LIMIT


@dataclass(frozen=True)
class LdpConfig:
    """Pure epsilon-DP budget for the Laplace mechanism (delta is always 0). The
    largest draw, about 36.74 times the scale, must not pass defense.REPORT_LIMIT."""

    epsilon: float = 1.0
    sensitivity: float = 0.0001

    def __post_init__(self):
        check_field_kinds(self)
        for name in ("epsilon", "sensitivity"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} {getattr(self, name)} must be positive and finite")
        pair = f"sensitivity {self.sensitivity} / epsilon {self.epsilon}"
        b = laplace_scale(self)
        if not 0 < b < np.inf:
            raise ValueError(f"noise scale {pair} must be positive and finite")
        largest = -float(_laplace_noise(1.0, 0.0)) * b  # the draw of largest magnitude, 53 ln 2 times b
        if largest > REPORT_LIMIT:
            limit = f"the eliminators' report limit {REPORT_LIMIT:g}"
            raise ValueError(f"noise scale {pair} is too large: its largest Laplace draw {largest:.4g} passes {limit}")


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
    laplace_sample(laplace_scale(config), rngs[i]) would return. A loss that
    is not finite or lies beyond defense.REPORT_LIMIT is rejected.
    """
    losses = np.asarray(losses)
    if losses.ndim != 1:
        raise ValueError(f"losses must be 1-D, one per client, got shape {losses.shape}")
    if losses.dtype.kind not in "iuf":
        raise ValueError(f"losses must be numbers, got dtype {losses.dtype}")
    if not isinstance(config, LdpConfig):
        raise ValueError(f"config must be an LdpConfig, got {config!r}")
    if not isinstance(rngs, (list, tuple)):
        got = "one Generator" if isinstance(rngs, np.random.Generator) else repr(rngs)
        raise ValueError(f"rngs must be a list of generators, one per loss, got {got}")
    if len(losses) != len(rngs):
        raise ValueError(f"{len(losses)} losses and {len(rngs)} generators; need one each")
    for i, rng in enumerate(rngs):  # anything with a Generator's random() draws
        if not callable(getattr(rng, "random", None)):
            raise ValueError(f"rngs[{i}] must be a Generator, got {rng!r}")
    beyond = ~(np.abs(losses) <= REPORT_LIMIT)  # NaN fails the comparison too
    if beyond.any():
        loss = losses[beyond][0]
        bound = f"at most {REPORT_LIMIT:g} in magnitude" if np.isfinite(loss) else "finite"
        raise ValueError(f"loss must be {bound}, got {loss}")
    return losses + _laplace_noise(laplace_scale(config), np.array([rng.random() for rng in rngs]))
