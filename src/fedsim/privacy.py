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


def perturb_loss(losses: np.ndarray, config: LdpConfig, uniforms: np.ndarray) -> np.ndarray:
    """The reported values: each true loss plus Laplace noise. May go negative.

    uniforms holds one float64 draw in [0, 1) per loss, as Generator.random
    gives it; loss i gets the noise that laplace_sample(laplace_scale(config),
    rng) returns from a generator whose next draw is uniforms[i]. A loss that
    is not finite or lies beyond defense.REPORT_LIMIT is rejected.
    """
    losses, uniforms = np.asarray(losses), np.asarray(uniforms)
    if losses.ndim != 1:
        raise ValueError(f"losses must be 1-D, one per client, got shape {losses.shape}")
    if losses.dtype.kind not in "iuf":
        raise ValueError(f"losses must be numbers, got dtype {losses.dtype}")
    if not isinstance(config, LdpConfig):
        raise ValueError(f"config must be an LdpConfig, got {config!r}")
    if uniforms.shape != losses.shape or uniforms.dtype != np.float64:
        shown = f"shape {uniforms.shape} and dtype {uniforms.dtype}"
        raise ValueError(f"uniforms must be float64 of shape {losses.shape}, one per loss, got {shown}")
    outside = uniforms[~((uniforms >= 0) & (uniforms < 1))]  # NaN fails the comparisons too
    if outside.size:
        raise ValueError(f"uniforms must lie in [0, 1), got {outside[0]}")
    beyond = ~(np.abs(losses) <= REPORT_LIMIT)  # NaN fails the comparison too
    if beyond.any():
        loss = losses[beyond][0]
        bound = f"at most {REPORT_LIMIT:g} in magnitude" if np.isfinite(loss) else "finite"
        raise ValueError(f"loss must be {bound}, got {loss}")
    return losses + _laplace_noise(laplace_scale(config), uniforms)
