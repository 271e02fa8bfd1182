"""Server-side eliminators over the round's noisy loss reports.

Four strategies decide which clients are dropped from aggregation: a fixed
top-fraction cut, the largest gap in the sorted losses, an absolute Z-score
threshold, and 1-D two-cluster K-means. run_eliminator is the one entry
point: it takes the round's reports as a {client_id: noisy_loss} map and a
DefenseConfig, and hands its kind's kernel the losses as a float64 array in
client-id order, so the verdict and diagnostics are deterministic functions
of the reports' contents. Every outcome partitions the round's client set
into eliminated and retained with retained never empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_field_kinds, round_half_up

# The largest loss report, in magnitude, that an eliminator judges: deviations of at most
# 2e150 square to 4e300, so the kmeans guard's sum of squares and zscore's variance stay
# finite over fewer than 4 * 10**7 reports. LdpConfig keeps its largest draw within it.
REPORT_LIMIT = 1e150


@dataclass
class EliminationOutcome:
    eliminated: frozenset
    retained: frozenset
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DefenseConfig:
    kind: str = "none"
    fixed_fraction: float = 0.2
    zscore_threshold: float = 1.0
    zscore_one_sided: bool = False
    kmeans_guard: float = 3.5
    kmeans_max_iters: int = 100

    def __post_init__(self):
        check_field_kinds(self)
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}, expected one of {DEFENSE_KINDS}")
        if not 0.0 <= self.fixed_fraction < 1.0:
            raise ValueError(f"fixed_fraction {self.fixed_fraction} outside [0, 1)")
        for name in ("zscore_threshold", "kmeans_guard"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} {getattr(self, name)} must be non-negative and finite")
        if self.kmeans_max_iters < 0:
            raise ValueError(f"kmeans_max_iters {self.kmeans_max_iters} must be non-negative")


def _fixed_fraction(losses, config):
    """Drop the top round(fixed_fraction * n) losses; equal losses drop lower ids first."""
    count = round_half_up(config.fixed_fraction * len(losses))
    return np.argsort(-losses, kind="stable")[:count], {"cut_count": count}


def _largest_gap(losses, config):
    """Split the sorted losses at their widest consecutive gap and drop the top."""
    if len(losses) < 2:
        return (), {"too_few_reports": True}
    order = np.argsort(losses, kind="stable")
    gaps = np.diff(losses[order])
    widest = float(gaps.max())
    if widest <= 0.0:
        return (), {"gap": 0.0}
    # Last occurrence of the widest gap: ties eliminate as few clients as possible.
    cut = int(np.flatnonzero(gaps == widest)[-1])
    return order[cut + 1 :], {"gap": widest, "boundary_loss": float(losses[order[cut]])}


def _zscore(losses, config):
    """Drop reports whose Z-score magnitude exceeds zscore_threshold.

    Uses the population standard deviation. With zscore_one_sided only
    unusually high losses are dropped, never unusually low ones.
    """
    mu = float(losses.mean())
    sigma = float(losses.std())
    diagnostics = {"mean": mu, "std": sigma}
    if sigma < 1e-12:
        return (), diagnostics
    z = (losses - mu) / sigma
    flag = (z if config.zscore_one_sided else np.abs(z)) > config.zscore_threshold
    return np.flatnonzero(flag), diagnostics


def _kmeans(losses, config):
    """Two-cluster 1-D Lloyd iteration; drop the high-loss cluster if separated.

    Centroids start at (min, max). The high cluster is eliminated only when
    the centroid gap exceeds kmeans_guard times the pooled within-cluster
    spread; guard 0 recovers the unconditional split-and-drop behavior.
    """
    c_low, c_high = float(losses.min()), float(losses.max())
    if c_high - c_low < 1e-15:
        return (), {"centroids": (c_low, c_high), "pooled_std": 0.0, "guard_passed": False}
    in_high = losses - c_low > c_high - losses  # ties join the low cluster
    for _ in range(config.kmeans_max_iters):
        if not in_high.any() or in_high.all():
            break
        c_low = float(losses[~in_high].mean())
        c_high = float(losses[in_high].mean())
        new_high = losses - c_low > c_high - losses
        if np.array_equal(new_high, in_high):
            break
        in_high = new_high
    centers = np.where(in_high, c_high, c_low)
    # Pooled (two-sample) within-cluster deviation, n - 2 degrees of freedom.
    pooled_std = float(
        np.sqrt(np.sum((losses - centers) ** 2) / max(len(losses) - 2, 1))
    )
    guard_passed = (c_high - c_low) > config.kmeans_guard * max(pooled_std, 1e-12)
    diagnostics = {"centroids": (c_low, c_high), "pooled_std": pooled_std, "guard_passed": guard_passed}
    return (np.flatnonzero(in_high) if guard_passed else ()), diagnostics


# Each defense kind's kernel: (losses in ascending client id, config) -> (the
# positions in losses to drop, diagnostics).
_KERNELS = {
    "none": lambda losses, config: ((), {}),
    "fixed_fraction": _fixed_fraction,
    "largest_gap": _largest_gap,
    "zscore": _zscore,
    "kmeans": _kmeans,
}
DEFENSE_KINDS = tuple(_KERNELS)


def run_eliminator(reports, config: DefenseConfig) -> EliminationOutcome:
    """Judge a round's {client_id: noisy_loss} reports with the configured defense kind.

    The kernel sees the losses in ascending client id, so neither the verdict
    nor its diagnostics depend on the map's order. If the kernel would drop
    every client, the lowest loss is retained (the lowest id of equal losses).
    A loss that is not a number, is not finite or lies beyond REPORT_LIMIT is
    rejected, naming the client.
    """
    if not isinstance(config, DefenseConfig):
        raise ValueError(f"config must be a DefenseConfig, got {config!r}")
    if not reports:
        raise ValueError("need at least 1 loss report, got 0")
    # Checked once for each type present: a round's ids are ints and its losses floats.
    for kind in set(map(type, reports)):
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"client ids must be integers, got {next(c for c in reports if type(c) is kind)!r}")
    kinds = set(map(type, reports.values()))
    for kind in kinds:
        if issubclass(kind, bool) or not issubclass(kind, (int, float, np.integer, np.floating)):
            cid = next(c for c, loss in reports.items() if type(loss) is kind)
            raise ValueError(f"client {cid} reported a loss that is not a number: {reports[cid]!r}")
    ids = sorted(reports)
    values = [reports[cid] for cid in ids]
    # A Python int or a finite longdouble may pass float64's range: held at twice the limit,
    # compared in its own precision, it is rejected all the same.
    if wide := kinds & {int, np.longdouble}:
        limit = 2 * REPORT_LIMIT
        values = [min(max(v, -limit), limit) if type(v) in wide and abs(v) < np.inf else v for v in values]
    losses = np.array(values, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(losses) <= REPORT_LIMIT))  # NaN fails the comparison too
    if bad.size:
        cid = ids[int(bad[0])]
        fault = f"a loss beyond {REPORT_LIMIT:g} in magnitude:" if np.isfinite(losses[bad[0]]) else "a non-finite loss"
        raise ValueError(f"client {cid} reported {fault} {reports[cid]!s}")  # a longdouble formats as a float
    drop, diagnostics = _KERNELS[config.kind](losses, config)
    eliminated = {ids[i] for i in drop}
    if len(eliminated) == len(ids):
        eliminated.discard(ids[int(np.argmin(losses))])
        diagnostics["retain_one_fallback"] = True
    return EliminationOutcome(
        eliminated=frozenset(eliminated),
        retained=frozenset(ids) - eliminated,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class DetectionScore:
    accuracy: float
    precision: float
    recall: float
    f1: float


def detection_score(outcome: EliminationOutcome, truth) -> DetectionScore:
    """Confusion-matrix scores treating 'malicious' as the positive class.

    Predicted positives are the eliminated clients. Precision defaults to 1
    when nothing is eliminated and recall to 1 when nothing is malicious.
    """
    truth = set(truth)
    everyone = outcome.eliminated | outcome.retained
    if not truth <= everyone:
        raise ValueError("truth contains ids outside the round's client set")
    tp = len(outcome.eliminated & truth)
    fp = len(outcome.eliminated - truth)
    fn = len(truth - outcome.eliminated)
    tn = len(everyone) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return DetectionScore((tp + tn) / len(everyone), precision, recall, f1)
