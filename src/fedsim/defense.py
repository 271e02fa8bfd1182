"""Server-side eliminators over the round's noisy loss reports.

Four strategies decide which clients are dropped from aggregation: a fixed
top-fraction cut, the largest gap in the sorted losses, an absolute Z-score
threshold, and 1-D two-cluster K-means. Each takes the round's reports as a
{client_id: noisy_loss} map and a DefenseConfig, and reads the map only in
client-id order, so its verdict and diagnostics are deterministic functions
of the reports' contents. Every outcome partitions the round's client set
into eliminated and retained with retained never empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_field_kinds, round_half_up


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


def _losses(reports) -> tuple[list, np.ndarray]:
    """The reporting client ids in ascending order, and their losses in that order.

    The one reader of a {client_id: noisy_loss} map: every verdict and
    diagnostic is computed in id order, so none depends on the map's order.
    """
    if not reports:
        raise ValueError("need at least 1 loss report, got 0")
    for cid in reports:
        if isinstance(cid, bool) or not isinstance(cid, (int, np.integer)):
            raise ValueError(f"client ids must be integers, got {cid!r}")
    ids = sorted(reports)
    losses = np.array([reports[cid] for cid in ids], dtype=np.float64)
    if not np.isfinite(losses).all():
        cid = ids[int(np.flatnonzero(~np.isfinite(losses))[0])]
        raise ValueError(f"client {cid} reported a non-finite loss {reports[cid]}")
    return ids, losses


def _outcome(ids, losses, eliminated_ids, diagnostics):
    """Close the partition, enforcing that at least one client is retained."""
    eliminated = set(eliminated_ids)
    if len(eliminated) == len(ids):
        # argmin takes the first of equal losses, which is the lowest id.
        eliminated.discard(ids[int(np.argmin(losses))])
        diagnostics["retain_one_fallback"] = True
    return EliminationOutcome(
        eliminated=frozenset(eliminated),
        retained=frozenset(ids) - eliminated,
        diagnostics=diagnostics,
    )


def eliminate_fixed_fraction(reports, config: DefenseConfig) -> EliminationOutcome:
    """Drop the top round(fixed_fraction * n) losses; equal losses drop lower ids first."""
    ids, losses = _losses(reports)
    count = round_half_up(config.fixed_fraction * len(ids))
    order = np.argsort(-losses, kind="stable")
    return _outcome(ids, losses, (ids[i] for i in order[:count]), {"cut_count": count})


def eliminate_largest_gap(reports, config: DefenseConfig) -> EliminationOutcome:
    """Split the sorted losses at their widest consecutive gap and drop the top."""
    ids, losses = _losses(reports)
    if len(ids) < 2:
        return _outcome(ids, losses, (), {"too_few_reports": True})
    order = np.argsort(losses, kind="stable")
    gaps = np.diff(losses[order])
    widest = float(gaps.max())
    if widest <= 0.0:
        return _outcome(ids, losses, (), {"gap": 0.0})
    # Last occurrence of the widest gap: ties eliminate as few clients as possible.
    cut = int(np.flatnonzero(gaps == widest)[-1])
    return _outcome(
        ids,
        losses,
        (ids[i] for i in order[cut + 1 :]),
        {"gap": widest, "boundary_loss": float(losses[order[cut]])},
    )


def eliminate_zscore(reports, config: DefenseConfig) -> EliminationOutcome:
    """Drop reports whose Z-score magnitude exceeds zscore_threshold.

    Uses the population standard deviation. With zscore_one_sided only
    unusually high losses are dropped, never unusually low ones.
    """
    ids, losses = _losses(reports)
    mu = float(losses.mean())
    sigma = float(losses.std())
    diagnostics = {"mean": mu, "std": sigma}
    if sigma < 1e-12:
        return _outcome(ids, losses, (), diagnostics)
    z = (losses - mu) / sigma
    flag = (z if config.zscore_one_sided else np.abs(z)) > config.zscore_threshold
    return _outcome(ids, losses, (cid for cid, f in zip(ids, flag) if f), diagnostics)


def eliminate_kmeans(reports, config: DefenseConfig) -> EliminationOutcome:
    """Two-cluster 1-D Lloyd iteration; drop the high-loss cluster if separated.

    Centroids start at (min, max). The high cluster is eliminated only when
    the centroid gap exceeds kmeans_guard times the pooled within-cluster
    spread; guard 0 recovers the unconditional split-and-drop behavior.
    """
    ids, losses = _losses(reports)
    c_low, c_high = float(losses.min()), float(losses.max())
    if c_high - c_low < 1e-15:
        diagnostics = {"centroids": (c_low, c_high), "pooled_std": 0.0, "guard_passed": False}
        return _outcome(ids, losses, (), diagnostics)
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
    if not guard_passed:
        return _outcome(ids, losses, (), diagnostics)
    return _outcome(ids, losses, (cid for cid, f in zip(ids, in_high) if f), diagnostics)


def _eliminate_none(reports, config: DefenseConfig) -> EliminationOutcome:
    ids, losses = _losses(reports)
    return _outcome(ids, losses, (), {})


# Each defense kind and the eliminator it runs.
_ELIMINATORS = {
    "none": _eliminate_none,
    "fixed_fraction": eliminate_fixed_fraction,
    "largest_gap": eliminate_largest_gap,
    "zscore": eliminate_zscore,
    "kmeans": eliminate_kmeans,
}
DEFENSE_KINDS = tuple(_ELIMINATORS)


def run_eliminator(reports, config: DefenseConfig) -> EliminationOutcome:
    """Judge a round's {client_id: noisy_loss} reports with the configured defense kind."""
    return _ELIMINATORS[config.kind](reports, config)


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
