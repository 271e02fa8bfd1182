"""Tests for the four eliminators and detection scoring.

Every eliminator is run through run_eliminator with a config naming its
kind. Each worked example is checked against hand-computed numbers, and the
shared structural guarantees (partition, permutation/shift invariance) are
checked as hypothesis properties across all eliminators.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsim import defense
from fedsim.defense import DefenseConfig


def reports(*losses):
    return dict(enumerate(losses))


def fixed(fraction):
    return DefenseConfig(kind="fixed_fraction", fixed_fraction=fraction)


finite_losses = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


# --- fixed fraction -------------------------------------------------------

def test_fixed_fraction_zero_eliminates_nobody():
    out = defense.run_eliminator(reports(0.5, 0.1, 0.9), fixed(0.0))
    assert out.eliminated == frozenset()
    assert out.retained == frozenset({0, 1, 2})


def test_fixed_fraction_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    losses = rng.random(10)
    out = defense.run_eliminator(reports(*losses), fixed(0.2))
    expected = set(np.argsort(-losses)[:2].tolist())
    assert out.eliminated == frozenset(expected)


def test_fixed_fraction_rounds_half_up():
    out = defense.run_eliminator(reports(1, 2, 3, 4, 5), fixed(0.25))
    assert len(out.eliminated) == 1  # round(1.25) = 1
    out = defense.run_eliminator(reports(1, 2, 3, 4, 5), fixed(0.3))
    assert len(out.eliminated) == 2  # round(1.5) = 2


def test_fixed_fraction_ties_drop_lower_id_first():
    out = defense.run_eliminator({7: 1.0, 3: 1.0, 5: 0.2}, fixed(0.34))  # round(1.02) = 1
    assert out.eliminated == frozenset({3})


def test_fixed_fraction_validates_inputs():
    with pytest.raises(ValueError):
        defense.run_eliminator({}, fixed(0.2))
    with pytest.raises(ValueError):
        fixed(1.0)


def test_fixed_fraction_retain_one_fallback():
    out = defense.run_eliminator(reports(0.3, 0.8), fixed(0.9))  # round(1.8) = 2
    assert out.retained == frozenset({0})  # lowest loss survives
    assert out.eliminated == frozenset({1})
    assert out.diagnostics["retain_one_fallback"] is True


@given(losses=finite_losses, frac=st.floats(0.0, 0.99))
@settings(max_examples=100)
def test_fixed_fraction_count_property(losses, frac):
    out = defense.run_eliminator(reports(*losses), fixed(frac))
    expected = min(int(np.floor(frac * len(losses) + 0.5)), len(losses) - 1)
    assert len(out.eliminated) == expected


# --- largest gap ----------------------------------------------------------

GAP = DefenseConfig(kind="largest_gap")


def test_largest_gap_worked_example():
    out = defense.run_eliminator(reports(0.10, 0.12, 0.13, 0.90), GAP)
    # Gaps are {0.02, 0.01, 0.77}; the cut falls after 0.13.
    assert out.eliminated == frozenset({3})
    assert out.diagnostics["gap"] == pytest.approx(0.77)


def test_largest_gap_all_equal_eliminates_nobody():
    out = defense.run_eliminator(reports(0.4, 0.4, 0.4), GAP)
    assert out.eliminated == frozenset()


def test_largest_gap_tie_keeps_more_clients():
    out = defense.run_eliminator(reports(1.0, 2.0, 3.0), GAP)
    assert out.eliminated == frozenset({2})


def test_largest_gap_single_report_flagged():
    out = defense.run_eliminator(reports(1.0), GAP)
    assert out.eliminated == frozenset()
    assert out.diagnostics["too_few_reports"] is True


# --- zscore ---------------------------------------------------------------

def zscore(threshold, one_sided=False):
    return DefenseConfig(kind="zscore", zscore_threshold=threshold, zscore_one_sided=one_sided)


def test_zscore_mean_point_always_retained():
    for threshold in (0.1, 0.5, 1.0, 3.0):
        out = defense.run_eliminator(reports(1.0, 2.0, 3.0), zscore(threshold))
        assert 1 in out.retained


def test_zscore_hand_computed_example():
    out = defense.run_eliminator(reports(0.5, 0.5, 0.5, 0.5, 2.0), zscore(1.0))
    assert out.diagnostics["mean"] == pytest.approx(0.8)
    assert out.diagnostics["std"] == pytest.approx(0.6)
    # z(2.0) = 2.0 > 1 eliminated; z(0.5) = -0.5 retained.
    assert out.eliminated == frozenset({4})


def test_zscore_degenerate_sigma():
    out = defense.run_eliminator(reports(1.0, 1.0, 1.0), zscore(1.0))
    assert out.eliminated == frozenset()


def test_zscore_two_sided_drops_low_outliers_one_sided_keeps_them():
    losses = (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -2.0)
    both = defense.run_eliminator(reports(*losses), zscore(1.0))
    assert 6 in both.eliminated
    high_only = defense.run_eliminator(reports(*losses), zscore(1.0, one_sided=True))
    assert 6 not in high_only.eliminated


# --- kmeans ---------------------------------------------------------------

def test_kmeans_perfectly_separated_clusters():
    out = defense.run_eliminator(reports(0.1, 0.1, 0.9, 0.9), DefenseConfig(kind="kmeans"))
    assert out.eliminated == frozenset({2, 3})
    low, high = out.diagnostics["centroids"]
    assert (low, high) == (pytest.approx(0.1), pytest.approx(0.9))
    assert out.diagnostics["pooled_std"] == pytest.approx(0.0)


def test_kmeans_hand_run_lloyd_example():
    out = defense.run_eliminator(
        reports(0.19, 0.20, 0.21, 0.22), DefenseConfig(kind="kmeans", kmeans_guard=1.0)
    )
    low, high = out.diagnostics["centroids"]
    assert low == pytest.approx(0.195)
    assert high == pytest.approx(0.215)
    assert high - low == pytest.approx(0.02)
    assert out.diagnostics["pooled_std"] == pytest.approx(0.00707, abs=1e-4)
    # gap / s is about 2.8 > 1, so the default guard lets the split through:
    # the guard alone does not protect an attack-free round.
    assert out.eliminated == frozenset({2, 3})


def test_kmeans_guard_blocks_marginal_split():
    out = defense.run_eliminator(
        reports(0.19, 0.20, 0.21, 0.22), DefenseConfig(kind="kmeans", kmeans_guard=3.5)
    )
    assert out.eliminated == frozenset()
    assert out.diagnostics["guard_passed"] is False
    assert set(out.diagnostics) == {"centroids", "pooled_std", "guard_passed"}


def test_kmeans_guard_zero_always_splits():
    out = defense.run_eliminator(
        reports(0.20, 0.20001, 0.20002, 0.20003), DefenseConfig(kind="kmeans", kmeans_guard=0.0)
    )
    assert len(out.eliminated) > 0


def test_kmeans_all_equal_losses():
    out = defense.run_eliminator(reports(0.3, 0.3, 0.3), DefenseConfig(kind="kmeans"))
    assert out.eliminated == frozenset()
    assert set(out.diagnostics) == {"centroids", "pooled_std", "guard_passed"}


def brute_force_best_split(losses):
    """Optimal two-cluster 1-D partition by exhaustive contiguous splits."""
    order = np.sort(losses)
    best, best_sse = None, np.inf
    for cut in range(1, len(order)):
        low, high = order[:cut], order[cut:]
        sse = ((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()
        if sse < best_sse:
            best_sse, best = sse, set(high.tolist())
    return best


def test_kmeans_matches_brute_force_on_separated_instances():
    rng = np.random.default_rng(14)
    cfg = DefenseConfig(kind="kmeans", kmeans_guard=0.0)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n))
        spread = 0.1
        centers = (0.0, 4 * spread * n + rng.random() * 5)
        losses = np.concatenate(
            [centers[0] + rng.random(n - k) * spread, centers[1] + rng.random(k) * spread]
        )
        out = defense.run_eliminator(reports(*losses), cfg)
        expected = brute_force_best_split(losses)
        got = {losses[i] for i in out.eliminated}
        assert got == expected


# --- dispatcher and shared properties --------------------------------------

def test_run_eliminator_none_retains_everyone():
    out = defense.run_eliminator(reports(9.0, 0.1), DefenseConfig(kind="none"))
    assert out.eliminated == frozenset()
    assert out.retained == frozenset({0, 1})


def test_run_eliminator_dispatches_each_kind():
    rpts = reports(0.1, 0.1, 0.9, 0.9)
    assert defense.run_eliminator(rpts, DefenseConfig(kind="kmeans")).eliminated == {2, 3}
    assert defense.run_eliminator(rpts, DefenseConfig(kind="largest_gap")).eliminated == {2, 3}
    assert defense.run_eliminator(
        rpts, DefenseConfig(kind="fixed_fraction", fixed_fraction=0.5)
    ).eliminated == {2, 3}
    assert len(defense.run_eliminator(rpts, DefenseConfig(kind="zscore")).eliminated) == 0


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(kind="median")
    with pytest.raises(ValueError):
        DefenseConfig(fixed_fraction=1.0)


ALL_CONFIGS = (
    DefenseConfig(kind="none"),
    DefenseConfig(kind="fixed_fraction", fixed_fraction=0.3),
    DefenseConfig(kind="largest_gap"),
    DefenseConfig(kind="zscore"),
    DefenseConfig(kind="kmeans"),
)


@given(losses=finite_losses, seed=st.integers(0, 100))
# Every |z| is exactly 1, the zscore threshold: summing in report order flipped the verdict.
@example(
    losses=[-5.545881296090664, -5.545881296090664, -4.9847923885619885, -4.9847923885619885],
    seed=0,
)
# Summed in report order, the kmeans centroids' last bits flipped the guard: nobody
# eliminated in id order, 10 of 12 in this shuffled order.
@example(
    losses=[0.30000000000000004, 0.30000000000000004, 0.9000000000000001, 0.7000000000000002,
            0.7000000000000001, 1.1, 1.1, 0.9000000000000001, 1.1, 1.0, 1.0, 0.9],
    seed=94,
)
@settings(max_examples=80)
def test_partition_and_permutation_invariance(losses, seed):
    rpts = reports(*losses)
    items = list(rpts.items())
    np.random.default_rng(seed).shuffle(items)
    shuffled = dict(items)
    for cfg in ALL_CONFIGS:
        out = defense.run_eliminator(rpts, cfg)
        assert out.eliminated | out.retained == set(range(len(losses)))
        assert not (out.eliminated & out.retained)
        assert out.retained
        json.dumps(out.diagnostics)  # plain values, so a round trace can write them
        again = defense.run_eliminator(shuffled, cfg)
        assert again.eliminated == out.eliminated
        assert again.diagnostics == out.diagnostics


@given(
    losses=st.lists(st.integers(-50, 50), min_size=2, max_size=12),
    shift=st.integers(-5, 5),
)
@settings(max_examples=100)
def test_shift_invariance(losses, shift):
    vals = np.array(losses, dtype=float) / 2.0
    for cfg in ALL_CONFIGS[2:]:  # largest_gap, zscore, kmeans
        a = defense.run_eliminator(reports(*vals), cfg)
        b = defense.run_eliminator(reports(*(vals + shift)), cfg)
        # Skip instances sitting exactly on a decision threshold, where a
        # one-ulp rounding difference legitimately flips the verdict.
        if cfg.kind == "zscore" and vals.std() > 1e-12:
            z = np.abs((vals - vals.mean()) / vals.std())
            assume(bool(np.all(np.abs(z - cfg.zscore_threshold) > 1e-9)))
        if cfg.kind == "kmeans" and "guard_passed" in a.diagnostics:
            low, high = a.diagnostics["centroids"]
            margin = (high - low) - cfg.kmeans_guard * max(a.diagnostics["pooled_std"], 1e-12)
            assume(abs(margin) > 1e-9)
        assert b.eliminated == a.eliminated


def test_kmeans_never_eliminates_low_cluster():
    rng = np.random.default_rng(3)
    cfg = DefenseConfig(kind="kmeans", kmeans_guard=0.0)
    for _ in range(100):
        losses = rng.random(int(rng.integers(2, 10)))
        out = defense.run_eliminator(reports(*losses), cfg)
        if out.eliminated:
            cut = min(losses[i] for i in out.eliminated)
            assert all(losses[i] < cut for i in out.retained)


def test_loss_report_rejects_nonfinite():
    for cfg in ALL_CONFIGS:
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="client 1 reported a non-finite loss"):
                defense.run_eliminator({0: 0.5, 1: bad, 2: 0.7}, cfg)


@pytest.mark.parametrize("bad_id, shown", [(True, "True"), (1.5, "1.5")], ids=["bool", "float"])
def test_loss_report_rejects_an_id_that_is_not_an_integer(bad_id, shown):
    for cfg in ALL_CONFIGS:
        with pytest.raises(ValueError, match=f"client ids must be integers, got {shown}"):
            defense.run_eliminator({bad_id: 0.1, 2: 0.3}, cfg)


# --- detection scoring ------------------------------------------------------

def outcome(eliminated, retained):
    return defense.EliminationOutcome(frozenset(eliminated), frozenset(retained))


def test_detection_perfect():
    score = defense.detection_score(outcome({1, 2}, {0, 3}), {1, 2})
    assert (score.accuracy, score.f1) == (1.0, 1.0)


def test_detection_vacuous_conventions():
    score = defense.detection_score(outcome(set(), {0, 1}), set())
    assert score == defense.DetectionScore(1.0, 1.0, 1.0, 1.0)
    # Nothing eliminated but attackers present: precision convention, zero recall.
    score = defense.detection_score(outcome(set(), {0, 1}), {0})
    assert (score.precision, score.recall, score.f1) == (1.0, 0.0, 0.0)


def test_detection_confusion_matrix_example():
    # 10 clients, 4 malicious; eliminator catches 3 of them plus 1 honest.
    truth = {0, 1, 2, 3}
    score = defense.detection_score(outcome({0, 1, 2, 4}, {3, 5, 6, 7, 8, 9}), truth)
    assert score.accuracy == pytest.approx(0.8)
    assert score.precision == pytest.approx(0.75)
    assert score.recall == pytest.approx(0.75)
    assert score.f1 == pytest.approx(0.75)


def test_detection_rejects_unknown_truth_ids():
    with pytest.raises(ValueError):
        defense.detection_score(outcome({0}, {1}), {99})


@pytest.mark.parametrize("name", ["zscore_threshold", "kmeans_guard"])
def test_defense_config_rejects_negative_threshold_by_value(name):
    with pytest.raises(ValueError, match=f"{name} -0.5"):
        DefenseConfig(**{name: -0.5})
    DefenseConfig(**{name: 0.0})
