"""Behaviour lock: per-epoch means of the README desk experiment under each defense.

The desk config is the library default (50 clients, 10 per round, 15 global
epochs, MLP [64, 32, 10], 3 repeats) on the CLI's default synthetic data.
A change that alters these numbers on purpose rewrites the file (run this
module) and says why.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from fedsim import DefenseConfig, FederationConfig, run_experiment, synthesize

GOLDEN = Path(__file__).with_name("desk_golden.json")

# (defense kind, malicious fraction) of every locked config.
DESK_ARMS = (
    ("none", 0.0),
    ("none", 0.4),
    ("fixed_fraction", 0.4),
    ("largest_gap", 0.4),
    ("zscore", 0.4),
    ("kmeans", 0.4),
)


def desk_epoch_means() -> dict:
    """'<kind>@<fraction>' -> the experiment's epoch_means, one dict per global epoch."""
    base = FederationConfig()
    train, test = (
        synthesize(10, per_class, 64, 6.0, seed=[base.seed, stream], noise_std=1.0)
        for per_class, stream in ((200, 1000), (50, 1001))
    )
    return {
        f"{kind}@{fraction}": run_experiment(
            replace(base, malicious_fraction=fraction, defense=DefenseConfig(kind=kind)),
            train,
            test,
        ).epoch_means
        for kind, fraction in DESK_ARMS
    }


def test_desk_epoch_means_match_golden():
    got = desk_epoch_means()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name, epochs in want.items():
        assert len(got[name]) == len(epochs), name
        for epoch, (g, w) in enumerate(zip(got[name], epochs)):
            assert g == pytest.approx(w, rel=1e-9, abs=0.0), f"{name} epoch {epoch}"


if __name__ == "__main__":
    # Rewrite the golden file from the current code: PYTHONPATH=src python tests/test_desk_golden.py
    GOLDEN.write_text(json.dumps(desk_epoch_means(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
