"""Behaviour locks: per-epoch means of the README desk experiment under each
defense, and every round of a cross-device experiment.

The desk config is the library default (50 clients, 10 per round, 15 global
epochs, MLP [64, 32, 10], 3 repeats) on the CLI's default synthetic data. It
trains each round's clients as one stack. The cross-device config has 300
clients of 4 samples and trains 120 of them a round in 10 stacks, and kmeans
eliminates clients from several stacks of one round, so the locked numbers
depend on which slice of which stack every retained client is averaged from.
A change that alters these numbers on purpose rewrites both files (run this
module) and says why.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from fedsim import DefenseConfig, FederationConfig, federation, run_experiment, synthesize

GOLDEN = Path(__file__).with_name("desk_golden.json")
CROSS_DEVICE_GOLDEN = Path(__file__).with_name("cross_device_golden.json")

# (defense kind, malicious fraction) of every locked config.
DESK_ARMS = (
    ("none", 0.0),
    ("none", 0.4),
    ("fixed_fraction", 0.4),
    ("largest_gap", 0.4),
    ("zscore", 0.4),
    ("kmeans", 0.4),
)


CROSS_DEVICE = FederationConfig(
    total_clients=300,
    clients_per_round=120,
    global_epochs=12,
    client_epochs=1,
    malicious_fraction=0.2,
    defense=DefenseConfig(kind="kmeans", kmeans_guard=3.0),
)


def synthetic_pair(per_class: int, seed: int):
    """The CLI's default synthetic train and test sets, with per_class training samples."""
    return tuple(
        synthesize(10, count, 64, 6.0, seed=[seed, stream], noise_std=1.0)
        for count, stream in ((per_class, 1000), (50, 1001))
    )


def desk_epoch_means() -> dict:
    """'<kind>@<fraction>' -> the experiment's epoch_means, one dict per global epoch."""
    base = FederationConfig()
    train, test = synthetic_pair(200, base.seed)
    return {
        f"{kind}@{fraction}": run_experiment(
            replace(base, malicious_fraction=fraction, defense=DefenseConfig(kind=kind)),
            train,
            test,
        ).epoch_means
        for kind, fraction in DESK_ARMS
    }


def cross_device_rounds() -> dict:
    """The cross-device experiment's epoch_means and every round's eliminated ids, per repeat."""
    report = run_experiment(CROSS_DEVICE, *synthetic_pair(120, CROSS_DEVICE.seed))
    return {
        "epoch_means": report.epoch_means,
        "eliminated": [[list(record.eliminated) for record in run] for run in report.runs],
    }


def assert_means_match(got: list, want: list, name: str) -> None:
    assert len(got) == len(want), name
    for epoch, (g, w) in enumerate(zip(got, want)):
        assert g == pytest.approx(w, rel=1e-9, abs=0.0), f"{name} epoch {epoch}"


def test_desk_epoch_means_match_golden():
    got = desk_epoch_means()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name, epochs in want.items():
        assert_means_match(got[name], epochs, name)


def test_cross_device_rounds_match_golden():
    got = cross_device_rounds()
    want = json.loads(CROSS_DEVICE_GOLDEN.read_text(encoding="utf-8"))
    assert got["eliminated"] == want["eliminated"]
    assert_means_match(got["epoch_means"], want["epoch_means"], "cross_device")


def test_cross_device_lock_spans_stacks():
    """The lock's premise: at least three stacks a round, and a round that
    eliminates clients from more than one of them."""
    state = federation.init_state(CROSS_DEVICE, *synthetic_pair(120, CROSS_DEVICE.seed))
    want = json.loads(CROSS_DEVICE_GOLDEN.read_text(encoding="utf-8"))
    stacks_hit = []
    for epoch, eliminated in enumerate(want["eliminated"][0]):
        selected = federation.select_clients(
            federation._rng(state, federation._STREAM_SELECT, epoch),
            CROSS_DEVICE.total_clients,
            CROSS_DEVICE.clients_per_round,
        )
        groups = federation._training_groups(state, selected)
        assert len(groups) >= 3
        stacks_hit.append(sum(1 for group in groups if set(group) & set(eliminated)))
    assert max(stacks_hit) > 1, stacks_hit


if __name__ == "__main__":
    # Rewrite both golden files from the current code: PYTHONPATH=src python tests/test_desk_golden.py
    for path, build in ((GOLDEN, desk_epoch_means), (CROSS_DEVICE_GOLDEN, cross_device_rounds)):
        path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
