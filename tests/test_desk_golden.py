"""Behaviour locks: per-epoch means of the README desk experiment under each
defense, and every round of a cross-device experiment.

The desk config is the library default (50 clients, 10 per round, 15 global
epochs, MLP [64, 32, 10], 3 repeats) on the CLI's default synthetic data. It
trains each round's clients as one stack. The cross-device config has 300
clients of 4 samples and trains 120 of them a round in up to 5 stacks, and kmeans
eliminates clients from several stacks of one round, so the locked numbers
depend on which slice of which stack every retained client is averaged from.
A smaller cross-device config at seed 2**64 + 5 locks the path where the seed
spans three 32-bit entropy words of every client stream; its batches of 2 split
each 4-sample shard, so every round's bytes depend on the clients' batch orders.
A change that alters these numbers on purpose rewrites both files (run this
module) and says why.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from desk import desk_report, synthetic_pair
from fedsim import DefenseConfig, FederationConfig, federation, run_experiment

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

# Seed 2**64 + 5: three 32-bit words, so every client stream's entropy has seven.
# Batches of 2 make each client's batch order, drawn from its stream, change its weights.
MULTIWORD_SEED = replace(
    CROSS_DEVICE,
    total_clients=60,
    clients_per_round=30,
    global_epochs=4,
    batch_size=2,
    repeats=2,
    seed=2**64 + 5,
)
MULTIWORD_KEY = f"seed={MULTIWORD_SEED.seed}"


def desk_epoch_means() -> dict:
    """'<kind>@<fraction>' -> the experiment's epoch_means, one dict per global epoch."""
    return {f"{kind}@{fraction}": desk_report(kind, fraction).epoch_means for kind, fraction in DESK_ARMS}


def experiment_rounds(config: FederationConfig, per_class: int) -> dict:
    """An experiment's epoch_means and every round's eliminated ids, per repeat."""
    report = run_experiment(config, *synthetic_pair(per_class, config.seed))
    return {
        "epoch_means": report.epoch_means,
        "eliminated": [[list(record.eliminated) for record in run] for run in report.runs],
    }


def cross_device_rounds() -> dict:
    """The cross-device lock, with the multi-word-seed lock under MULTIWORD_KEY."""
    return {
        **experiment_rounds(CROSS_DEVICE, 120),
        MULTIWORD_KEY: experiment_rounds(MULTIWORD_SEED, 24),
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
    got = experiment_rounds(CROSS_DEVICE, 120)
    want = json.loads(CROSS_DEVICE_GOLDEN.read_text(encoding="utf-8"))
    assert got["eliminated"] == want["eliminated"]
    assert_means_match(got["epoch_means"], want["epoch_means"], "cross_device")


def test_multiword_seed_rounds_match_golden():
    got = experiment_rounds(MULTIWORD_SEED, 24)
    want = json.loads(CROSS_DEVICE_GOLDEN.read_text(encoding="utf-8"))[MULTIWORD_KEY]
    assert got["eliminated"] == want["eliminated"]
    assert any(any(run) for run in got["eliminated"]), "the lock should eliminate someone"
    assert_means_match(got["epoch_means"], want["epoch_means"], MULTIWORD_KEY)


def test_cross_device_lock_spans_stacks():
    """The lock's premise: every round of the first repeat trains its retained
    clients in at least three stacks, so fed_avg folds in many stacks a round."""
    state = federation.init_state(CROSS_DEVICE, *synthetic_pair(120, CROSS_DEVICE.seed))
    want = json.loads(CROSS_DEVICE_GOLDEN.read_text(encoding="utf-8"))
    stacks = []
    for epoch, eliminated in enumerate(want["eliminated"][0]):
        selected = federation.select_clients(
            np.random.default_rng([*state.seed_prefix, federation._STREAM_SELECT, epoch]),
            CROSS_DEVICE.total_clients,
            CROSS_DEVICE.clients_per_round,
        )
        groups = [state.groups[i].take(kept) for i, kept in federation._clients_among(state.groups, selected)]
        orders = [np.zeros((len(group), 0, group.samples), dtype=np.intp) for group in groups]
        retained = set(selected) - set(eliminated)
        stacks.append(len(federation._training_stacks(state.model, groups, orders, retained)))
    assert min(stacks) >= 3, stacks


if __name__ == "__main__":
    # Rewrite both golden files from the current code: PYTHONPATH=src python tests/test_desk_golden.py
    for path, build in ((GOLDEN, desk_epoch_means), (CROSS_DEVICE_GOLDEN, cross_device_rounds)):
        path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
