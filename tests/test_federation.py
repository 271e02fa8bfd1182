"""Tests for the federated loop: selection, local training, FedAvg, rounds."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import federation, nn
from fedsim.data import ClientShard, Dataset, synthesize
from fedsim.defense import DefenseConfig
from fedsim.federation import FederationConfig
from fedsim.privacy import LdpConfig, laplace_sample, laplace_scale


def small_task(noise_std=1.0, seed=0):
    train = synthesize(4, 30, 8, 6.0, seed=[seed, 1000], noise_std=noise_std)
    test = synthesize(4, 10, 8, 6.0, seed=[seed, 1001], noise_std=noise_std)
    return train, test


def small_config(**overrides):
    base = dict(
        total_clients=8,
        clients_per_round=4,
        global_epochs=4,
        client_epochs=2,
        client_lr=0.5,
        batch_size=8,
        source_class=1,
        target_class=2,
        repeats=2,
    )
    base.update(overrides)
    return FederationConfig(**base)


# --- select_clients ---------------------------------------------------------

def test_select_clients_distinct_sorted():
    rng = np.random.default_rng(0)
    for _ in range(50):
        chosen = federation.select_clients(rng, 20, 7)
        assert len(set(chosen)) == 7
        assert list(chosen) == sorted(chosen)
        assert all(0 <= c < 20 for c in chosen)


def test_select_clients_rejects_oversized_draw():
    with pytest.raises(ValueError):
        federation.select_clients(np.random.default_rng(0), 3, 4)


def test_selection_is_roughly_uniform():
    rng = np.random.default_rng(1)
    counts = np.zeros(10)
    for _ in range(2000):
        for c in federation.select_clients(rng, 10, 3):
            counts[c] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.1) < 0.015)


# --- fed_avg ----------------------------------------------------------------

def stack_update(client_ids, models):
    """The StackUpdate a local_train call over these clients' models would return."""
    weights = nn.ModelParams(
        tuple(np.stack(layer) for layer in zip(*(m.weights for m in models))),
        tuple(np.stack(layer) for layer in zip(*(m.biases for m in models))),
    )
    return federation.StackUpdate(tuple(client_ids), weights, np.zeros(len(models)))


def random_models(count, rng, dims=(3, 4, 2)):
    return [nn.init_params(dims, rng) for _ in range(count)]


def naive_fed_avg(models: dict, retained) -> nn.ModelParams:
    """The oracle: each retained client's 2-D parameters added in ascending id, then scaled."""
    ids = sorted(retained)
    sums = [np.zeros_like(p) for p in models[ids[0]].weights + models[ids[0]].biases]
    for cid in ids:
        for acc, p in zip(sums, models[cid].weights + models[cid].biases):
            acc += p
    layers = len(models[ids[0]].weights)
    inv = 1.0 / len(ids)
    return nn.ModelParams(tuple(p * inv for p in sums[:layers]), tuple(p * inv for p in sums[layers:]))


def assert_same_params(got: nn.ModelParams, want: nn.ModelParams):
    got_arrays, want_arrays = got.weights + got.biases, want.weights + want.biases
    assert [a.shape for a in got_arrays] == [a.shape for a in want_arrays]
    for a, b in zip(got_arrays, want_arrays):
        assert a.tobytes() == b.tobytes()


def test_fed_avg_matches_naive_mean():
    models = random_models(7, np.random.default_rng(0))
    avg = federation.fed_avg([stack_update(range(3), models[:3]), stack_update(range(3, 7), models[3:])], range(7))
    for k in range(len(avg.weights)):
        naive = sum(m.weights[k] for m in models) / 7
        np.testing.assert_allclose(avg.weights[k], naive, atol=1e-12, rtol=0)
        naive_b = sum(m.biases[k] for m in models) / 7
        np.testing.assert_allclose(avg.biases[k], naive_b, atol=1e-12, rtol=0)


def test_fed_avg_order_invariant_bitwise():
    models = random_models(5, np.random.default_rng(5))
    a = federation.fed_avg([stack_update(range(5), models)], range(5))
    # The same clients, stacked differently and listed in another order.
    b = federation.fed_avg(
        [stack_update((4, 1), [models[4], models[1]]), stack_update((3, 0, 2), [models[3], models[0], models[2]])],
        (4, 3, 2, 1, 0),
    )
    assert_same_params(a, b)


def test_fed_avg_single_update_is_identity():
    models = random_models(3, np.random.default_rng(2))
    avg = federation.fed_avg([stack_update((0, 1, 2), models)], {1})
    for wa, wb in zip(avg.weights, models[1].weights):
        np.testing.assert_array_equal(wa, wb)


def test_fed_avg_rejects_empty_and_mismatched():
    rng = np.random.default_rng(0)
    update = stack_update((0,), random_models(1, rng))
    with pytest.raises(ValueError):
        federation.fed_avg([], {0})
    with pytest.raises(ValueError):
        federation.fed_avg([update], set())
    with pytest.raises(ValueError, match=re.escape("retained clients [3] are in no update")):
        federation.fed_avg([update], {0, 3})
    with pytest.raises(ValueError):
        federation.fed_avg([update, stack_update((1,), random_models(1, rng, dims=(3, 5, 2)))], {0, 1})


@settings(max_examples=60, deadline=None)
@given(
    seven_samples=st.lists(st.booleans(), min_size=1, max_size=16),
    models_per_stack=st.integers(1, 5),
    data=st.data(),
)
def test_fed_avg_matches_ascending_id_loop_bit_for_bit(seven_samples, models_per_stack, data):
    """Clients with shards of 7 and 6 samples train in separate groups, each cut
    into stacks as global_round cuts them, so the stacks interleave in id order."""
    n = len(seven_samples)
    retained = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="retained")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    models = dict(enumerate(random_models(n, rng)))
    groups = [[cid for cid in range(n) if seven_samples[cid] == size] for size in (True, False)]
    stacks = [
        ids[start : start + models_per_stack] for ids in groups for start in range(0, len(ids), models_per_stack)
    ]
    updates = [stack_update(ids, [models[cid] for cid in ids]) for ids in stacks]
    assert_same_params(federation.fed_avg(updates, retained), naive_fed_avg(models, retained))


# --- local_train --------------------------------------------------------------

def make_shard(rng, n=12, dim=4, classes=3, cid=0):
    ds = Dataset(rng.random((n, dim)), rng.integers(0, classes, size=n), classes)
    return ClientShard(cid, ds)


def test_local_train_zero_epochs_returns_global_weights():
    rng = np.random.default_rng(0)
    shard = make_shard(rng)
    model = nn.init_params((4, 3), rng)
    update = federation.local_train(model, [shard], 0, 0.5, 4, LdpConfig(), [np.random.default_rng(1)])
    assert update.client_ids == (0,)
    for wa, wb in zip(update.weights.weights, model.weights):
        np.testing.assert_array_equal(wa[0], wb)


def test_local_train_reports_loss_of_incoming_model():
    # The reported loss describes the global model before local fitting;
    # noise at the default scale (1e-4) is far below the check tolerance.
    rng = np.random.default_rng(3)
    shard = make_shard(rng)
    model = nn.init_params((4, 3), rng)
    incoming, _ = nn.softmax_cross_entropy(nn.forward(model, shard.data.features), shard.data.labels)
    update = federation.local_train(model, [shard], 3, 0.5, 4, LdpConfig(), [np.random.default_rng(7)])
    [noisy_loss] = update.noisy_losses
    assert noisy_loss == pytest.approx(incoming, abs=1e-2)
    trained, _ = nn.softmax_cross_entropy(
        nn.forward(update.weights, shard.data.features[None]), shard.data.labels[None]
    )
    assert trained < incoming  # training actually reduced the local loss


def test_local_train_rejects_empty_shard():
    model = nn.init_params((4, 3), np.random.default_rng(0))
    empty = ClientShard(0, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3))
    with pytest.raises(ValueError):
        federation.local_train(model, [empty], 1, 0.5, 4, LdpConfig(), [np.random.default_rng(0)])


def reference_local_train(global_model, shard, client_epochs, lr, batch_size, ldp, rng):
    """One client trained alone on 2-D parameters: the oracle for the stacked trainer."""
    n = len(shard.data)
    features, labels = shard.data.features, shard.data.labels
    model = global_model
    raw_loss, _ = nn.softmax_cross_entropy(nn.forward(model, features), labels)
    for _ in range(client_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            grads, _ = nn.backward(model, features[idx], labels[idx])
            model = nn.sgd_step(model, grads, lr)
    return model, raw_loss + laplace_sample(laplace_scale(ldp), rng)


def assert_same_update(got: federation.StackUpdate, i: int, want):
    """Client i of the stack got has the weights and noisy loss of the oracle's want."""
    want_model, want_loss = want
    assert_same_params(
        nn.ModelParams(tuple(w[i] for w in got.weights.weights), tuple(b[i] for b in got.weights.biases)),
        want_model,
    )
    assert got.noisy_losses.dtype == np.float64
    assert got.noisy_losses[i].tobytes() == np.float64(want_loss).tobytes()


def test_local_train_matches_per_client_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    # 13 samples in batches of 5 leave a short last batch; 13 rows of loss exceed
    # the 8-way unrolled summation of numpy, so a changed reduction order would show.
    shards = [make_shard(rng, n=13, dim=6, classes=4, cid=cid) for cid in (3, 1, 8, 5)]
    model = nn.init_params((6, 9, 4), rng)
    ldp = LdpConfig(epsilon=0.5)
    got = federation.local_train(
        model, shards, 3, 0.4, 5, ldp, [np.random.default_rng([7, s.client_id]) for s in shards]
    )
    assert got.client_ids == (3, 1, 8, 5)
    for i, shard in enumerate(shards):
        assert_same_update(
            got, i, reference_local_train(model, shard, 3, 0.4, 5, ldp, np.random.default_rng([7, shard.client_id]))
        )


def test_local_train_rejects_unequal_shards_and_missing_generators():
    rng = np.random.default_rng(0)
    model = nn.init_params((4, 3), rng)
    shards = [make_shard(rng, n=12, cid=0), make_shard(rng, n=11, cid=1)]
    rngs = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(ValueError, match="client 1 has 11 samples"):
        federation.local_train(model, shards, 1, 0.5, 4, LdpConfig(), rngs)
    with pytest.raises(ValueError):
        federation.local_train(model, shards[:1], 1, 0.5, 4, LdpConfig(), rngs)
    with pytest.raises(ValueError):
        federation.local_train(model, [], 1, 0.5, 4, LdpConfig(), [])


@pytest.mark.parametrize("models_per_stack", [None, 3], ids=["default_cap", "cap_of_3_models"])
def test_global_round_matches_per_client_loop_bit_for_bit(monkeypatch, models_per_stack):
    """50 samples over 8 clients give shards of 7 and 6 samples, so one round trains
    two groups; a cap of 3 models also cuts the group of 6 into two stacks."""
    train = synthesize(5, 10, 8, 6.0, seed=[0, 1000])
    test = synthesize(5, 4, 8, 6.0, seed=[0, 1001])
    cfg = small_config(total_clients=8, clients_per_round=8, batch_size=4, malicious_fraction=0.25)
    state = federation.init_state(cfg, train, test)
    # Hand the two 7-sample shards (clients 0 and 1) to clients 1 and 4, so the
    # groups interleave in id order and the round must restore selected order.
    order = (2, 0, 3, 4, 1, 5, 6, 7)
    state.shards = [replace(state.shards[old], client_id=new) for new, old in enumerate(order)]
    assert [len(s.data) for s in state.shards] == [6, 7, 6, 6, 7, 6, 6, 6]
    if models_per_stack:
        model_bytes = sum(p.nbytes for p in state.model.weights + state.model.biases)
        monkeypatch.setattr(federation, "_STACK_BYTES", models_per_stack * model_bytes)
    calls, reported = [], []
    train_group, eliminate = federation.local_train, federation.run_eliminator

    def recording_local_train(global_model, shards, *args):
        update = train_group(global_model, shards, *args)
        calls.append(([s.client_id for s in shards], update))
        return update

    def recording_eliminator(reports, config):
        reported.extend(reports)
        return eliminate(reports, config)

    monkeypatch.setattr(federation, "local_train", recording_local_train)
    monkeypatch.setattr(federation, "run_eliminator", recording_eliminator)
    model_before = state.model
    record = federation.global_round(state, epoch=0)

    assert reported == list(record.selected) == list(range(8))  # updates come back in selected order
    groups = [ids for ids, _ in calls]
    assert sorted(cid for ids in groups for cid in ids) == list(range(8))
    assert all(len({len(state.shards[cid].data) for cid in ids}) == 1 for ids in groups)
    expected_sizes = [2, 3, 3] if models_per_stack else [2, 6]
    assert sorted(len(ids) for ids in groups) == expected_sizes
    for ids, update in calls:
        assert list(update.client_ids) == ids
        for i, cid in enumerate(ids):
            want = reference_local_train(
                model_before, state.shards[cid], cfg.client_epochs, cfg.client_lr,
                cfg.batch_size, cfg.ldp, federation._rng(state, federation._STREAM_CLIENT, 0, cid),
            )
            assert_same_update(update, i, want)


# --- experiment loop ---------------------------------------------------------

def test_run_experiment_deterministic():
    train, test = small_task()
    cfg = small_config(malicious_fraction=0.25, defense=DefenseConfig(kind="kmeans"))
    a = federation.run_experiment(cfg, train, test)
    b = federation.run_experiment(cfg, train, test)
    assert a.runs == b.runs
    assert a.epoch_means == b.epoch_means
    assert a.mean_det_accuracy == b.mean_det_accuracy


def test_honest_baseline_improves_and_eliminates_nobody():
    train, test = small_task()
    cfg = small_config(global_epochs=6)
    report = federation.run_experiment(cfg, train, test)
    for run in report.runs:
        assert all(rec.eliminated == () for rec in run)
    assert report.final_means["accuracy"] > report.epoch_means[0]["accuracy"]
    assert report.final_means["accuracy"] > 0.8


def test_repeats_are_independent_but_seeded():
    train, test = small_task()
    one = federation.run_experiment(small_config(repeats=1), train, test)
    two = federation.run_experiment(small_config(repeats=2), train, test)
    assert two.runs[0] == one.runs[0]  # repeat 0 unaffected by adding repeat 1
    assert two.runs[1] != two.runs[0]


def test_poisoning_without_defense_hurts_source_recall():
    train, test = small_task()
    honest = federation.run_experiment(small_config(global_epochs=6, repeats=3), train, test)
    poisoned = federation.run_experiment(
        small_config(global_epochs=6, repeats=3, malicious_fraction=0.5), train, test
    )
    assert (
        poisoned.final_means["source_recall"] < honest.final_means["source_recall"]
    )


def test_eliminated_clients_do_not_influence_aggregate():
    """A round with defense must equal a FedAvg over only the retained updates."""
    train, test = small_task()
    cfg = small_config(malicious_fraction=0.25, defense=DefenseConfig(kind="fixed_fraction", fixed_fraction=0.25))
    state = federation.init_state(cfg, train, test, repeat=0)
    model_before = state.model
    record = federation.global_round(state, epoch=0)
    assert len(record.eliminated) == 1  # round(0.25 * 4)
    retained = set(record.selected) - set(record.eliminated)
    updates = [
        federation.local_train(
            model_before,
            [state.shards[cid]],
            cfg.client_epochs,
            cfg.client_lr,
            cfg.batch_size,
            cfg.ldp,
            [np.random.default_rng([cfg.seed, 0, 4, 0, cid])],
        )
        for cid in retained
    ]
    expected = federation.fed_avg(updates, retained)
    for wa, wb in zip(state.model.weights, expected.weights):
        assert wa.tobytes() == wb.tobytes()


def test_round_record_detection_fields_consistent():
    train, test = small_task()
    cfg = small_config(malicious_fraction=0.5, defense=DefenseConfig(kind="zscore"))
    report = federation.run_experiment(cfg, train, test)
    for run in report.runs:
        for rec in run:
            assert 0.0 <= rec.det_accuracy <= 1.0
            assert rec.eliminated_count == len(rec.eliminated)
            assert set(rec.eliminated) <= set(rec.selected)


def test_init_state_poisons_exactly_the_marked_shards():
    train, test = small_task()
    cfg = small_config(malicious_fraction=0.25)
    state = federation.init_state(cfg, train, test)
    flagged = [s for s in state.shards if s.is_malicious]
    assert len(flagged) == 2  # round(0.25 * 8)
    for shard in flagged:
        assert not np.any(shard.data.labels == cfg.source_class)
    honest_labels = np.concatenate(
        [s.data.labels for s in state.shards if not s.is_malicious]
    )
    assert np.any(honest_labels == cfg.source_class)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(clients_per_round=9)
    with pytest.raises(ValueError):
        small_config(client_lr=0.0)
    with pytest.raises(ValueError):
        small_config(malicious_fraction=0.6)
    with pytest.raises(ValueError):
        small_config(client_epochs=-1)


def test_label_flip_classes_validation():
    with pytest.raises(ValueError, match="source_class 3 and target_class 3 must differ"):
        small_config(source_class=3, target_class=3)
    with pytest.raises(ValueError, match="source_class -1 and target_class 2 must differ and be non-negative"):
        small_config(source_class=-1, target_class=2)


NAN, INF = float("nan"), float("inf")
OUT_OF_RANGE = {
    "seed_negative": (lambda: small_config(seed=-1), "seed -1"),
    "hidden_dims_zero_width": (lambda: small_config(hidden_dims=(8, 0)), "hidden_dims [8, 0]"),
    "client_lr_nan": (lambda: small_config(client_lr=NAN), "client_lr nan"),
    "client_lr_infinite": (lambda: small_config(client_lr=INF), "client_lr inf"),
    "malicious_fraction_nan": (lambda: small_config(malicious_fraction=NAN), "malicious_fraction nan"),
    "fixed_fraction_nan": (lambda: DefenseConfig(fixed_fraction=NAN), "fixed_fraction nan"),
    "zscore_threshold_infinite": (lambda: DefenseConfig(zscore_threshold=INF), "zscore_threshold inf"),
    "kmeans_guard_nan": (lambda: DefenseConfig(kmeans_guard=NAN), "kmeans_guard nan"),
    "kmeans_max_iters_negative": (lambda: DefenseConfig(kmeans_max_iters=-5), "kmeans_max_iters -5"),
    "epsilon_infinite": (lambda: LdpConfig(epsilon=INF), "epsilon inf"),
    "sensitivity_nan": (lambda: LdpConfig(sensitivity=NAN), "sensitivity nan"),
    "separation_nan": (lambda: synthesize(4, 5, 8, NAN, seed=0), "separation nan"),
    "noise_std_infinite": (lambda: synthesize(4, 5, 8, 6.0, seed=0, noise_std=INF), "noise_std inf"),
    "noise_std_negative": (lambda: synthesize(4, 5, 8, 6.0, seed=0, noise_std=-1.0), "noise_std -1.0"),
}


@pytest.mark.parametrize("build, shown", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_config_rejects_out_of_range_value_by_name(build, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        build()


def keep(train, test):
    return train, test


# Inputs that run_experiment must reject, and the words its error names the problem with.
MISFITS = {
    "poison_class_beyond_classes": (
        {"source_class": 12, "target_class": 3}, keep, "(source_class=12, target_class=3) names a class beyond"
    ),
    "feature_dims_differ": (
        {}, lambda train, test: (train, Dataset(test.features[:, 1:], test.labels, 4)),
        "train samples have 8 features, test samples 7",
    ),
    "test_set_empty": (
        {}, lambda train, test: (train, Dataset(test.features[:0], test.labels[:0], 4)), "test set is empty"
    ),
    "class_counts_differ": (
        {}, lambda train, test: (train, Dataset(test.features, test.labels, 5)),
        "train set has 4 classes, test set 5",
    ),
    "more_clients_than_samples": (
        {"total_clients": 121}, keep, "total_clients 121 exceeds the 120 training samples"
    ),
}


@pytest.mark.parametrize("overrides, datasets, problem", MISFITS.values(), ids=MISFITS.keys())
def test_run_experiment_rejects_misfit_inputs_before_training(monkeypatch, overrides, datasets, problem):
    def no_training(*args):
        raise AssertionError("training started before the inputs were rejected")

    monkeypatch.setattr(federation, "init_state", no_training)
    config = small_config(**overrides)
    assert config.malicious_fraction == 0.0
    with pytest.raises(ValueError, match=re.escape(problem)):
        federation.run_experiment(config, *datasets(*small_task()))
