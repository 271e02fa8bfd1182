"""Tests for the federated loop: selection, local training, FedAvg, rounds."""

import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import cli, federation, nn
from fedsim.data import ClientGroup, Dataset, IdxData, SyntheticData, partition, poison_shards, synthesize
from fedsim.defense import DEFENSE_KINDS, DefenseConfig
from fedsim.federation import FederationConfig
from fedsim.privacy import LdpConfig, perturb_loss
from reference_sim import client_data, client_round, mean_model, reference_epoch_means, reference_runs


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

def stack_models(models):
    """The stack a local_train call over these clients' models would return."""
    return nn.ModelParams(
        tuple(np.stack(layer) for layer in zip(*(m.weights for m in models))),
        tuple(np.stack(layer) for layer in zip(*(m.biases for m in models))),
    )


def random_models(count, rng, dims=(3, 4, 2)):
    return [nn.init_params(dims, rng) for _ in range(count)]


def assert_same_params(got: nn.ModelParams, want: nn.ModelParams):
    got_arrays, want_arrays = got.weights + got.biases, want.weights + want.biases
    assert [a.shape for a in got_arrays] == [a.shape for a in want_arrays]
    for a, b in zip(got_arrays, want_arrays):
        assert a.tobytes() == b.tobytes()


def test_fed_avg_matches_naive_mean():
    models = random_models(7, np.random.default_rng(0))
    avg = federation.fed_avg([stack_models(models[:3]), stack_models(models[3:])])
    for k in range(len(avg.weights)):
        naive = sum(m.weights[k] for m in models) / 7
        np.testing.assert_allclose(avg.weights[k], naive, atol=1e-12, rtol=0)
        naive_b = sum(m.biases[k] for m in models) / 7
        np.testing.assert_allclose(avg.biases[k], naive_b, atol=1e-12, rtol=0)


def test_fed_avg_order_invariant_bitwise():
    models = random_models(5, np.random.default_rng(5))
    a = federation.fed_avg([stack_models(models)])
    # The same clients in the same order, stacked differently and handed over by a generator.
    b = federation.fed_avg(stack_models(models[lo:hi]) for lo, hi in ((0, 1), (1, 3), (3, 5)))
    assert_same_params(a, b)


def test_fed_avg_single_update_is_identity():
    models = random_models(3, np.random.default_rng(2))
    avg = federation.fed_avg([stack_models(models[1:2])])
    assert_same_params(avg, models[1])


def test_fed_avg_rejects_empty_and_mismatched():
    rng = np.random.default_rng(0)
    stack = stack_models(random_models(1, rng))
    with pytest.raises(ValueError, match="at least one client"):
        federation.fed_avg([])
    no_clients = nn.ModelParams(tuple(w[:0] for w in stack.weights), tuple(b[:0] for b in stack.biases))
    with pytest.raises(ValueError, match="at least one client"):
        federation.fed_avg([no_clients])
    with pytest.raises(ValueError, match="disagree on model dims"):
        federation.fed_avg([stack, stack_models(random_models(1, rng, dims=(3, 5, 2)))])


def test_fed_avg_rejects_a_lone_model():
    """A 2-D model has no client axis to average over."""
    [model] = random_models(1, np.random.default_rng(3))
    problem = re.escape("a stack needs a leading client axis, got weights of shape (4, 3)")
    with pytest.raises(ValueError, match=problem):
        federation.fed_avg([model])


def test_fed_avg_counts_a_stack_given_twice_twice():
    models = random_models(3, np.random.default_rng(4))
    pair = stack_models(models[:2])
    got = federation.fed_avg([pair, pair, stack_models(models[2:])])
    assert_same_params(got, mean_model(dict(enumerate(models[:2] + models[:2] + models[2:]))))


# CI runs this on the newest numpy and on the numpy 1.24 leg, the oldest numpy
# fedsim supports: that leg confirms fed_avg's reduction order there too.
@settings(max_examples=80)
@given(
    ids=st.sets(st.integers(0, 120), min_size=1, max_size=48).map(sorted),
    cuts=st.sets(st.integers(1, 47)),
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 3]),
    width=st.sampled_from([1, 2, 4]),
)
# fed_avg reduces a stack's client axis in one call, except for parameters of one
# element per client, where numpy would sum that axis pairwise, and one-client
# stacks. From 17 clients on, numpy's pairwise sum would change the bits of
# one-element parameters. Pinned: the reduction over more than 8 clients, 12
# clients whose (1, 1) weight and width-1 bias take the loop, one stack of 27
# clients (cross_device's full stack under the default cap) on each path, and
# 12 one-client stacks.
@example(ids=list(range(12)), cuts=set(), seed=0, dim=3, width=4)
@example(ids=list(range(12)), cuts=set(), seed=0, dim=1, width=1)
@example(ids=list(range(27)), cuts=set(), seed=0, dim=3, width=4)
@example(ids=list(range(27)), cuts=set(), seed=0, dim=1, width=1)
@example(ids=list(range(12)), cuts=set(range(1, 12)), seed=0, dim=3, width=2)
def test_fed_avg_matches_ascending_id_loop_bit_for_bit(ids, cuts, seed, dim, width):
    """An ascending id list cut into random consecutive stacks, one client each
    or more, averages to the bits of adding each client's parameters alone, in
    ascending id."""
    bounds = [0, *sorted(c for c in cuts if c < len(ids)), len(ids)]
    rng = np.random.default_rng(seed)
    models = dict(zip(ids, random_models(len(ids), rng, dims=(dim, width, 2))))
    stacks = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    trained = (stack_models([models[cid] for cid in run]) for run in stacks)
    assert_same_params(federation.fed_avg(trained), mean_model(models))


def test_fed_avg_writes_into_none_of_its_stacks():
    """Neither owned stacks nor the read-only broadcast that local_train returns at
    client_epochs 0 are written, on the reduction path or the per-client loop."""
    rng = np.random.default_rng(9)
    dims = (1, 1, 2)  # the (1, 1) weight and width-1 bias take the loop, the last layer the reduction
    global_model = nn.init_params(dims, rng)
    [group] = make_groups(rng, [(3, 5)], dim=1, classes=2)
    broadcast = federation.local_train(global_model, group, train_config(0, 0.4, 5), np.zeros((3, 0, 5), int))
    assert not broadcast.weights[0].flags.writeable
    owned = random_models(5, rng, dims=dims)
    stacks = [broadcast, stack_models(owned[:4]), stack_models(owned[4:])]
    before = [[a.tobytes() for a in s.weights + s.biases] for s in stacks]
    got = federation.fed_avg(stacks)
    assert [[a.tobytes() for a in s.weights + s.biases] for s in stacks] == before
    assert_same_params(got, mean_model(dict(enumerate([global_model] * 3 + owned))))


# --- report_losses and local_train ---------------------------------------------

# The client streams' entropy in these tests: client cid draws as default_rng([*ENTROPY, cid]).
ENTROPY = (7, 0, federation._STREAM_CLIENT, 0)


def train_config(client_epochs, client_lr, batch_size, ldp=LdpConfig()):
    """A FederationConfig that sets only what the report and local_train read."""
    return FederationConfig(client_epochs=client_epochs, client_lr=client_lr, batch_size=batch_size, ldp=ldp)


def make_groups(rng, shapes, dim=4, classes=3, ids=None):
    """Client groups over one shared training set: group j holds shapes[j] = (C, n),
    C clients of n sorted rows each, drawn at random so they interleave. The ids run
    0, 1, ... across the groups unless given."""
    sizes = [c * n for c, n in shapes]
    total = sum(sizes) + 3  # 3 rows that no client holds
    source = Dataset(rng.random((total, dim)), rng.integers(0, classes, size=total), classes)
    cuts = np.split(rng.permutation(total)[: sum(sizes)], np.cumsum(sizes)[:-1])
    ids = np.arange(sum(c for c, _ in shapes)) if ids is None else np.array(ids)
    groups, first = [], 0
    for (c, n), rows in zip(shapes, cuts):
        rows = np.sort(rows.reshape(c, n), axis=1)
        groups.append(ClientGroup(source, ids[first : first + c], rows, source.labels[rows], np.zeros(c, dtype=bool)))
        first += c
    return groups


def report(model, group, config, entropy=ENTROPY):
    """A group's noisy losses and batch orders, composed as global_round composes them."""
    orders, uniforms = federation._client_draws(entropy, group.ids, config.client_epochs, group.samples)
    return perturb_loss(federation.report_losses(model, group), config.ldp, uniforms), orders


def report_and_train(model, group, config, entropy=ENTROPY):
    """Both steps over the same clients, as a round that retains them all runs them."""
    noisy_losses, orders = report(model, group, config, entropy)
    return noisy_losses, federation.local_train(model, group, config, orders)


def test_local_train_zero_epochs_returns_global_weights():
    rng = np.random.default_rng(0)
    [group] = make_groups(rng, [(1, 12)])
    model = nn.init_params((4, 3), rng)
    orders, _ = federation._client_draws(ENTROPY, group.ids, 0, 12)
    assert orders.shape == (1, 0, 12)
    trained = federation.local_train(model, group, train_config(0, 0.5, 4), orders)
    assert [w.shape for w in trained.weights] == [(1, *w.shape) for w in model.weights]
    for wa, wb in zip(trained.weights, model.weights):
        np.testing.assert_array_equal(wa[0], wb)


def test_local_train_reports_loss_of_incoming_model():
    # The reported loss describes the global model before local fitting;
    # noise at the default scale (1e-4) is far below the check tolerance.
    rng = np.random.default_rng(3)
    [group] = make_groups(rng, [(1, 12)])
    features, labels, _ = client_data([group])[0]
    model = nn.init_params((4, 3), rng)
    incoming, _ = nn.softmax_cross_entropy(nn.forward(model, features), labels)
    assert federation.report_losses(model, group).tobytes() == np.float64(incoming).tobytes()
    [noisy_loss], stack = report_and_train(model, group, train_config(3, 0.5, 4))
    assert noisy_loss == pytest.approx(incoming, abs=1e-2)
    trained, _ = nn.softmax_cross_entropy(nn.forward(stack, features[None]), labels[None])
    assert trained < incoming  # training actually reduced the local loss


def test_report_losses_names_the_client_and_row_behind_a_non_finite_loss():
    rng = np.random.default_rng(0)
    [group] = make_groups(rng, [(3, 6)])
    row = int(group.rows[1, 2])
    group.source.features[row, 1] = np.nan
    model = nn.init_params((4, 3), rng)
    shown = f"client 1 has a non-finite loss nan; its training-set row {row} has a non-finite feature"
    with pytest.raises(ValueError, match=re.escape(shown)):
        federation.report_losses(model, group)


def assert_same_weights(got: nn.ModelParams, i: int, want_model):
    """Client i of the stack got has the oracle's weights, bit for bit."""
    slice_i = nn.ModelParams(tuple(w[i] for w in got.weights), tuple(b[i] for b in got.biases))
    assert_same_params(slice_i, want_model)


def assert_same_report(got, want_loss):
    """A reported noisy loss is the oracle's float64, bit for bit."""
    assert np.float64(got).tobytes() == np.float64(want_loss).tobytes()


def test_local_train_matches_per_client_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    # 13 samples in batches of 5 leave a short last batch; 13 rows of loss exceed
    # the 8-way unrolled summation of numpy, so a changed reduction order would show.
    [group] = make_groups(rng, [(4, 13)], dim=6, classes=4, ids=(1, 3, 5, 8))
    model = nn.init_params((6, 9, 4), rng)
    ldp = LdpConfig(epsilon=0.5)
    noisy_losses, got = report_and_train(model, group, train_config(3, 0.4, 5, ldp))
    assert noisy_losses.dtype == np.float64
    assert len(got.weights[0]) == len(group)
    for i, (cid, (features, labels, _)) in enumerate(client_data([group]).items()):
        want_loss, want_model = client_round(
            model, features, labels, train_config(3, 0.4, 5, ldp), np.random.default_rng([*ENTROPY, cid])
        )
        assert_same_report(noisy_losses[i], want_loss)
        assert_same_weights(got, i, want_model)


@pytest.mark.parametrize("clients", [1, 3])
def test_local_train_owns_contiguous_weights_and_leaves_global_model_alone(clients):
    """The first step copies the stack out of the read-only broadcast; later steps
    write only into that copy."""
    rng = np.random.default_rng(4)
    [group] = make_groups(rng, [(clients, 13)], dim=6, classes=4)
    model = nn.init_params((6, 9, 4), rng)
    before = [a.tobytes() for a in model.weights + model.biases]
    _, got = report_and_train(model, group, train_config(3, 0.4, 5))
    assert [a.tobytes() for a in model.weights + model.biases] == before
    for a in got.weights + got.biases:
        assert a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("label", [3, -1])
def test_local_train_rejects_out_of_range_label_before_any_step(monkeypatch, label):
    rng = np.random.default_rng(6)
    [group] = make_groups(rng, [(2, 12)])
    bad = group.labels.copy()
    bad[1, 5] = label
    group = replace(group, labels=bad)  # ClientGroup checks no label against classes: only the federation can
    model = nn.init_params((4, 3), rng)

    def no_step(*args):
        raise AssertionError("a training step ran")

    for name in ("backward", "sgd_step", "descend"):
        monkeypatch.setattr(nn, name, no_step)
    problem = re.escape("client 1 has a label out of range [0, 3)")
    with pytest.raises(ValueError, match=problem):
        federation.report_losses(model, group)
    # The training step checks too: nn.descend reads labels unchecked.
    orders = np.broadcast_to(np.arange(12), (2, 2, 12))
    with pytest.raises(ValueError, match=problem):
        federation.local_train(model, group, train_config(2, 0.5, 4), orders)


def test_local_train_rejects_bad_orders():
    rng = np.random.default_rng(0)
    model = nn.init_params((4, 3), rng)
    [first] = make_groups(rng, [(1, 12)])
    cfg = train_config(1, 0.5, 4)
    # Batch orders that are missing, for another epoch count, reach past the shard,
    # are not integers, or repeat a row.
    _, orders = report(model, first, cfg)
    bad_orders = (
        orders[:0], np.concatenate([orders, orders], axis=1), orders + 1, orders - 1,
        orders.astype(np.float64), np.zeros_like(orders),
    )
    for bad in bad_orders:
        with pytest.raises(ValueError, match="orders of shape"):
            federation.local_train(model, first, cfg, bad)


# The inputs a fuzzed group may spoil, one at a time; "none" spoils nothing.
GROUP_SPOILERS = (
    "none", "label_negative", "label_too_high", "orders_shape", "orders_dtype", "orders_values", "lone_model",
    "other_dims",
)


@st.composite
def client_groups(draw, spoiler):
    """A round's report groups, with the input spoiler names spoiled. Returns a dict:
    groups, 1 to 3 groups of 1 to 3 clients over one training set, ids ascending,
    each of its own shard size; model and config; spoil_orders, applied to the last
    group's orders; extra, stacks fed_avg gets after the trained ones; problem, the
    words that name the spoiled input, or None."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    classes, dim = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6)), min_size=1, max_size=3))
    groups = make_groups(rng, shapes, dim, classes)
    model = nn.init_params((dim, *draw(st.lists(st.integers(1, 4), max_size=2)), classes), rng)
    epochs = draw(st.integers(1 if spoiler.startswith("orders") else 0, 2))
    config = train_config(
        epochs, draw(st.floats(0.05, 1.0)), draw(st.integers(1, 4)), LdpConfig(epsilon=draw(st.floats(0.1, 10.0)))
    )
    last = groups[-1]
    n = last.samples
    case = dict(groups=groups, model=model, config=config, spoil_orders=lambda orders: orders, extra=[], problem=None)
    if spoiler.startswith("label"):
        victim = draw(st.integers(0, len(last) - 1))
        labels = last.labels.copy()
        labels[victim, draw(st.integers(0, n - 1))] = -1 if spoiler == "label_negative" else classes
        groups[-1] = replace(last, labels=labels)
        case["problem"] = f"client {last.ids[victim]} has a label out of range [0, {classes})"
    if spoiler == "orders_shape":
        axis = draw(st.integers(0, 2))
        case["spoil_orders"] = lambda orders: np.delete(orders, -1, axis=axis)
    elif spoiler == "orders_dtype":
        dtype = draw(st.sampled_from([np.float64, np.bool_]))
        case["spoil_orders"] = lambda orders: orders.astype(dtype)
    elif spoiler == "orders_values":
        client, epoch = draw(st.integers(0, len(last) - 1)), draw(st.integers(0, epochs - 1))
        value = draw(st.sampled_from([-1, n, "repeat"] if n > 1 else [-1, n]))

        def spoil_orders(orders):
            bad = orders.copy()
            bad[client, epoch, 0] = bad[client, epoch, -1] if value == "repeat" else value
            return bad

        case["spoil_orders"] = spoil_orders
    elif spoiler == "lone_model":
        case["extra"] = [model]
        case["problem"] = f"a stack needs a leading client axis, got weights of shape {model.weights[0].shape}"
    elif spoiler == "other_dims":
        case["extra"] = [stack_models([nn.init_params((dim + 1, classes), rng)])]
        case["problem"] = "stacks disagree on model dims"
    if spoiler.startswith("orders"):
        case["problem"] = "orders of shape"
    return case


@pytest.mark.parametrize("spoiler", GROUP_SPOILERS)
@settings(max_examples=50)
@given(data=st.data())
def test_fuzzed_groups_match_the_reference_or_are_rejected_by_name(spoiler, data):
    """Every draw either reports, trains and averages to the bits of reference_sim's
    client_round and mean_model, or raises a ValueError that names its spoiled input.
    A spoiled label is rejected by report_losses, and again by local_train."""
    case = data.draw(client_groups(spoiler), label="case")
    groups, model, config, problem = case["groups"], case["model"], case["config"], case["problem"]
    noisy, stacks = {}, []
    try:
        for group in groups:
            losses, orders = report(model, group, config)
            noisy.update(zip(group.ids.tolist(), losses))
            if group is groups[-1]:
                orders = case["spoil_orders"](orders)
            stacks.append(federation.local_train(model, group, config, orders))
        mean = federation.fed_avg([*stacks, *case["extra"]])
    except ValueError as exc:
        assert problem is not None and problem in str(exc), (problem, exc)
        if problem.startswith("client"):
            last = groups[-1]
            orders = np.broadcast_to(np.arange(last.samples), (len(last), config.client_epochs, last.samples))
            with pytest.raises(ValueError, match=re.escape(problem)):
                federation.local_train(model, last, config, orders)
        return
    assert problem is None
    want = {
        cid: client_round(model, features, labels, config, np.random.default_rng([*ENTROPY, cid]))
        for cid, (features, labels, _) in client_data(groups).items()
    }
    for group, stack in zip(groups, stacks):
        for i, cid in enumerate(group.ids.tolist()):
            assert_same_report(noisy[cid], want[cid][0])
            assert_same_weights(stack, i, want[cid][1])
    assert_same_params(mean, mean_model({cid: trained for cid, (_, trained) in want.items()}))


NO_DEFENSE = DefenseConfig()
CUT_TWO = DefenseConfig(kind="fixed_fraction", fixed_fraction=0.25)


@pytest.mark.parametrize(
    "models_per_stack, defense, expected_sizes",
    [(None, NO_DEFENSE, [1, 1, 1, 5]), (3, NO_DEFENSE, [1, 1, 1, 2, 3]), (3, CUT_TWO, [1, 1, 1, 3])],
    ids=["default_cap", "cap_of_3_models", "cap_of_3_models_fixed_fraction_cuts_2"],
)
def test_global_round_matches_per_client_loop_bit_for_bit(monkeypatch, models_per_stack, defense, expected_sizes):
    """50 samples over 8 clients give shards of 7 and 6 samples; a cap of 3 models
    also cuts a group into stacks. Every selected client reports;
    only the retained ones train."""
    train = synthesize(5, 10, 8, 6.0, seed=[0, 1000])
    test = synthesize(5, 4, 8, 6.0, seed=[0, 1001])
    cfg = small_config(
        total_clients=8, clients_per_round=8, batch_size=4, malicious_fraction=0.25, defense=defense
    )
    state = federation.init_state(cfg, train, test)
    # Hand the two 7-sample shards (clients 0 and 1) to clients 1 and 7, so the
    # shard sizes interleave in id order and the population is four groups of
    # consecutive ids: [0], [1], [2..6], [7].
    state = replace(state, groups=regroup(state.groups, (3, 0, 6, 2, 4, 5, 7, 1)))
    assert [(g.ids.tolist(), g.samples) for g in state.groups] == [([0], 6), ([1], 7), ([2, 3, 4, 5, 6], 6), ([7], 7)]
    population = client_data(state.groups)
    if models_per_stack:
        model_bytes = sum(p.nbytes for p in state.model.weights + state.model.biases)
        monkeypatch.setattr(federation, "_STACK_BYTES", models_per_stack * model_bytes)
    calls, reported = [], {}
    train_group, eliminate = federation.local_train, federation.run_eliminator

    def recording_local_train(global_model, group, *args):
        stack = train_group(global_model, group, *args)
        calls.append((group.ids.tolist(), stack))
        return stack

    def recording_eliminator(reports, config):
        reported.update(reports)
        return eliminate(reports, config)

    monkeypatch.setattr(federation, "local_train", recording_local_train)
    monkeypatch.setattr(federation, "run_eliminator", recording_eliminator)
    model_before = state.model
    record = federation.global_round(state, epoch=0)

    assert list(reported) == list(record.selected) == list(range(8))  # reports come back in selected order
    assert len(record.eliminated) == (2 if defense is CUT_TWO else 0)  # round(0.25 * 8)
    want = {
        cid: client_round(
            model_before, *population[cid][:2], cfg,
            np.random.default_rng([*state.seed_prefix, federation._STREAM_CLIENT, 0, cid]),
        )
        for cid in record.selected
    }
    for cid, loss in reported.items():
        assert_same_report(loss, want[cid][0])
    groups = [ids for ids, _ in calls]
    assert sorted(cid for ids in groups for cid in ids) == sorted(set(record.selected) - set(record.eliminated))
    assert all(len({population[cid][1].size for cid in ids}) == 1 for ids in groups)
    assert sorted(len(ids) for ids in groups) == expected_sizes
    for ids, stack in calls:
        # Slice i of a stack is the model of the i-th client of the group that local_train was handed.
        assert len(stack.weights[0]) == len(ids)
        for i, cid in enumerate(ids):
            assert_same_weights(stack, i, want[cid][1])


def test_training_stacks_cut_each_groups_retained_clients_alone(monkeypatch):
    """Each report group's retained clients train in stacks of their own, cut at the
    cap: once client 1 (7 samples) is eliminated, client 0 and clients 2 to 4 (all of
    6 samples) still train apart, as they were reported in two groups, and client 1's
    group is dropped. Each stack's orders and rows are its clients' own."""
    rng = np.random.default_rng(5)
    groups = make_groups(rng, [(1, 6), (1, 7), (3, 6), (1, 7)])
    model = nn.init_params((4, 3), rng)
    model_bytes = sum(p.nbytes for p in model.weights + model.biases)
    monkeypatch.setattr(federation, "_STACK_BYTES", 2 * model_bytes)
    assert [group.ids.tolist() for group in groups] == [[0], [1], [2, 3, 4], [5]]
    # Each client's orders array is filled with its id, so it can be traced into the stacks.
    orders = [np.broadcast_to(group.ids[:, None, None], (len(group), 1, group.samples)) for group in groups]
    stacks = federation._training_stacks(model, groups, orders, {0, 2, 3, 4, 5})
    assert [group.ids.tolist() for group, _ in stacks] == [[0], [2, 3], [4], [5]]
    rows = {cid: r for group in groups for cid, r in zip(group.ids.tolist(), group.rows.tolist())}
    for group, drawn in stacks:
        assert drawn[:, 0, 0].tolist() == group.ids.tolist()
        assert group.rows.tolist() == [rows[cid] for cid in group.ids.tolist()]


def regroup(groups, order):
    """The population of groups with client new holding what client order[new] held,
    cut into groups of consecutive ids with equal shard size."""
    held = {int(cid): (g.rows[i], g.labels[i], g.malicious[i]) for g in groups for i, cid in enumerate(g.ids)}
    shards = [held[old] for old in order]
    return [
        ClientGroup(groups[0].source, np.array(run), *(np.array([shards[new][k] for new in run]) for k in range(3)))
        for run in (list(run) for _, run in itertools.groupby(range(len(order)), key=lambda new: shards[new][0].size))
    ]


def test_federation_state_holds_every_client_once_in_ascending_id():
    train, test = small_task()
    state = federation.init_state(small_config(), train, test)  # 8 clients of 15 samples: one group
    [group] = state.groups
    for groups in (
        [group.take(slice(1, None))],
        [group.take(slice(0, 4)), group.take(slice(3, None))],
        [group.take(slice(4, None)), group.take(slice(0, 4))],
        [],
    ):
        with pytest.raises(ValueError, match=re.escape("the groups' ids must be exactly range(8), in order")):
            replace(state, groups=groups)
    assert replace(state, groups=[group.take(slice(0, 3)), group.take(slice(3, None))]).groups[1].ids[0] == 3


# (config, training samples per class) of the README desk experiment, and of a
# cross-device shape: 300 clients, the first 10 of 5 samples and the rest of 4,
# 120 a round, of which fixed_fraction cuts 24; the rest train in about four
# stacks of up to 27 models.
WORK_SHAPES = {
    "desk": (FederationConfig(malicious_fraction=0.4, defense=DefenseConfig(kind="kmeans")), 200),
    "cross_device": (
        FederationConfig(
            total_clients=300, clients_per_round=120, client_epochs=1, malicious_fraction=0.2,
            defense=DefenseConfig(kind="fixed_fraction", fixed_fraction=0.2),
        ),
        121,
    ),
}


def report_groups(state, ids) -> list[list[int]]:
    """Each of the population's groups' clients among ids, a group with none dropped."""
    held = [set(group.ids.tolist()) for group in state.groups]
    return [run for run in ([cid for cid in ids if cid in h] for h in held) if run]


@pytest.mark.parametrize("shape", list(WORK_SHAPES))
def test_round_work_structure(monkeypatch, shape):
    """Counted calls pin a round's work: every selected client reports, in one
    report_losses, _client_draws and perturb_loss call per run of equal shard
    sizes; only the retained clients train, in one local_train call per capped
    stack of each run's retained clients; the new model is evaluated once."""
    cfg, per_class = WORK_SHAPES[shape]
    train, test = (
        synthesize(10, count, 64, 6.0, seed=[cfg.seed, stream]) for count, stream in ((per_class, 1000), (50, 1001))
    )
    state = federation.init_state(cfg, train, test)
    model_bytes = sum(p.nbytes for p in state.model.weights + state.model.biases)
    cap = max(1, federation._STACK_BYTES // model_bytes)
    names = ("report_losses", "_client_draws", "perturb_loss", "local_train", "evaluate_model", "run_eliminator")
    calls = {name: [] for name in names}

    def recording(name):
        inner = getattr(federation, name)

        def wrapper(*args):
            result = inner(*args)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in calls:
        monkeypatch.setattr(federation, name, recording(name))
    cut, runs, stacks = 0, [], []
    for epoch in range(4):
        for made in calls.values():
            made.clear()
        record = federation.global_round(state, epoch)
        [(_, outcome)] = calls["run_eliminator"]
        retained = sorted(outcome.retained)
        trained = [cid for (_, group, *_), _ in calls["local_train"] for cid in group.ids.tolist()]
        assert trained == retained
        reported = [cid for (_, group, *_), _ in calls["report_losses"] for cid in group.ids.tolist()]
        assert reported == list(record.selected)
        drawn = [cid for (_, ids, *_), _ in calls["_client_draws"] for cid in ids.tolist()]
        assert drawn == list(record.selected)
        assert len(calls["perturb_loss"]) == len(calls["report_losses"]) == len(report_groups(state, record.selected))
        kept = set(retained)
        runs_kept = [sum(cid in kept for cid in run) for run in report_groups(state, record.selected)]
        want_stacks = sum(math.ceil(count / cap) for count in runs_kept)
        assert len(calls["local_train"]) == want_stacks
        assert len(calls["evaluate_model"]) == 1
        cut += len(outcome.eliminated)
        runs.append(len(calls["report_losses"]))
        stacks.append(len(calls["local_train"]))
    # The premises: some round eliminates someone, and the cross-device rounds
    # report in two runs and train in many stacks.
    assert cut > 0
    assert shape == "desk" or (min(runs) == 2 and min(stacks) >= 3), (runs, stacks)


# --- client draws ----------------------------------------------------------------

# CI runs this on the numpy 1.24 leg too, so the draw order is confirmed there.
@pytest.mark.parametrize("n", [1, 4, 40, 120])
@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_orders_shuffled_into_rows_draw_what_per_client_permutations_draw(n, epochs):
    """_client_draws shuffles range(n) into each client's row of one orders array,
    then draws the noise uniform. numpy defines permutation(n) as that shuffle, so
    each client's stream is drawn as with one rng.permutation(n) per epoch followed
    by rng.random()."""
    ids = [0, 1, 2]
    orders, uniforms = federation._client_draws(ENTROPY, ids, epochs, n)
    assert orders.shape == (3, epochs, n) and orders.dtype == np.intp
    for i, cid in enumerate(ids):
        want = np.random.default_rng([*ENTROPY, cid])
        for epoch in range(epochs):
            assert orders[i, epoch].tobytes() == want.permutation(n).astype(np.intp).tobytes()
        assert uniforms[i] == want.random()


@settings(max_examples=200)
@given(
    seed=st.one_of(
        st.integers(0, 2**96),
        st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**96]),
    ),
    repeat=st.integers(0, 2**33),
    # Past each 32-bit word boundary, so every prefix field changes the word count.
    epoch=st.one_of(st.integers(0, 500), st.sampled_from([2**32 - 1, 2**32, 2**64])),
    ids=st.sets(st.integers(0, 100_000), min_size=1, max_size=12).map(sorted),
    n=st.integers(1, 9),
    epochs=st.integers(0, 3),
)
def test_client_draws_match_default_rng(seed, repeat, epoch, ids, n, epochs):
    """Client i's orders and uniform are what default_rng([seed, repeat, 4, epoch, ids[i]])
    draws: one rng.permutation(n) per epoch, which numpy defines as the shuffle of
    range(n) that fills the row, then one rng.random()."""
    entropy = [seed, repeat, federation._STREAM_CLIENT, epoch]
    orders, uniforms = federation._client_draws(entropy, ids, epochs, n)
    assert orders.shape == (len(ids), epochs, n) and orders.dtype == np.intp
    assert uniforms.shape == (len(ids),) and uniforms.dtype == np.float64
    for i, cid in enumerate(ids):
        want = np.random.default_rng([*entropy, cid])
        for e in range(epochs):
            assert orders[i, e].tobytes() == want.permutation(n).astype(np.intp).tobytes()
        assert uniforms[i] == want.random()


def test_seed_words_refuse_another_request():
    words = federation._SeedWords(np.arange(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    for request in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="have 4 uint64 words"):
            words.generate_state(*request)


# --- experiment loop ---------------------------------------------------------

def test_run_experiment_deterministic():
    train, test = small_task()
    cfg = small_config(malicious_fraction=0.25, defense=DefenseConfig(kind="kmeans"))
    a = federation.run_experiment(cfg, train, test)
    b = federation.run_experiment(cfg, train, test)
    assert a.runs == b.runs
    assert a.epoch_means == b.epoch_means
    assert a.mean_det_accuracy == b.mean_det_accuracy


@st.composite
def small_experiments(draw):
    """A small config and datasets: 1 to 12 clients whose shards may differ in size,
    any defense kind, multi-word seeds, hidden layers as narrow as 1, and a stack cap
    of 1 to 3 or of 9 to 12 models."""
    classes, dim = draw(st.integers(2, 4)), draw(st.integers(5, 8))
    data_seed = draw(st.integers(0, 99))
    train = synthesize(classes, draw(st.integers(2, 7)), dim, 6.0, seed=[data_seed, 1000])
    test = synthesize(classes, 3, dim, 6.0, seed=[data_seed, 1001])
    total = draw(st.integers(1, min(12, len(train))))
    source, target = draw(st.permutations(range(classes)))[:2]
    defense = DefenseConfig(
        kind=draw(st.sampled_from(DEFENSE_KINDS)),
        fixed_fraction=draw(st.floats(0.0, 0.6)),
        zscore_threshold=draw(st.floats(0.0, 2.0)),
        zscore_one_sided=draw(st.booleans()),
        kmeans_guard=draw(st.floats(0.0, 5.0)),
    )
    config = FederationConfig(
        total_clients=total,
        clients_per_round=draw(st.integers(1, total)),
        global_epochs=draw(st.integers(1, 3)),
        client_epochs=draw(st.integers(0, 2)),
        client_lr=draw(st.floats(0.05, 1.0)),
        batch_size=draw(st.integers(1, 5)),
        malicious_fraction=draw(st.floats(0.0, 0.5)),
        source_class=source,
        target_class=target,
        defense=defense,
        ldp=LdpConfig(epsilon=draw(st.floats(0.1, 10.0)), sensitivity=draw(st.floats(1e-4, 1.0))),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 5), max_size=2))),
        seed=draw(st.integers(0, 2**96) | st.sampled_from([2**32 - 1, 2**32, 2**64])),
        repeats=draw(st.integers(1, 2)),
    )
    return config, train, test, draw(st.integers(1, 3) | st.integers(9, 12))


# Twelve one-sample clients, all trained in one stack of 12, through a hidden layer
# of width 1 and of widths 3 then 1: the fed_avg shapes where a numpy reduction over
# the client axis can sum in another order.
@example(experiment=(
    FederationConfig(total_clients=12, clients_per_round=12, global_epochs=2, malicious_fraction=0.25,
                     source_class=0, target_class=1, hidden_dims=(1,), repeats=1),
    synthesize(2, 6, 5, 6.0, seed=[0, 1000]), synthesize(2, 3, 5, 6.0, seed=[0, 1001]), 12,
))
@example(experiment=(
    FederationConfig(total_clients=12, clients_per_round=11, global_epochs=2, malicious_fraction=0.25,
                     source_class=1, target_class=0, hidden_dims=(3, 1), repeats=1,
                     defense=DefenseConfig(kind="zscore", zscore_threshold=2.0)),
    synthesize(3, 4, 6, 6.0, seed=[1, 1000]), synthesize(3, 3, 6, 6.0, seed=[1, 1001]), 9,
))
@settings(max_examples=200)
@given(experiment=small_experiments())
def test_run_experiment_matches_the_reference_simulator(experiment):
    """run_experiment's round records and epoch means equal those of a naive
    simulator that trains and averages one client at a time."""
    config, train, test, models_per_stack = experiment
    dims = (train.features.shape[1], *config.hidden_dims, train.num_classes)
    model_bytes = 8 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    with mock.patch.object(federation, "_STACK_BYTES", models_per_stack * model_bytes):
        report = federation.run_experiment(config, train, test)
    runs = reference_runs(config, train, test)
    assert report.runs == runs
    assert report.epoch_means == reference_epoch_means(runs)


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
    retained = sorted(set(record.selected) - set(record.eliminated))
    stacks = [
        report_and_train(
            model_before, next(g.take(g.ids == cid) for g in state.groups if cid in g.ids), cfg, (cfg.seed, 0, 4, 0)
        )[1]
        for cid in retained
    ]
    expected = federation.fed_avg(stacks)
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
    shards = [(g.rows[i], g.labels[i], g.malicious[i]) for g in state.groups for i in range(len(g))]
    flagged = [(rows, labels) for rows, labels, malicious in shards if malicious]
    assert len(flagged) == 2  # round(0.25 * 8)
    for rows, labels in flagged:
        assert not np.any(labels == cfg.source_class)
        # Only the labels were flipped: the rows hold source-class samples.
        assert np.any(train.labels[rows] == cfg.source_class)
    honest = [(rows, labels) for rows, labels, malicious in shards if not malicious]
    for rows, labels in honest:
        np.testing.assert_array_equal(labels, train.labels[rows])
    assert np.any(np.concatenate([labels for _, labels in honest]) == cfg.source_class)


def test_init_state_indexes_the_training_set_without_copying_it():
    """Every shard holds the training set by reference: building a repeat's
    shards allocates well under 5% of its feature bytes."""
    rng = np.random.default_rng(8)
    train, test = (Dataset(rng.random((n, 256)), rng.integers(0, 4, size=n), 4) for n in (5000, 8))
    assert train.features.nbytes >= 10**7
    cfg = small_config(total_clients=50, clients_per_round=10, malicious_fraction=0.4, hidden_dims=(4,))
    tracemalloc.start()
    try:
        state = federation.init_state(cfg, train, test, repeat=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * train.features.nbytes
    assert sum(len(group) for group in state.groups) == 50
    assert all(group.source is train for group in state.groups)
    assert sum(int(group.malicious.sum()) for group in state.groups) == 20


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
    for source, target in ((3, 3), (-1, 2)):
        flip = f"label flip (source_class={source}, target_class={target})"
        with pytest.raises(ValueError, match=re.escape(f"{flip} needs two distinct, non-negative classes")):
            small_config(source_class=source, target_class=target)


# Each fault of the label-flip attack, as (malicious_fraction, source_class, target_class) on a
# 4-class training set, and the one message every entry point that sees it gives.
FLIP_FAULTS = {
    "fraction_above_half": ((0.6, 1, 2), "malicious_fraction 0.6 outside [0, 0.5]"),
    "fraction_negative": ((-0.1, 1, 2), "malicious_fraction -0.1 outside [0, 0.5]"),
    "source_is_target": (
        (0.25, 2, 2), "label flip (source_class=2, target_class=2) needs two distinct, non-negative classes"
    ),
    "negative_source": (
        (0.25, -1, 2), "label flip (source_class=-1, target_class=2) needs two distinct, non-negative classes"
    ),
    "class_beyond": (
        (0.25, 12, 2), "label flip (source_class=12, target_class=2) names a class beyond the training set's 4 classes"
    ),
}


# FederationConfig rejects every fault it can see without data, and validate, inside
# run_experiment, the class bound; poison_shards and the CLI see all of them.
FLIP_CASES = [
    *(("FederationConfig", fault) for fault in FLIP_FAULTS if fault != "class_beyond"),
    ("run_experiment", "class_beyond"),
    *((entry, fault) for entry in ("poison_shards", "cli") for fault in FLIP_FAULTS),
]


@pytest.mark.parametrize("entry, fault", FLIP_CASES, ids=[f"{fault}-{entry}" for entry, fault in FLIP_CASES])
def test_each_label_flip_fault_has_one_message_at_every_entry_point(tmp_path, monkeypatch, capsys, entry, fault):
    (fraction, source_class, target_class), message = FLIP_FAULTS[fault]
    flip = dict(malicious_fraction=fraction, source_class=source_class, target_class=target_class)
    no_training = mock.Mock(side_effect=AssertionError("training started before the flip was rejected"))
    monkeypatch.setattr(federation, "init_state", no_training)
    monkeypatch.setattr(cli, "run_experiment", no_training)
    if entry == "cli":
        dataset = {"type": "synthetic", "num_classes": 4, "per_class": 30, "dim": 8, "test_per_class": 10}
        config = tmp_path / "config.json"
        spec = {"dataset": dataset, "total_clients": 8, "clients_per_round": 4, **flip}
        config.write_text(json.dumps(spec), encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    calls = {
        "FederationConfig": lambda: small_config(**flip),
        "run_experiment": lambda: federation.run_experiment(small_config(**flip), *small_task()),
        "poison_shards": lambda: poison_shards(partition(small_task()[0], 8, seed=0), *flip.values(), seed=0),
    }
    with pytest.raises(ValueError) as raised:
        calls[entry]()
    assert str(raised.value) == message


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
    "ldp_scale_underflows": (
        lambda: LdpConfig(epsilon=1e300, sensitivity=1e-300), "sensitivity 1e-300 / epsilon 1e+300"
    ),
    "ldp_scale_overflows": (
        lambda: LdpConfig(epsilon=1e-300, sensitivity=1e300), "sensitivity 1e+300 / epsilon 1e-300"
    ),
    "ldp_largest_draw_overflows": (
        lambda: LdpConfig(sensitivity=1e308), "sensitivity 1e+308 / epsilon 1.0 is too large"
    ),
    "ldp_largest_draw_passes_report_limit": (
        lambda: LdpConfig(sensitivity=1e160), "sensitivity 1e+160 / epsilon 1.0 is too large"
    ),
    "separation_nan": (lambda: synthesize(4, 5, 8, NAN, seed=0), "separation nan"),
    "noise_std_infinite": (lambda: synthesize(4, 5, 8, 6.0, seed=0, noise_std=INF), "noise_std inf"),
    "noise_std_negative": (lambda: synthesize(4, 5, 8, 6.0, seed=0, noise_std=-1.0), "noise_std -1.0"),
    # A value of the wrong kind for its field.
    "total_clients_fractional": (lambda: small_config(total_clients=10.5), "total_clients must be an integer"),
    "batch_size_fractional": (lambda: small_config(batch_size=2.5), "batch_size must be an integer"),
    "client_epochs_fractional": (lambda: small_config(client_epochs=1.5), "client_epochs must be an integer"),
    "global_epochs_bool": (lambda: small_config(global_epochs=True), "global_epochs must be an integer, got True"),
    "client_lr_bool": (lambda: small_config(client_lr=True), "client_lr must be a number, got True"),
    "seed_string": (lambda: small_config(seed="3"), "seed must be an integer, got '3'"),
    "hidden_dims_float_width": (
        lambda: small_config(hidden_dims=(8.0,)), "hidden_dims must be a list of integers"
    ),
    "defense_a_dict": (lambda: small_config(defense={"kind": "kmeans"}), "defense must be a DefenseConfig"),
    "kmeans_max_iters_fractional": (
        lambda: DefenseConfig(kmeans_max_iters=2.5), "kmeans_max_iters must be an integer"
    ),
    "zscore_one_sided_string": (
        lambda: DefenseConfig(kind="zscore", zscore_one_sided="yes"), "zscore_one_sided must be true or false"
    ),
    "zscore_one_sided_integer": (
        lambda: DefenseConfig(zscore_one_sided=1), "zscore_one_sided must be true or false"
    ),
    "epsilon_none": (lambda: LdpConfig(epsilon=None), "epsilon must be a number, got None"),
    "dim_fractional": (lambda: SyntheticData(dim=8.5), "dim must be an integer"),
    "idx_path_not_a_string": (lambda: IdxData(1, "a", "b", "c"), "train_images must be a string, got 1"),
}


@pytest.mark.parametrize("build, shown", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_config_rejects_out_of_range_value_by_name(build, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        build()


def test_config_takes_numpy_scalars_and_numpy_integers_run_as_ints_do(tmp_path):
    config = small_config(
        client_lr=np.float32(0.5), malicious_fraction=0, hidden_dims=[np.int32(4)],
        defense=DefenseConfig(zscore_one_sided=np.bool_(True)),
    )
    assert config.hidden_dims == (4,) and config.defense.zscore_one_sided
    ints = small_config(seed=2**40, global_epochs=1)  # a seed of two 32-bit words
    as_numpy = {name: np.uint64(getattr(ints, name)) for name in ("seed", "total_clients", "batch_size")}
    train, test = small_task()
    want = federation.run_experiment(ints, train, test).runs
    assert federation.run_experiment(replace(ints, **as_numpy), train, test).runs == want
    # Stored as plain Python values, a config of numpy scalars and a list is the plain
    # config: it compares and hashes equal and writes the same reports. An int given
    # for a float field stays an int, as the CLI's JSON echo shows it.
    plain = small_config(
        seed=1, global_epochs=1, client_lr=0.5, malicious_fraction=0, hidden_dims=(4,),
        defense=DefenseConfig(kind="zscore", zscore_one_sided=True),
    )
    numpy = small_config(
        seed=np.int64(1), global_epochs=np.uint8(1), client_lr=np.float32(0.5), malicious_fraction=np.int64(0),
        hidden_dims=[np.int32(4)], defense=DefenseConfig(kind="zscore", zscore_one_sided=np.True_),
    )
    assert numpy == plain and hash(numpy) == hash(plain)
    assert type(numpy.malicious_fraction) is type(plain.malicious_fraction) is int
    for name, cfg in (("plain", plain), ("numpy", numpy)):
        spec = cli.ExperimentSpec(SyntheticData(4, 30, 8), cfg)
        cli.write_reports(spec, federation.run_experiment(cfg, train, test), tmp_path / name)
    for report in ("rounds.csv", "summary.json"):
        assert (tmp_path / "numpy" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes(), report


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
