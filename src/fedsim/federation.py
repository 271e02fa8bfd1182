"""The federated training loop: select, report, defend, train locally, average.

Each global epoch the server samples a subset of clients and ships them the
current model. The round reads each selected client's shard once: every run
of consecutive ids with equal shard size is gathered into one ClientGroup of
arrays (ids, rows, labels, malicious flags). Every selected client first
reports one noisy loss: its loss under the incoming model, noised. The
configured eliminator filters the reports; only the clients it retains then
train locally, in stacks of clients trained together that take their rows,
labels and batch orders from the groups by position, and FedAvg averages
their weights as each stack arrives. The new model is scored on a held-out
honest test set. A report depends on no trained weight, and an eliminated
client's weights would never reach the average, so training only the
retained clients gives the bytes that training every selected client would.
Everything is driven by explicit seeded generators, so a config fully
determines every round record. Client cid in epoch e of repeat r draws from
exactly np.random.default_rng([seed, r, 4, e, cid]): its batch order for each
local epoch, a shuffle of range(n) as rng.permutation(n) draws it, then its
noise. numpy's SeedSequence mixes the round's shared prefix [seed, r, 4, e]
once; fedsim folds in the client ids and hashes out PCG64's seeding words in
one vector pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import nn
from .data import ClientGroup, Dataset, check_field_kinds, check_label_flip, partition, poison_shards
from .defense import DefenseConfig, detection_score, run_eliminator
from .metrics import evaluate_model
from .privacy import LdpConfig, perturb_loss

# Sub-stream tags hung off (seed, repeat) so no two purposes share a stream.
_STREAM_PARTITION = 0
_STREAM_MALICIOUS = 1
_STREAM_INIT = 2
_STREAM_SELECT = 3
_STREAM_CLIENT = 4

# Most bytes of stacked model parameters one local_train call trains at once.
# A larger cap makes fewer calls, each paying its fixed cost for more clients,
# but each call's temporaries (gradients, the sgd_step output, fed_avg's copy)
# grow with it. Above about 768 KiB malloc stops reusing them, and a
# cross-device run takes thousands of page faults (about 8,000 at 1 MiB).
# At 512 KiB the default 64-32-10 model trains 27 clients per call; a model
# above the cap trains one client per call.
_STACK_BYTES = 512 * 1024

# numpy's SeedSequence constants: the hash constants of the entropy mix and
# of the output words (each a start and a multiplier), and the two
# multipliers of the pool mix.
_MASK32 = 0xFFFFFFFF
_MIX_HASH = (0x43B0D7E5, 0x931E8875)
_MIX_MULT = (0xCA01F9DD, 0x4973F715)
_OUT_HASH = (0x8B51F9DD, 0x58F38DED)


@dataclass(frozen=True)
class FederationConfig:
    """One experiment's settings; the label flip's fraction and classes follow data.check_label_flip."""

    total_clients: int = 50
    clients_per_round: int = 10
    global_epochs: int = 15
    client_epochs: int = 5
    client_lr: float = 0.6
    batch_size: int = 12
    malicious_fraction: float = 0.0
    source_class: int = 5  # the label flip: malicious clients relabel source as target
    target_class: int = 3
    defense: DefenseConfig = DefenseConfig()
    ldp: LdpConfig = LdpConfig()
    hidden_dims: tuple[int, ...] = (32,)
    seed: int = 0
    repeats: int = 3

    def __post_init__(self):
        check_field_kinds(self)
        if self.clients_per_round > self.total_clients:
            raise ValueError("clients_per_round exceeds total_clients")
        for name in ("total_clients", "clients_per_round", "global_epochs", "batch_size", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.client_epochs < 0:
            raise ValueError("client_epochs must be non-negative")
        if not 0 < self.client_lr < np.inf:
            raise ValueError(f"client_lr {self.client_lr} must be positive and finite")
        check_label_flip(self.malicious_fraction, self.source_class, self.target_class)
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError(f"hidden_dims {list(self.hidden_dims)} must all be positive")


@dataclass(frozen=True)
class RoundRecord:
    epoch: int
    selected: tuple[int, ...]
    eliminated: tuple[int, ...]
    accuracy: float
    test_loss: float
    source_recall: float
    det_accuracy: float
    det_precision: float
    det_recall: float
    det_f1: float

    @property
    def eliminated_count(self) -> int:
        return len(self.eliminated)


# The RoundRecord metrics averaged per epoch, in report column order.
MEAN_FIELDS = (
    "accuracy",
    "test_loss",
    "source_recall",
    "det_accuracy",
    "det_precision",
    "det_recall",
    "det_f1",
    "eliminated_count",
)


@dataclass
class ExperimentReport:
    """The round records of every repeat, and the aggregates computed from them."""

    runs: list  # runs[repeat][epoch] -> RoundRecord

    @functools.cached_property
    def epoch_means(self) -> list:
        """One dict per epoch: each MEAN_FIELDS metric averaged across repeats."""
        return [
            {name: float(np.mean([getattr(rec, name) for rec in records])) for name in MEAN_FIELDS}
            for records in zip(*self.runs)
        ]

    @property
    def final_means(self) -> dict:
        return self.epoch_means[-1]

    @property
    def mean_det_accuracy(self) -> float:
        return float(np.mean([rec.det_accuracy for run in self.runs for rec in run]))

    @property
    def mean_det_f1(self) -> float:
        return float(np.mean([rec.det_f1 for run in self.runs for rec in run]))


def select_clients(rng: np.random.Generator, total_clients: int, k: int) -> tuple[int, ...]:
    """Uniform sample of k distinct client ids, returned sorted; numpy rejects k > total_clients."""
    chosen = rng.choice(total_clients, size=k, replace=False)
    return tuple(int(c) for c in np.sort(chosen))


def _stack(model: nn.ModelParams, group: ClientGroup) -> tuple[nn.ModelParams, np.ndarray]:
    """A group as one stack: C read-only broadcast copies of model, and the
    group's features of shape (C, n, d), gathered from its training set in one
    fancy index. Every label must lie in [0, classes) of model, since
    nn.descend does not check its labels; a client that holds another is
    rejected by id.
    """
    classes = model.dims[-1]
    if group.labels.min() < 0 or group.labels.max() >= classes:
        bad = ((group.labels < 0) | (group.labels >= classes)).any(axis=1)
        raise ValueError(f"client {group.ids[bad][0]} has a label out of range [0, {classes})")
    c = len(group)
    stack = nn.ModelParams(
        tuple(np.broadcast_to(w, (c, *w.shape)) for w in model.weights),
        tuple(np.broadcast_to(b, (c, *b.shape)) for b in model.biases),
    )
    return stack, group.source.features[group.rows]


def report_losses(
    global_model: nn.ModelParams,
    group: ClientGroup,
    config: FederationConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """A group of clients' noisy loss reports, and the batch orders their training draws.

    The group's losses come from one stacked forward pass over a read-only
    broadcast of global_model. Each client draws from its own generator in
    rngs, in group order: for each of config's client_epochs, rng.shuffle of
    range(n) into its row of one preallocated orders array, which draws what
    rng.permutation(n) would; then the Laplace noise of config's ldp.
    Returns (noisy_losses, orders) in group order: a float64 array of C
    reports and an integer array of shape (C, client_epochs, n) whose [i, e]
    is client i's batch order in epoch e, as local_train takes it.

    The raw loss is the shard's mean loss under the incoming global model,
    monitored at the start of local training; only the noised value leaves
    the client. The training-start loss reflects how well the shared model
    matches the client's labels, which is what separates honest from
    poisoned shards; by the end of local training the client has fit its
    own labels, flipped or not, and the signal is gone.

    A label outside the model's classes, or a non-finite raw loss, raises
    ValueError before any generator is drawn. A non-finite loss names the
    first such client and, if it has one, the first training-set row of that
    client with a non-finite feature.
    """
    if len(group) != len(rngs):
        raise ValueError(f"{len(group)} shards and {len(rngs)} generators; need one each")
    model, features = _stack(global_model, group)
    raw_losses, _ = nn.softmax_cross_entropy(nn.forward(model, features), group.labels)
    if not np.isfinite(raw_losses).all():
        i = int(np.flatnonzero(~np.isfinite(raw_losses))[0])
        bad = ~np.isfinite(features[i]).all(axis=1)
        row = f"; its training-set row {group.rows[i][bad][0]} has a non-finite feature" if bad.any() else ""
        raise ValueError(f"client {group.ids[i]} has a non-finite loss {raw_losses[i]}{row}")
    epochs, n = config.client_epochs, group.samples
    orders = np.empty((len(group), epochs, n), dtype=np.intp)
    orders[...] = np.arange(n)
    # Row k of the flat view is epoch k % epochs of client k // epochs.
    for order, rng in zip(orders.reshape(-1, n), (rng for rng in rngs for _ in range(epochs))):
        rng.shuffle(order)
    return perturb_loss(raw_losses, config.ldp, rngs), orders


def local_train(
    global_model: nn.ModelParams,
    group: ClientGroup,
    config: FederationConfig,
    orders: np.ndarray,
) -> nn.ModelParams:
    """A group of clients' trained weights: mini-batch SGD in the given batch orders.

    The training settings are config's client_epochs, batch_size and client_lr.

    The group trains as one stacked model with a leading client axis, which
    computes exactly what training each client alone would; its features are
    gathered from the training set here. orders is an integer array of shape
    (C, client_epochs, n): orders[i, e] is a permutation of range(n), client
    i's batch order in epoch e, as report_losses draws it; local_train itself
    draws from no generator.

    Returns the trained stack, in group order: slice i is client i's model.
    The stack starts as a read-only broadcast of global_model, which is never
    written. Its first step, through the pure nn.backward and nn.sgd_step,
    gives it C-contiguous arrays of its own; nn.descend updates those in place.
    """
    model, features = _stack(global_model, group)
    labels = group.labels
    c, n = labels.shape
    orders = np.asarray(orders)
    shape = (c, config.client_epochs, n)
    if orders.shape != shape or orders.dtype.kind not in "iu" or (np.sort(orders) != np.arange(n)).any():
        raise ValueError(
            f"orders of shape {orders.shape} and dtype {orders.dtype} must be integer permutations "
            f"of range({n}), of shape {shape}"
        )
    clients = np.arange(c)[:, None]
    for epoch in range(config.client_epochs):
        for start in range(0, n, config.batch_size):
            idx = clients, orders[:, epoch, start : start + config.batch_size]
            if model.weights[0].flags.writeable:
                nn.descend(model, features[idx], labels[idx], config.client_lr)
            else:
                grads, _ = nn.backward(model, features[idx], labels[idx])
                model = nn.sgd_step(model, grads, config.client_lr)
    return model


def fed_avg(stacks) -> nn.ModelParams:
    """Unweighted element-wise mean of every client slice in stacks.

    stacks is any iterable of model stacks with a leading client axis, as
    local_train returns them. Every slice is added in the order given, as its
    stack arrives: the caller's order fixes the bits, however the clients
    were stacked. A stack given twice counts twice.

    Each parameter of a stack is folded in by one reduction over the client
    axis of a copy with the running total in front, which adds the total and
    then each client in order, as a loop over the slices would. That copy
    leaves the caller's stacks, even a read-only broadcast, unwritten. A
    parameter of one element per client, where numpy would sum the client
    axis pairwise, and a stack of one client, where the copy is pure cost,
    are added slice by slice instead.
    """
    sums, count = None, 0
    for stack in stacks:
        if stack.weights[0].ndim != 3:
            raise ValueError(f"a stack needs a leading client axis, got weights of shape {stack.weights[0].shape}")
        params = stack.weights + stack.biases
        if sums is None:
            dims, sums = stack.dims, [np.zeros(p.shape[1:]) for p in params]
        elif stack.dims != dims:
            raise ValueError("stacks disagree on model dims")
        clients = len(params[0])
        for acc, p in zip(sums, params):
            if clients > 1 and acc.size > 1:
                np.add.reduce(np.concatenate((acc[None], p)), axis=0, out=acc)
            else:
                for i in range(clients):
                    acc += p[i]
        count += clients
    if not count:
        raise ValueError("fed_avg needs at least one client")
    inv = 1.0 / count
    layers = len(dims) - 1
    return nn.ModelParams(tuple(w * inv for w in sums[:layers]), tuple(b * inv for b in sums[layers:]))


@dataclass
class FederationState:
    config: FederationConfig
    shards: list
    test_set: Dataset
    model: nn.ModelParams
    seed_prefix: tuple  # rng namespace: (master_seed, repeat)


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """A uint64 column of SeedSequence's running hash constant: start * mult**i mod 2**32."""
    return np.array([start * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)], dtype=np.uint64)[:, None]


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 its four uint64 seeding words, already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"have {len(self.words)} {self.words.dtype} words, not {n_words} {dtype}")
        return self.words


def _client_rngs(entropy, ids) -> list[np.random.Generator]:
    """The generators [np.random.default_rng([*entropy, cid]) for cid in ids] would build.

    Needs at least four 32-bit words of entropy and every id below 2**32.
    The entropy is the same for every id, so numpy's SeedSequence mixes its
    pool once. Every id is then folded into that pool, and PCG64's four
    seeding words hashed out, in one uint64 vector pass; PCG64 takes those
    words as they are instead of a SeedSequence of its own.
    """
    pool = np.random.SeedSequence(entropy).pool.astype(np.uint64)[:, None]
    # Mixing the pool advanced the hash constant 4 times per 32-bit entropy word
    # (0 is one word): 4 initial hashes, 12 cross-mixes, 4 per word past the fourth.
    words = sum(max(1, -(-int(n).bit_length() // 32)) for n in entropy)
    # Row d of the (4, clients) arrays folds the id into pool[d] with the
    # d-th of the next 4 hash constants.
    consts = _hash_consts(_MIX_HASH[0] * pow(_MIX_HASH[1], 4 * words, 1 << 32) & _MASK32, _MIX_HASH[1], 5)
    mask, shift = np.uint64(_MASK32), np.uint64(16)
    folded = (np.array(ids, dtype=np.uint64) ^ consts[:4]) * consts[1:] & mask
    folded ^= folded >> shift
    mixed = ((pool * np.uint64(_MIX_MULT[0]) & mask) - np.uint64(_MIX_MULT[1]) * folded) & mask
    mixed ^= mixed >> shift
    out_consts = _hash_consts(*_OUT_HASH, 9)
    out = (mixed[[0, 1, 2, 3, 0, 1, 2, 3]] ^ out_consts[:8]) * out_consts[1:] & mask
    out ^= out >> shift
    # Little-endian pairs of the 8 words: one contiguous row of 4 uint64 per client.
    seeds = np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in seeds]


def _size_runs(shards, ids) -> list[ClientGroup]:
    """The shards of ids, in the order of ids, cut into runs of consecutive ids
    with equal shard size, each gathered as one ClientGroup: the round's one
    read of each of those shards."""
    return [ClientGroup.of(list(run)) for _, run in itertools.groupby((shards[cid] for cid in ids), key=len)]


def _training_stacks(model: nn.ModelParams, groups, orders, retained) -> list[tuple[ClientGroup, np.ndarray]]:
    """(group, orders) of each local_train call of a round: the retained clients
    of groups, taken by position with their orders, in runs of equal shard
    size, each cut into stacks of at most _STACK_BYTES of model parameters.

    groups and orders are a round's size runs and their report_losses orders,
    in ascending id. Two groups of one size whose clients between them are
    all eliminated join into one run.
    """
    model_bytes = sum(p.nbytes for p in model.weights + model.biases)
    chunk = max(1, _STACK_BYTES // model_bytes)
    kept_ids = np.fromiter(retained, dtype=np.int64, count=len(retained))
    runs = []
    for group, drawn in zip(groups, orders):
        kept = np.isin(group.ids, kept_ids)
        if not kept.any():
            continue
        if not kept.all():
            group, drawn = group.take(kept), drawn[kept]
        if runs and runs[-1][0].samples == group.samples:
            last, last_orders = runs.pop()
            group, drawn = ClientGroup.joined([last, group]), np.concatenate((last_orders, drawn))
        runs.append((group, drawn))
    return [
        (group.take(slice(start, start + chunk)), drawn[start : start + chunk])
        for group, drawn in runs
        for start in range(0, len(group), chunk)
    ]


def global_round(state: FederationState, epoch: int) -> RoundRecord:
    """Run one global epoch in place and return its record.

    The round selects clients and reads each selected shard once, gathering
    each run of consecutive ids with equal shard size as one ClientGroup. It
    gathers every selected client's report (one report_losses call per
    group), runs the eliminator on the reports, and hands fed_avg the
    retained clients' local_train stacks one at a time, in ascending client
    id; it then evaluates the new model.
    """
    cfg = state.config
    selected = select_clients(
        np.random.default_rng([*state.seed_prefix, _STREAM_SELECT, epoch]),
        cfg.total_clients,
        cfg.clients_per_round,
    )
    groups = _size_runs(state.shards, selected)
    rngs = iter(_client_rngs([*state.seed_prefix, _STREAM_CLIENT, epoch], selected))
    noisy, orders = {}, []
    for group in groups:
        losses, drawn = report_losses(state.model, group, cfg, list(itertools.islice(rngs, len(group))))
        noisy.update(zip(group.ids.tolist(), losses.tolist()))
        orders.append(drawn)
    outcome = run_eliminator(noisy, cfg.defense)
    state.model = fed_avg(
        local_train(state.model, group, cfg, drawn)
        for group, drawn in _training_stacks(state.model, groups, orders, outcome.retained)
    )
    result = evaluate_model(state.model, state.test_set)
    truth = {cid for group in groups for cid in group.ids[group.malicious].tolist()}
    det = detection_score(outcome, truth)
    return RoundRecord(
        epoch=epoch,
        selected=selected,
        eliminated=tuple(sorted(outcome.eliminated)),
        accuracy=result.accuracy,
        test_loss=result.mean_ce_loss,
        source_recall=result.per_class_recall[cfg.source_class],
        det_accuracy=det.accuracy,
        det_precision=det.precision,
        det_recall=det.recall,
        det_f1=det.f1,
    )


def init_state(
    config: FederationConfig, train_set: Dataset, test_set: Dataset, repeat: int = 0
) -> FederationState:
    """Partition and poison the data, initialize the model, for one repeat."""
    prefix = (config.seed, repeat)
    shards = partition(train_set, config.total_clients, [*prefix, _STREAM_PARTITION])
    shards = poison_shards(
        shards, config.malicious_fraction, config.source_class, config.target_class, [*prefix, _STREAM_MALICIOUS]
    )
    dims = (train_set.features.shape[1], *config.hidden_dims, train_set.num_classes)
    model = nn.init_params(dims, np.random.default_rng([*prefix, _STREAM_INIT]))
    return FederationState(
        config=config, shards=shards, test_set=test_set, model=model, seed_prefix=prefix
    )


def validate(config: FederationConfig, train_set: Dataset, test_set: Dataset) -> None:
    """Reject a config and datasets that cannot run together, before any training.

    The label flip's classes must lie within the training set's, as data.check_label_flip states.
    """
    dims = (train_set.features.shape[1], test_set.features.shape[1])
    classes = (train_set.num_classes, test_set.num_classes)
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    if dims[0] != dims[1]:
        raise ValueError(f"train samples have {dims[0]} features, test samples {dims[1]}")
    if classes[0] != classes[1]:
        raise ValueError(f"train set has {classes[0]} classes, test set {classes[1]}")
    check_label_flip(config.malicious_fraction, config.source_class, config.target_class, classes[0])
    if config.total_clients > len(train_set):
        raise ValueError(f"total_clients {config.total_clients} exceeds the {len(train_set)} training samples")


def run_experiment(
    config: FederationConfig, train_set: Dataset, test_set: Dataset
) -> ExperimentReport:
    """Validate the inputs, run `repeats` seeded trainings and average them per epoch."""
    validate(config, train_set, test_set)
    runs = []
    for repeat in range(config.repeats):
        state = init_state(config, train_set, test_set, repeat)
        runs.append([global_round(state, e) for e in range(config.global_epochs)])
    return ExperimentReport(runs)
