"""The federated training loop: select, train locally, report, defend, average.

Each global epoch the server samples a subset of clients, ships them the
current model, and gets back one (weights, noisy loss) pair per client,
delivered in stacks of clients trained together. The configured eliminator
filters the reports, FedAvg averages the surviving weights, and the new
model is scored on a held-out honest test set. Everything is driven by
explicit seeded generators, so a config fully determines every round record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import ClientShard, Dataset, mark_malicious, partition, poison_labels
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
# Larger stacks dispatch less but hold more memory for each step's gradients
# and activations; a model above the cap trains one client per call.
_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class FederationConfig:
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
        if self.clients_per_round > self.total_clients:
            raise ValueError("clients_per_round exceeds total_clients")
        for name in ("total_clients", "clients_per_round", "global_epochs", "batch_size", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.client_epochs < 0:
            raise ValueError("client_epochs must be non-negative")
        if not 0 < self.client_lr < np.inf:
            raise ValueError(f"client_lr {self.client_lr} must be positive and finite")
        if not 0.0 <= self.malicious_fraction <= 0.5:
            raise ValueError(f"malicious_fraction {self.malicious_fraction} outside [0, 0.5]")
        if self.source_class == self.target_class or min(self.source_class, self.target_class) < 0:
            flip = f"source_class {self.source_class} and target_class {self.target_class}"
            raise ValueError(f"{flip} must differ and be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError(f"hidden_dims {list(self.hidden_dims)} must all be positive")


@dataclass(frozen=True)
class StackUpdate:
    """What one local_train call returns: client client_ids[i] trained
    slice i of weights (a stack with a leading client axis) and reported
    noisy_losses[i] (float64)."""

    client_ids: tuple[int, ...]
    weights: nn.ModelParams
    noisy_losses: np.ndarray


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


@dataclass
class ExperimentReport:
    runs: list  # runs[repeat][epoch] -> RoundRecord
    epoch_means: list  # one dict per epoch, metrics averaged across repeats
    mean_det_accuracy: float
    mean_det_f1: float

    @property
    def final_means(self) -> dict:
        return self.epoch_means[-1]


def select_clients(rng: np.random.Generator, total_clients: int, k: int) -> tuple[int, ...]:
    """Uniform sample of k distinct client ids, returned sorted."""
    if k > total_clients:
        raise ValueError(f"cannot select {k} of {total_clients} clients")
    chosen = rng.choice(total_clients, size=k, replace=False)
    return tuple(int(c) for c in np.sort(chosen))


def local_train(
    global_model: nn.ModelParams,
    shards: list[ClientShard],
    client_epochs: int,
    lr: float,
    batch_size: int,
    ldp: LdpConfig,
    rngs: list[np.random.Generator],
) -> StackUpdate:
    """A group of clients' contributions: mini-batch SGD, then noised loss reports.

    The shards must be of equal size; they train as one stacked model with a
    leading client axis, which computes exactly what training each client
    alone would. Each client draws from its own generator in rngs, in the
    same order as alone: one permutation per epoch, then the Laplace noise.
    Returns the trained stack and its reports, in shard order.

    The raw loss is the shard's mean loss under the incoming global model,
    monitored at the start of local training; only the noised value leaves
    the client. The training-start loss reflects how well the shared model
    matches the client's labels, which is what separates honest from
    poisoned shards; by the end of local training the client has fit its
    own labels, flipped or not, and the signal is gone.
    """
    if len(shards) != len(rngs) or not shards:
        raise ValueError(f"{len(shards)} shards and {len(rngs)} generators; need one each, at least one")
    n = len(shards[0].data)
    for shard in shards:
        if len(shard.data) == 0:
            raise ValueError(f"client {shard.client_id} has an empty shard")
        if len(shard.data) != n:
            raise ValueError(f"client {shard.client_id} has {len(shard.data)} samples, not {n}")
    c = len(shards)
    # Rows of every client's shard, client after client: client i owns rows i*n .. i*n+n-1.
    features = np.concatenate([s.data.features for s in shards])
    labels = np.concatenate([s.data.labels for s in shards])
    model = nn.ModelParams(
        tuple(np.broadcast_to(w, (c, *w.shape)) for w in global_model.weights),
        tuple(np.broadcast_to(b, (c, *b.shape)) for b in global_model.biases),
    )
    raw_losses, _ = nn.softmax_cross_entropy(
        nn.forward(model, features.reshape(c, n, -1)), labels.reshape(c, n)
    )
    offsets = np.arange(0, c * n, n)[:, None]
    for _ in range(client_epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for start in range(0, n, batch_size):
            idx = perm[:, start : start + batch_size]
            grads, _ = nn.backward(model, features[idx], labels[idx])
            model = nn.sgd_step(model, grads, lr)
    return StackUpdate(
        tuple(shard.client_id for shard in shards), model, perturb_loss(raw_losses, ldp, rngs)
    )


def fed_avg(updates, retained) -> nn.ModelParams:
    """Unweighted element-wise mean of the retained clients' parameters.

    updates are StackUpdates. Each retained client's slice is added, as a
    view, in ascending client id across all stacks, so the result is
    bit-reproducible however the clients were stacked.
    """
    if not updates or not retained:
        raise ValueError("fed_avg needs at least one update and one retained client")
    dims = updates[0].weights.dims
    if any(u.weights.dims != dims for u in updates):
        raise ValueError("updates disagree on model dims")
    params = [u.weights.weights + u.weights.biases for u in updates]
    slices = {cid: (p, i) for u, p in zip(updates, params) for i, cid in enumerate(u.client_ids)}
    if missing := set(retained) - slices.keys():
        raise ValueError(f"retained clients {sorted(missing)} are in no update")
    sums = [np.zeros(p.shape[1:]) for p in params[0]]
    for cid in sorted(retained):
        stack, i = slices[cid]
        for acc, p in zip(sums, stack):
            acc += p[i]
    inv = 1.0 / len(retained)
    layers = len(dims) - 1
    return nn.ModelParams(tuple(w * inv for w in sums[:layers]), tuple(b * inv for b in sums[layers:]))


@dataclass
class FederationState:
    config: FederationConfig
    shards: list
    test_set: Dataset
    model: nn.ModelParams
    seed_prefix: tuple = ()  # rng namespace, e.g. (master_seed, repeat)
    history: list = field(default_factory=list)


def _rng(state: FederationState, *tail) -> np.random.Generator:
    return np.random.default_rng([*state.seed_prefix, *tail])


def _training_groups(state: FederationState, selected) -> list[tuple[int, ...]]:
    """The selected ids cut into local_train calls: equal shard sizes, capped stacks."""
    by_size = {}
    for cid in selected:
        by_size.setdefault(len(state.shards[cid].data), []).append(cid)
    model_bytes = sum(p.nbytes for p in state.model.weights + state.model.biases)
    chunk = max(1, _STACK_BYTES // model_bytes)
    return [
        tuple(ids[start : start + chunk])
        for ids in by_size.values()
        for start in range(0, len(ids), chunk)
    ]


def global_round(state: FederationState, epoch: int) -> RoundRecord:
    """Run one global epoch in place and append its record to the history."""
    cfg = state.config
    selected = select_clients(
        _rng(state, _STREAM_SELECT, epoch), cfg.total_clients, cfg.clients_per_round
    )
    stacks = [
        local_train(
            state.model,
            [state.shards[cid] for cid in group],
            cfg.client_epochs,
            cfg.client_lr,
            cfg.batch_size,
            cfg.ldp,
            [_rng(state, _STREAM_CLIENT, epoch, cid) for cid in group],
        )
        for group in _training_groups(state, selected)
    ]
    noisy = {cid: loss for u in stacks for cid, loss in zip(u.client_ids, u.noisy_losses.tolist())}
    outcome = run_eliminator({cid: noisy[cid] for cid in selected}, cfg.defense)
    state.model = fed_avg(stacks, outcome.retained)
    result = evaluate_model(state.model, state.test_set)
    truth = {cid for cid in selected if state.shards[cid].is_malicious}
    det = detection_score(outcome, truth)
    record = RoundRecord(
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
    state.history.append(record)
    return record


def init_state(
    config: FederationConfig, train_set: Dataset, test_set: Dataset, repeat: int = 0
) -> FederationState:
    """Partition and poison the data, initialize the model, for one repeat."""
    prefix = (config.seed, repeat)
    shards = partition(train_set, config.total_clients, [*prefix, _STREAM_PARTITION])
    shards = mark_malicious(shards, config.malicious_fraction, [*prefix, _STREAM_MALICIOUS])
    flip = (config.source_class, config.target_class)
    shards = [poison_labels(s, *flip) if s.is_malicious else s for s in shards]
    dims = (train_set.features.shape[1], *config.hidden_dims, train_set.num_classes)
    model = nn.init_params(dims, np.random.default_rng([*prefix, _STREAM_INIT]))
    return FederationState(
        config=config, shards=shards, test_set=test_set, model=model, seed_prefix=prefix
    )


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


def validate(config: FederationConfig, train_set: Dataset, test_set: Dataset) -> None:
    """Reject a config and datasets that cannot run together, before any training."""
    dims = (train_set.features.shape[1], test_set.features.shape[1])
    classes = (train_set.num_classes, test_set.num_classes)
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    if dims[0] != dims[1]:
        raise ValueError(f"train samples have {dims[0]} features, test samples {dims[1]}")
    if classes[0] != classes[1]:
        raise ValueError(f"train set has {classes[0]} classes, test set {classes[1]}")
    if max(config.source_class, config.target_class) >= classes[0]:
        flip = f"(source_class={config.source_class}, target_class={config.target_class})"
        raise ValueError(f"label flip {flip} names a class beyond the dataset's {classes[0]} classes")
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
        for epoch in range(config.global_epochs):
            global_round(state, epoch)
        runs.append(state.history)
    epoch_means = [
        {
            name: float(np.mean([getattr(run[epoch], name) for run in runs]))
            for name in MEAN_FIELDS
        }
        for epoch in range(config.global_epochs)
    ]
    all_records = [rec for run in runs for rec in run]
    return ExperimentReport(
        runs=runs,
        epoch_means=epoch_means,
        mean_det_accuracy=float(np.mean([r.det_accuracy for r in all_records])),
        mean_det_f1=float(np.mean([r.det_f1 for r in all_records])),
    )
