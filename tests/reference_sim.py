"""A naive whole-experiment reference simulator, written from fedsim's documented contract.

Every client is simulated alone: its own generator, its own 2-D shard, its own
loss report and local training, one SGD step at a time. The server keeps the
reports in a dict and averages the retained models in ascending client id.
Nothing here stacks clients, groups them by shard size, builds generators in
a vector pass or calls report_losses, local_train or fed_avg; it shares only
fedsim's data, nn, privacy, defense and metrics layers. run_experiment must
give the same round records, field for field.
"""

import numpy as np

from fedsim import nn
from fedsim.data import partition, poison_shards
from fedsim.defense import detection_score, run_eliminator
from fedsim.federation import MEAN_FIELDS, RoundRecord
from fedsim.metrics import evaluate_model
from fedsim.privacy import laplace_sample, laplace_scale

# The stream tags under (seed, repeat): each purpose draws from its own generator.
PARTITION, MALICIOUS, INIT, SELECT, CLIENT = range(5)


def client_round(model, shard, config, rng):
    """A client's noisy loss report under the incoming model, and its trained model.

    The client draws one batch order per local epoch, then its Laplace noise.
    """
    features, labels = shard.source.features[shard.rows], shard.labels
    loss, _ = nn.softmax_cross_entropy(nn.forward(model, features), labels)
    orders = [rng.permutation(len(labels)) for _ in range(config.client_epochs)]
    noisy = loss + laplace_sample(laplace_scale(config.ldp), rng)
    for order in orders:
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads, _ = nn.backward(model, features[batch], labels[batch])
            model = nn.sgd_step(model, grads, config.client_lr)
    return noisy, model


def mean_model(models: dict) -> nn.ModelParams:
    """The unweighted mean of {client_id: model}: each array summed from zeros in
    ascending client id, then scaled by 1 / count."""
    ids = sorted(models)

    def mean(arrays):
        total = np.zeros_like(arrays[0])
        for a in arrays:
            total += a
        return total * (1.0 / len(arrays))

    layers = range(len(models[ids[0]].weights))
    return nn.ModelParams(
        tuple(mean([models[cid].weights[k] for cid in ids]) for k in layers),
        tuple(mean([models[cid].biases[k] for cid in ids]) for k in layers),
    )


def reference_runs(config, train, test) -> list:
    """runs[repeat][epoch] -> RoundRecord, one client at a time."""
    runs = []
    for r in range(config.repeats):
        prefix = [config.seed, r]
        shards = partition(train, config.total_clients, [*prefix, PARTITION])
        shards = poison_shards(
            shards, config.malicious_fraction, config.source_class, config.target_class, [*prefix, MALICIOUS]
        )
        dims = (train.features.shape[1], *config.hidden_dims, train.num_classes)
        model = nn.init_params(dims, np.random.default_rng([*prefix, INIT]))
        run = []
        for e in range(config.global_epochs):
            chosen = np.random.default_rng([*prefix, SELECT, e]).choice(
                config.total_clients, config.clients_per_round, replace=False
            )
            selected = sorted(int(c) for c in chosen)
            reports, trained = {}, {}
            for cid in selected:
                rng = np.random.default_rng([*prefix, CLIENT, e, cid])
                reports[cid], trained[cid] = client_round(model, shards[cid], config, rng)
            outcome = run_eliminator(reports, config.defense)
            model = mean_model({cid: trained[cid] for cid in outcome.retained})
            result = evaluate_model(model, test)
            det = detection_score(outcome, {cid for cid in selected if shards[cid].is_malicious})
            run.append(RoundRecord(
                e, tuple(selected), tuple(sorted(outcome.eliminated)), result.accuracy, result.mean_ce_loss,
                result.per_class_recall[config.source_class], det.accuracy, det.precision, det.recall, det.f1,
            ))
        runs.append(run)
    return runs


def reference_epoch_means(runs) -> list:
    """One dict per epoch: each MEAN_FIELDS metric averaged across repeats, repeat by repeat."""
    return [
        {name: float(np.mean([getattr(run[e], name) for run in runs])) for name in MEAN_FIELDS}
        for e in range(len(runs[0]))
    ]
