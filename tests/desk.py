"""The desk experiment that the acceptance criteria and the desk golden both train.

The config is the library default: synthetic 10-class data (dim 64, 200
samples a class, separation 6), 50 clients, 10 per round, 15 global epochs,
5 client epochs, an MLP [64, 32, 10], poisoning 5 -> 3, kmeans guard 3.5,
seed 0 and 3 repeats. Each (defense kind, malicious fraction) is trained once
per test session, whichever test asks for it first.
"""

import functools

from fedsim import DefenseConfig, ExperimentReport, FederationConfig, run_experiment, synthesize

SEED = 0
KMEANS_GUARD = 3.5


def synthetic_pair(per_class: int, seed: int):
    """The CLI's default synthetic train and test sets, with per_class training samples."""
    return tuple(
        synthesize(10, count, 64, 6.0, seed=[seed, stream], noise_std=1.0)
        for count, stream in ((per_class, 1000), (50, 1001))
    )


@functools.lru_cache(maxsize=None)
def desk_datasets():
    return synthetic_pair(200, SEED)


@functools.lru_cache(maxsize=None)
def desk_report(kind: str, fraction: float) -> ExperimentReport:
    """The desk experiment under one defense kind and malicious fraction; callers must not mutate it."""
    config = FederationConfig(
        malicious_fraction=fraction,
        defense=DefenseConfig(kind=kind, kmeans_guard=KMEANS_GUARD),
        seed=SEED,
        repeats=3,
    )
    return run_experiment(config, *desk_datasets())
