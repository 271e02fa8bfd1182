"""The benchmark's workloads: the fedsim configs and input files each one runs.

Every config spells out every key, so a later change to the CLI defaults
cannot silently change the size of a workload. The seed reaches fedsim only
through the generated config (its "seed" key) and, on mnist_shape, through
the pixels of the generated IDX files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

# The warm-up invocation of every run uses this seed on a shrunk config, so
# every run also checks its outputs against values recorded in reference.json.
REFERENCE_SEED = 0

# README desk defaults, written out in full.
DESK = {
    "dataset": {
        "type": "synthetic",
        "num_classes": 10,
        "per_class": 200,
        "dim": 64,
        "separation": 6.0,
        "noise_std": 1.0,
        "test_per_class": 50,
    },
    "total_clients": 50,
    "clients_per_round": 10,
    "global_epochs": 15,
    "client_epochs": 5,
    "client_lr": 0.6,
    "batch_size": 12,
    "malicious_fraction": 0.4,
    "source_class": 5,
    "target_class": 3,
    "hidden_dims": [32],
    "repeats": 3,
    "defense": {
        "kind": "kmeans",
        "fixed_fraction": 0.2,
        "zscore_threshold": 1.0,
        "zscore_one_sided": False,
        "kmeans_guard": 3.5,
        "kmeans_max_iters": 100,
    },
    "ldp": {"epsilon": 1.0, "sensitivity": 0.0001},
}

# Shrinks any workload for the warm-up invocation.
WARMUP = {"global_epochs": 2, "repeats": 1}

# mnist_shape's IDX images are 28x28 pixels made from synthetic blobs.
IDX_SIDE = 28
IDX_CLASSES = 10
IDX_SEPARATION = 6.0
IDX_NOISE_STD = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str = "run"
    overrides: dict = field(default_factory=dict)
    fractions: tuple = ()  # sweep only
    idx_per_class: tuple = ()  # (train, test) samples per class; IDX workloads only
    warmup_fractions: tuple = ()
    warmup_idx_per_class: tuple = ()

    def config(self, seed: int, warmup: bool = False) -> dict:
        cfg = json.loads(json.dumps(DESK))
        for key, value in self.overrides.items():
            if isinstance(value, dict):
                cfg[key] = {**cfg[key], **value}
            else:
                cfg[key] = value
        if warmup:
            cfg.update(WARMUP)
        cfg["seed"] = seed
        return cfg

    def arms(self) -> int:
        """Experiments per invocation: a sweep runs each fraction with defense off and on."""
        return 2 * len(self.fractions) if self.command == "sweep" else 1

    def nominal_samples(self) -> int:
        """SGD samples one invocation trains on, from the config alone."""
        cfg = self.config(REFERENCE_SEED)
        n_train = self.idx_per_class[0] * IDX_CLASSES if self.idx_per_class else (
            cfg["dataset"]["num_classes"] * cfg["dataset"]["per_class"]
        )
        per_arm = (
            cfg["repeats"] * cfg["global_epochs"] * cfg["clients_per_round"]
            * cfg["client_epochs"] * n_train / cfg["total_clients"]
        )
        return round(per_arm * self.arms())

    def prepare(self, work_dir: Path, seed: int, warmup: bool = False) -> list:
        """Write this invocation's input files under work_dir; return the fedsim argv."""
        work_dir.mkdir(parents=True, exist_ok=True)
        cfg = self.config(seed, warmup)
        if self.idx_per_class:
            per_class = self.warmup_idx_per_class if warmup else self.idx_per_class
            cfg["dataset"] = write_idx_pair(work_dir, seed, *per_class)
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        argv = [self.command, "--config", str(config_path), "--out", str(work_dir / "out")]
        if self.command == "sweep":
            fractions = self.warmup_fractions if warmup else self.fractions
            argv += ["--fractions", ",".join(format(f, "g") for f in fractions)]
        return argv


def _write_idx(images_path: Path, labels_path: Path, dataset) -> None:
    n = len(dataset)
    pixels = dataset.features * 255.0
    pixels.round(out=pixels)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, IDX_SIDE, IDX_SIDE))
        f.write(pixels.astype("uint8").tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(dataset.labels.astype("uint8").tobytes())


def write_idx_pair(work_dir: Path, seed: int, train_per_class: int, test_per_class: int) -> dict:
    """Seeded 28x28 uint8 IDX train/test files; returns the config's dataset section."""
    from fedsim import synthesize

    section = {"type": "idx"}
    for split, per_class, stream in (("train", train_per_class, 2000), ("test", test_per_class, 2001)):
        data = synthesize(
            IDX_CLASSES, per_class, IDX_SIDE * IDX_SIDE, IDX_SEPARATION,
            seed=[seed, stream], noise_std=IDX_NOISE_STD,
        )
        images, labels = work_dir / f"{split}-images.idx", work_dir / f"{split}-labels.idx"
        _write_idx(images, labels, data)
        del data
        section[f"{split}_images"], section[f"{split}_labels"] = str(images), str(labels)
    return section


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            "README desk experiment (kmeans at 0.4, 3 repeats): tiny matmuls, so nn is "
            "dispatch-bound and the stacked-client trainer acts here",
        ),
        Workload(
            "desk_sweep",
            "sweep of the desk config over 4 fractions, defense off and on (8 arms): the "
            "only workload with many experiments per invocation",
            command="sweep",
            fractions=(0.0, 0.2, 0.3, 0.4),
            warmup_fractions=(0.0, 0.4),
        ),
        Workload(
            "mnist_shape",
            "28x28 IDX input, hidden [128]: large per-step arithmetic and a 10,000-row test "
            "set; the bypass case for dispatch-level gains",
            overrides={"hidden_dims": [128], "client_lr": 0.1, "repeats": 1},
            idx_per_class=(600, 1000),
            warmup_idx_per_class=(60, 100),
        ),
        Workload(
            "cross_device",
            "1,000 clients of 4 samples, 500 per round: per-client fixed cost, fed_avg "
            "fan-in and the eliminator get measurable work only here",
            overrides={
                "dataset": {"per_class": 400},
                "total_clients": 1000,
                "clients_per_round": 500,
                "client_epochs": 1,
                "malicious_fraction": 0.2,
                "repeats": 1,
            },
        ),
    )
}
