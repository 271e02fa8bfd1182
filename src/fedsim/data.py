"""Dataset ingestion, client partitioning and the label-flip transform.

Supports the MNIST-style IDX binary format and a synthetic Gaussian-blob
generator for desk-scale experiments. All randomness flows through explicit
seeds, so every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, count mismatch)."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64 in [0, 1]
    labels: np.ndarray  # (n,) integer class indices
    num_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label count mismatch")
        if self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ClientShard:
    client_id: int
    data: Dataset
    is_malicious: bool = False


@dataclass(frozen=True)
class SyntheticData:
    """A config's synthetic dataset: train and test blobs drawn by synthesize."""

    num_classes: int = 10
    per_class: int = 200
    dim: int = 64
    separation: float = 6.0
    noise_std: float = 1.0
    test_per_class: int = 50

    def __post_init__(self):
        if self.test_per_class < 1:
            raise ValueError(f"test_per_class {self.test_per_class} in dataset must be positive")


@dataclass(frozen=True)
class IdxData:
    """A config's IDX dataset: the train and test image/label files load_idx reads."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise IdxFormatError(f"{path}: truncated while reading {what} at offset {f.tell() - len(buf)}")
    return buf


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read an IDX image/label file pair into a normalized Dataset.

    Pixels are scaled to [0, 1] by dividing by 255; each image is flattened
    row-major. Both headers are big-endian per the IDX convention.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as f:
        magic, n_images = struct.unpack(">II", _read_exact(f, 8, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        rows, cols = struct.unpack(">II", _read_exact(f, 8, images_path, "dimensions"))
        pixels = _read_exact(f, n_images * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        label_bytes = _read_exact(f, n_labels, labels_path, "label data")
    if n_images != n_labels:
        raise IdxFormatError(
            f"{images_path} has {n_images} items but {labels_path} has {n_labels}"
        )
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(n_images, rows * cols)
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(features, labels, num_classes)


# Coarse 8x8 digit glyphs used as blob centers. Like the handwritten digits
# they imitate, some shapes are near twins (3 and 5 share their whole
# skeleton except the upper vertical) while others are far apart, so the
# class geometry carries a realistic confusability structure.
_DIGIT_GLYPHS = [
    # 0
    ".####..."
    "#....#.."
    "#....#.."
    "#....#.."
    "#....#.."
    "#....#.."
    ".####..."
    "........",
    # 1
    "..#....."
    ".##....."
    "..#....."
    "..#....."
    "..#....."
    "..#....."
    ".####..."
    "........",
    # 2
    ".####..."
    "#....#.."
    ".....#.."
    "...##..."
    "..#....."
    ".#......"
    "######.."
    "........",
    # 3
    "######.."
    ".....#.."
    ".....#.."
    "######.."
    ".....#.."
    ".....#.."
    "######.."
    "........",
    # 4
    "...##..."
    "..#.#..."
    ".#..#..."
    "#...#..."
    "######.."
    "....#..."
    "....#..."
    "........",
    # 5
    "######.."
    "#......."
    "#......."
    "######.."
    ".....#.."
    ".....#.."
    "######.."
    "........",
    # 6
    "..###..."
    ".#......"
    "#......."
    "#####..."
    "#....#.."
    "#....#.."
    ".####..."
    "........",
    # 7
    "######.."
    ".....#.."
    "....#..."
    "...#...."
    "..#....."
    "..#....."
    "..#....."
    "........",
    # 8
    ".####..."
    "#....#.."
    "#....#.."
    ".####..."
    "#....#.."
    "#....#.."
    ".####..."
    "........",
    # 9
    ".####..."
    "#....#.."
    "#....#.."
    ".#####.."
    "......#."
    ".....#.."
    "..###..."
    "........",
]


def _glyph_pattern(c: int, dim: int) -> np.ndarray:
    """+-1 sign pattern for class c, resampled from its 8x8 glyph to dim."""
    cells = (np.frombuffer(_DIGIT_GLYPHS[c].ljust(64, ".").encode(), dtype="S1") == b"#")
    profile = np.where(cells, 1.0, -1.0)
    if dim == 64:
        return profile
    return np.interp(np.linspace(0.0, 63.0, dim), np.arange(64.0), profile)


def class_means(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic per-class blob centers with pairwise distance >= separation.

    The first ten classes get digit-glyph sign patterns around 0.5; any
    further classes get salted random +-1 patterns. The amplitude is scaled
    from the worst pairwise distance so the guarantee holds exactly.
    Independent of the sampling seed, so train and test splits drawn with
    different seeds share the same class geometry.
    """
    patterns = np.empty((num_classes, dim))
    seen = set()
    for c in range(num_classes):
        if c < len(_DIGIT_GLYPHS):
            p = _glyph_pattern(c, dim)
        elif int(np.all(np.abs(patterns[:c]) == 1.0, axis=1).sum()) == 2**dim:  # all +-1 taken
            raise ValueError(f"{num_classes} classes need more distinct patterns than dim={dim} has")
        else:
            salt = 0
            while True:
                g = np.random.default_rng([num_classes, dim, c, salt])
                p = np.where(g.random(dim) < 0.5, -1.0, 1.0)
                if p.tobytes() not in seen:
                    break
                salt += 1
        if p.tobytes() in seen:
            raise ValueError(f"degenerate class pattern at dim={dim}, class {c}")
        seen.add(p.tobytes())
        patterns[c] = p
    if num_classes == 1:
        return 0.5 + patterns * (separation / (2.0 * np.sqrt(dim)))
    min_dist = min(
        float(np.linalg.norm(patterns[i] - patterns[j]))
        for i in range(num_classes)
        for j in range(i + 1, num_classes)
    )
    return 0.5 + patterns * (separation / min_dist)


def synthesize(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed,
    noise_std: float = 1.0,
) -> Dataset:
    """Isotropic Gaussian blobs around the deterministic class centers.

    Samples are clipped into [0, 1]; labels come out in class-block order.
    Fully determined by (arguments, seed).
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    if not 0 < separation < np.inf:
        raise ValueError(f"separation {separation} must be positive and finite")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std {noise_std} must be non-negative and finite")
    means = class_means(num_classes, dim, separation)
    rng = np.random.default_rng(seed)
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + noise_std * rng.standard_normal((per_class, dim))
        labels[block] = c
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(features, labels, num_classes)


def partition(dataset: Dataset, num_clients: int, seed) -> list[ClientShard]:
    """Seeded shuffle split into near-equal disjoint shards covering the data."""
    n = len(dataset)
    if num_clients < 1 or num_clients > n:
        raise ValueError(f"num_clients={num_clients} must be in [1, {n}]")
    perm = np.random.default_rng(seed).permutation(n)
    shards = []
    for cid, idx in enumerate(np.array_split(perm, num_clients)):
        idx = np.sort(idx)
        shards.append(
            ClientShard(
                client_id=cid,
                data=Dataset(dataset.features[idx], dataset.labels[idx], dataset.num_classes),
            )
        )
    return shards


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def mark_malicious(shards: list[ClientShard], malicious_fraction: float, seed) -> list[ClientShard]:
    """Flag a fixed, seeded subset of shards as attacker-controlled."""
    if not 0.0 <= malicious_fraction <= 0.5:
        raise ValueError(f"malicious_fraction {malicious_fraction} outside [0, 0.5]")
    count = round_half_up(malicious_fraction * len(shards))
    rng = np.random.default_rng(seed)
    flagged = set(rng.choice(len(shards), size=count, replace=False).tolist())
    return [replace(s, is_malicious=(i in flagged)) for i, s in enumerate(shards)]


def poison_labels(shard: ClientShard, source_class: int, target_class: int) -> ClientShard:
    """Flip every source-class label to the target class. Features untouched."""
    if not shard.is_malicious:
        raise ValueError("poison_labels applies only to shards flagged malicious")
    if max(source_class, target_class) >= shard.data.num_classes:
        raise ValueError("poison class out of range for this dataset")
    labels = shard.data.labels.copy()
    labels[labels == source_class] = target_class
    return replace(shard, data=Dataset(shard.data.features, labels, shard.data.num_classes))
