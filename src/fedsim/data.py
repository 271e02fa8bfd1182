"""Dataset ingestion, client partitioning and the label-flip transform.

Supports the MNIST-style IDX binary format and a synthetic Gaussian-blob
generator for desk-scale experiments. All randomness flows through explicit
seeds, so every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import copy
import functools
import numbers
import os
import struct
from dataclasses import dataclass, fields, is_dataclass, replace
from stat import S_ISREG

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, count mismatch)."""


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray  # (n, d) floats; load_idx and synthesize give float64 in [0, 1]
    labels: np.ndarray  # (n,) integer class indices
    num_classes: int

    def __post_init__(self):
        check_field_kinds(self)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            shapes = f"{self.features.shape} and {self.labels.shape}"
            raise ValueError(f"need features of shape (n, d) and labels of shape (n,), got {shapes}")
        if self.features.dtype.kind != "f":
            raise ValueError(f"features must be floating point, got dtype {self.features.dtype}")
        if self.labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(f"features and labels differ in rows: {len(self.features)} and {len(self.labels)}")
        if self.num_classes < 0:
            raise ValueError(f"num_classes {self.num_classes} must be non-negative")
        outside = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)]
        if outside.size:
            raise ValueError(f"label {outside[0]} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True, eq=False)
class ClientGroup:
    """Clients with equal-size shards of one training set, held as arrays.

    Row i of every array is client ids[i]: rows[i] index its samples in source,
    which is never copied, and labels[i] are their labels, the group's own, so
    poison_shards can flip them; the federation checks them against the model's
    classes. malicious[i] is its flag. Groups compare and hash by identity.
    """

    source: Dataset
    ids: np.ndarray  # (C,) integer client ids, strictly increasing
    rows: np.ndarray  # (C, n) integer indices into source, each row strictly increasing
    labels: np.ndarray  # (C, n) integer class indices
    malicious: np.ndarray  # (C,) bool

    def __post_init__(self):
        check_field_kinds(self)
        shapes = (self.ids.shape, self.malicious.shape, self.rows.shape, self.labels.shape)
        if self.rows.ndim != 2 or shapes[0] != shapes[1] or shapes[0] != shapes[2][:1] or shapes[2] != shapes[3]:
            raise ValueError(f"need ids and malicious of shape (C,), rows and labels of shape (C, n), got {shapes}")
        if not self.rows.size:
            raise ValueError(f"a group needs at least one client and one sample, got rows of shape {self.rows.shape}")
        if self.ids.dtype.kind not in "iu" or self.malicious.dtype.kind != "b":
            kinds = f"{self.ids.dtype} and {self.malicious.dtype}"
            raise ValueError(f"need integer ids and bool malicious flags, got {kinds}")
        late = np.flatnonzero(self.ids[1:] <= self.ids[:-1])[:1]
        if late.size:
            raise ValueError(f"client {self.ids[late + 1][0]} follows {self.ids[late][0]}: ids must strictly increase")
        if self.rows.dtype.kind not in "iu" or self.labels.dtype.kind not in "iu":
            kinds = f"{self.rows.dtype} and {self.labels.dtype}"
            raise ValueError(f"client {self.ids[0]} needs integer rows and labels, got {kinds}")
        rows, size = self.rows, len(self.source)
        # Increasing rows lie between their first and last, so a fitting group costs one pass;
        # otherwise the client is searched for, rows outside the source before rows out of order.
        if (rows[:, 1:] <= rows[:, :-1]).any() or rows[:, 0].min() < 0 or rows[:, -1].max() >= size:
            faults = {
                f"rows outside its {size}-row source": ((rows < 0) | (rows >= size)).any(axis=1),
                "rows that do not strictly increase": (rows[:, 1:] <= rows[:, :-1]).any(axis=1),
            }
            for fault, bad in faults.items():
                if bad.any():
                    raise ValueError(f"client {self.ids[bad][0]} has {fault}")

    def take(self, positions) -> ClientGroup:
        """The clients at positions, an index of the client axis (a boolean mask, a slice or
        ascending positions). Each client passed this group's checks, so only what taking can
        spoil, the shape and the order of the taken ids, is checked again."""
        ids = self.ids[positions]
        if ids.ndim != 1 or not ids.size or (ids[1:] <= ids[:-1]).any():
            raise ValueError(f"positions must take one or more clients in ascending id, got ids {ids.tolist()}")
        taken = copy.copy(self)
        object.__setattr__(taken, "ids", ids)
        for name in ("rows", "labels", "malicious"):
            object.__setattr__(taken, name, getattr(self, name)[positions])
        return taken

    @property
    def samples(self) -> int:
        """n, the size of every client's shard."""
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.ids.shape[0]


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# What a config or data field accepts, by its annotation, and its name in errors. A bool
# is an integer to Python, but fits a bool field only.
_FIELD_KINDS = {
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "int": (_integer, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_integer, v)), "a list of integers"),
    "np.ndarray": (lambda v: isinstance(v, np.ndarray), "a numpy array"),
    "Dataset": (lambda v: isinstance(v, Dataset), "a Dataset"),
}


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, accepts, expected) of each field of a dataclass, looked up once per class."""
    rules = []
    for f in fields(cls):
        section = type(f.default)
        if is_dataclass(section):
            rules.append((f.name, lambda v, section=section: isinstance(v, section), f"a {section.__name__}"))
        else:
            rules.append((f.name, *_FIELD_KINDS[f.type]))
    return tuple(rules)


def check_field_kinds(config) -> None:
    """Reject a field of a config or data dataclass whose value is of the wrong kind, by
    name; a nested section must be of its default's class. An accepted value is stored as
    plain Python: a numpy scalar as its .item(), a list of integers as a tuple of ints."""
    for name, accepts, expected in _field_rules(type(config)):
        value = getattr(config, name)
        if not accepts(value):
            raise ValueError(f"{name} must be {expected}, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(config, name, value.item())
        elif isinstance(value, (list, tuple)):
            object.__setattr__(config, name, tuple(map(int, value)))


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
        check_field_kinds(self)
        if self.test_per_class < 1:
            raise ValueError(f"test_per_class {self.test_per_class} in dataset must be positive")


@dataclass(frozen=True)
class IdxData:
    """A config's IDX dataset: the train and test image/label files load_idx reads."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def __post_init__(self):
        check_field_kinds(self)


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    """count bytes of f. From a regular file, a count past its end, such as a header's
    claim that the file cannot hold, is rejected before the read allocates it."""
    info = os.fstat(f.fileno())
    if S_ISREG(info.st_mode) and count > info.st_size - f.tell():
        left = info.st_size - f.tell()
        raise IdxFormatError(f"{path}: truncated: {what} needs {count} bytes at offset {f.tell()}, but {left} follow")
    buf = f.read(count)
    if len(buf) != count:
        raise IdxFormatError(f"{path}: truncated while reading {what} at offset {f.tell() - len(buf)}")
    return buf


def _read_header(f, path: str, expected_magic: int) -> int:
    """Read an IDX file's magic number and item count; a wrong magic is fatal."""
    magic, count = struct.unpack(">II", _read_exact(f, 8, path, "header"))
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expected_magic:08x}")
    return count


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read an IDX image/label file pair into a normalized Dataset.

    Pixels are scaled to [0, 1] by dividing by 255; each image is flattened
    row-major. Both headers are big-endian per the IDX convention. A claim a
    regular file cannot hold is rejected before the read; a pipe has no size
    to check, so there the read tries it, and the CLI's MemoryError backstop
    catches a claim too large to allocate.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as f:
        n_images = _read_header(f, images_path, IDX_IMAGES_MAGIC)
        rows, cols = struct.unpack(">II", _read_exact(f, 8, images_path, "dimensions"))
        pixels = _read_exact(f, n_images * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as f:
        n_labels = _read_header(f, labels_path, IDX_LABELS_MAGIC)
        label_bytes = _read_exact(f, n_labels, labels_path, "label data")
    if n_images != n_labels:
        raise IdxFormatError(
            f"{images_path} has {n_images} items but {labels_path} has {n_labels}"
        )
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64)
    features /= 255.0  # in place: one float64 image array, whatever numpy elides
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
        # A finite but huge noise_std can overflow to +-inf, never to NaN; the clip maps it into [0, 1].
        with np.errstate(over="ignore"):
            features[block] = means[c] + noise_std * rng.standard_normal((per_class, dim))
        labels[block] = c
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(features, labels, num_classes)


def partition(dataset: Dataset, num_clients: int, seed) -> list[ClientGroup]:
    """Seeded shuffle split into near-equal disjoint shards covering the data, cut from one
    permutation as np.array_split would: the first n % num_clients clients hold one sample
    more, so there are at most two groups. Each shard is its sorted rows and their labels."""
    n = len(dataset)
    if num_clients < 1 or num_clients > n:
        raise ValueError(f"num_clients={num_clients} must be in [1, {n}]")
    perm = np.random.default_rng(seed).permutation(n)
    size, larger = divmod(n, num_clients)
    cut = larger * (size + 1)
    groups = []
    for first, block in ((0, perm[:cut].reshape(larger, size + 1)), (larger, perm[cut:].reshape(-1, size))):
        if len(block):
            rows = np.sort(block, axis=1)
            ids = np.arange(first, first + len(block))
            groups.append(ClientGroup(dataset, ids, rows, dataset.labels[rows], np.zeros(len(block), dtype=bool)))
    return groups


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def check_label_flip(malicious_fraction, source_class, target_class, num_classes=None) -> None:
    """The label-flip attack's rules, one message per fault; FederationConfig, validate and poison_shards call it.
    The fraction must be a number and the classes integers, by the rules check_field_kinds applies."""
    for name, value, kind in (
        ("malicious_fraction", malicious_fraction, "float"),
        ("source_class", source_class, "int"),
        ("target_class", target_class, "int"),
    ):
        accepts, expected = _FIELD_KINDS[kind]
        if not accepts(value):
            raise ValueError(f"{name} must be {expected}, got {value!r}")
    if not 0.0 <= malicious_fraction <= 0.5:
        raise ValueError(f"malicious_fraction {malicious_fraction} outside [0, 0.5]")
    flip = f"label flip (source_class={source_class}, target_class={target_class})"
    if source_class == target_class or min(source_class, target_class) < 0:
        raise ValueError(f"{flip} needs two distinct, non-negative classes")
    if num_classes is not None and max(source_class, target_class) >= num_classes:
        raise ValueError(f"{flip} names a class beyond the training set's {num_classes} classes")


def poison_shards(
    groups: list[ClientGroup], malicious_fraction: float, source_class: int, target_class: int, seed
) -> list[ClientGroup]:
    """The label-flip attack: flag a seeded subset of the honest clients as malicious and relabel
    each one's source-class samples as the target class, in a copy of its group's labels. The
    draw is over the clients' positions in the order given, ascending id for partition's groups.
    The features stay in the shared source, and a group with no drawn client is passed on as the
    same object."""
    classes = min((g.source.num_classes for g in groups), default=None)
    check_label_flip(malicious_fraction, source_class, target_class, classes)
    for g in groups:
        if g.malicious.any():
            raise ValueError(f"client {g.ids[g.malicious][0]} is already malicious")
    sizes = [len(g) for g in groups]
    drawn = np.zeros(sum(sizes), dtype=bool)
    count = round_half_up(malicious_fraction * len(drawn))
    drawn[np.random.default_rng(seed).choice(len(drawn), size=count, replace=False)] = True
    poisoned = []
    for g, flags in zip(groups, np.split(drawn, np.cumsum(sizes)[:-1])):
        if flags.any():
            labels = g.labels.copy()
            labels[flags[:, None] & (labels == source_class)] = target_class
            g = replace(g, labels=labels, malicious=flags)
        poisoned.append(g)
    return poisoned
