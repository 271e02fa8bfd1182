"""Tests for IDX parsing, synthesis, partitioning and the label-flip transform."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=None, label_magic=None, prefix=""):
    """Hand-assemble an IDX image/label file pair from raw byte values."""
    n = len(labels)
    images = tmp_path / f"{prefix}images.idx"
    images.write_bytes(
        struct.pack(">IIII", image_magic or data.IDX_IMAGES_MAGIC, n, rows, cols)
        + bytes(pixels)
    )
    lbls = tmp_path / f"{prefix}labels.idx"
    lbls.write_bytes(struct.pack(">II", label_magic or data.IDX_LABELS_MAGIC, n) + bytes(labels))
    return images, lbls


def test_load_idx_two_tiny_images(tmp_path):
    pixels = [0, 255, 128, 64, 10, 20, 30, 40]
    images, labels = write_idx_pair(tmp_path, pixels, [3, 7])
    ds = data.load_idx(images, labels)
    assert ds.features.shape == (2, 4)
    np.testing.assert_allclose(ds.features[0], np.array([0, 255, 128, 64]) / 255.0)
    np.testing.assert_allclose(ds.features[1], np.array([10, 20, 30, 40]) / 255.0)
    np.testing.assert_array_equal(ds.labels, [3, 7])
    assert ds.num_classes == 8


def test_load_idx_bad_image_magic_names_file_and_offset(tmp_path):
    images, labels = write_idx_pair(tmp_path, [0, 0, 0, 0], [1], image_magic=0x00000801)
    with pytest.raises(data.IdxFormatError) as err:
        data.load_idx(images, labels)
    assert "0x00000801" in str(err.value) and "offset 0" in str(err.value)
    assert str(images) in str(err.value)


def test_load_idx_swapped_label_magic(tmp_path):
    # Labels file carrying the images magic must be rejected.
    images, labels = write_idx_pair(tmp_path, [0, 0, 0, 0], [1], label_magic=0x00000803)
    with pytest.raises(data.IdxFormatError) as err:
        data.load_idx(images, labels)
    assert str(labels) in str(err.value)


def test_load_idx_count_mismatch(tmp_path):
    images, _ = write_idx_pair(tmp_path, [0] * 8, [1, 2], prefix="a_")
    _, labels = write_idx_pair(tmp_path, [0] * 4, [1], prefix="b_")
    with pytest.raises(data.IdxFormatError):
        data.load_idx(images, labels)


def test_load_idx_truncated_pixels(tmp_path):
    images, labels = write_idx_pair(tmp_path, [0, 0, 0], [1])  # 3 bytes for a 2x2 image
    with pytest.raises(data.IdxFormatError) as err:
        data.load_idx(images, labels)
    assert "truncated" in str(err.value)


def test_synthesize_minimal():
    ds = data.synthesize(num_classes=2, per_class=1, dim=4, separation=1.0, seed=0)
    assert len(ds) == 2
    assert set(ds.labels.tolist()) == {0, 1}


def test_synthesize_deterministic():
    a = data.synthesize(10, 5, 64, 6.0, seed=[1, 2])
    b = data.synthesize(10, 5, 64, 6.0, seed=[1, 2])
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_synthesize_range_and_blocks():
    ds = data.synthesize(3, 4, 8, 2.0, seed=0, noise_std=5.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    np.testing.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 4))


def test_class_means_respect_separation():
    for num_classes, dim in ((10, 64), (10, 16), (12, 32)):
        means = data.class_means(num_classes, dim, 6.0)
        for i in range(num_classes):
            for j in range(i + 1, num_classes):
                assert np.linalg.norm(means[i] - means[j]) >= 6.0 - 1e-9


def test_class_means_rejects_more_classes_than_patterns():
    # dim 6 leaves 64 sign patterns for the classes after the ten glyphs: 74 classes fit.
    assert data.class_means(74, 6, 6.0).shape == (74, 6)
    with pytest.raises(ValueError, match="75 classes need more distinct patterns than dim=6"):
        data.class_means(75, 6, 6.0)


def test_synthesize_nearest_centroid_oracle():
    # Well-separated blobs must be almost perfectly recoverable by the
    # nearest-centroid rule (clipping into [0,1] distorts means slightly).
    ds = data.synthesize(10, 100, 16, 8.0, seed=3, noise_std=1.0)
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(10)])
    dists = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.mean(np.argmin(dists, axis=1) == ds.labels) > 0.99


def test_synthesize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        data.synthesize(0, 1, 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.synthesize(2, 1, 4, 0.0, seed=0)


@given(n=st.integers(1, 60), k=st.integers(1, 20), seed=st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_partition_covers_disjointly(n, k, seed):
    if k > n:
        return
    rng = np.random.default_rng(seed)
    ds = data.Dataset(rng.random((n, 3)), rng.integers(0, 4, size=n), 4)
    shards = data.partition(ds, k, seed)
    assert [s.client_id for s in shards] == list(range(k))
    sizes = [len(s.data) for s in shards]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    rows = np.concatenate([s.data.features for s in shards])
    assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.features))
    assert all(not s.is_malicious for s in shards)


def test_partition_rejects_too_many_clients():
    ds = data.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        data.partition(ds, 4, seed=0)


def test_round_half_up():
    assert data.round_half_up(1.25) == 1
    assert data.round_half_up(1.5) == 2
    assert data.round_half_up(2.5) == 3
    assert data.round_half_up(0.49) == 0
    assert data.round_half_up(0.5) == 1


@given(frac=st.floats(0.0, 0.5), n=st.integers(1, 50), seed=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_mark_malicious_count_is_rounded_fraction(frac, n, seed):
    ds = data.Dataset(np.zeros((n, 2)), np.zeros(n, dtype=int), 1)
    shards = data.partition(ds, n, seed=0)
    marked = data.mark_malicious(shards, frac, seed)
    assert sum(s.is_malicious for s in marked) == data.round_half_up(frac * n)


def test_mark_malicious_rejects_out_of_range():
    ds = data.Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 1)
    shards = data.partition(ds, 4, seed=0)
    with pytest.raises(ValueError):
        data.mark_malicious(shards, 0.6, seed=0)
    with pytest.raises(ValueError):
        data.mark_malicious(shards, -0.1, seed=0)


def test_poison_labels_flips_exactly_the_source_class():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=30)
    shard = data.ClientShard(0, data.Dataset(rng.random((30, 4)), labels, 10), is_malicious=True)
    flipped = data.poison_labels(shard, 5, 3)
    source = labels == 5
    np.testing.assert_array_equal(flipped.data.labels[source], 3)
    np.testing.assert_array_equal(flipped.data.labels[~source], labels[~source])
    np.testing.assert_array_equal(flipped.data.features, shard.data.features)
    # Original shard untouched.
    np.testing.assert_array_equal(shard.data.labels, labels)


def test_poison_labels_requires_malicious_flag():
    shard = data.ClientShard(0, data.Dataset(np.zeros((2, 2)), np.array([5, 1]), 10))
    with pytest.raises(ValueError):
        data.poison_labels(shard, 5, 3)

