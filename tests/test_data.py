"""Tests for IDX parsing, synthesis, partitioning and the label-flip transform."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data
from fedsim.defense import run_eliminator
from fedsim.privacy import LdpConfig, perturb_loss


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
    # Every pixel is the float64 of byte / 255.0, bit for bit.
    assert ds.features.tobytes() == (np.array(pixels, dtype=np.float64).reshape(2, 4) / 255.0).tobytes()
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
    assert "0x00000803" in str(err.value) and "offset 0" in str(err.value)
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


@pytest.mark.parametrize(
    "images, labels, shown",
    [
        ((100_000, 200, 200), 1, "pixel data needs 4000000000 bytes at offset 16, but 16 follow"),
        ((0xFFFFFFFF, 65535, 65535), 1, f"pixel data needs {0xFFFFFFFF * 65535 * 65535} bytes at offset 16, but 16"),
        ((1, 4, 4), 0xFFFFFFFF, "label data needs 4294967295 bytes at offset 8, but 1 follow"),
    ],
    ids=["four_gigabytes", "largest_header", "labels"],
)
def test_load_idx_rejects_a_header_claim_past_the_file_before_reading(tmp_path, images, labels, shown):
    """Each file holds a 16-byte image body or a 1-byte label body; the claimed size is
    compared with the file's before any read, so no buffer of that size is allocated."""
    image_path, label_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    image_path.write_bytes(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, *images) + bytes(16))
    label_path.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, labels) + bytes(1))
    tracemalloc.start()
    try:
        with pytest.raises(data.IdxFormatError, match=re.escape(shown)):
            data.load_idx(image_path, label_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    # A noise_std near the float64 limit overflows to +-inf before the clip, with no warning.
    for noise_std in (5.0, 1e308):
        ds = data.synthesize(3, 4, 8, 2.0, seed=0, noise_std=noise_std)
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
@settings(max_examples=50)
def test_partition_covers_disjointly(n, k, seed):
    if k > n:
        return
    rng = np.random.default_rng(seed)
    ds = data.Dataset(rng.random((n, 3)), rng.integers(0, 4, size=n), 4)
    shards = data.partition(ds, k, seed)
    assert [s.client_id for s in shards] == list(range(k))
    sizes = [len(s) for s in shards]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    rows = np.concatenate([s.rows for s in shards])
    assert len(set(rows.tolist())) == n  # disjoint ...
    assert sorted(rows.tolist()) == list(range(n))  # ... and covering
    for s in shards:
        assert s.source is ds  # indexed, not copied
        assert np.all(np.diff(s.rows) > 0)
        np.testing.assert_array_equal(s.labels, ds.labels[s.rows])
    assert all(not s.is_malicious for s in shards)


def test_partition_rejects_too_many_clients():
    ds = data.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        data.partition(ds, 4, seed=0)


def test_datasets_and_shards_compare_and_hash_by_identity():
    """Their array fields have no truth value, so == and hash() go by identity."""
    ds = data.Dataset(np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]), 2)
    twin = data.Dataset(ds.features.copy(), ds.labels.copy(), 2)
    a, b = data.partition(ds, 3, seed=0), data.partition(ds, 3, seed=0)
    assert a != b and a == a
    assert ds != twin and ds == ds
    assert len({*a, *b, ds, twin}) == 8


def test_round_half_up():
    assert data.round_half_up(1.25) == 1
    assert data.round_half_up(1.5) == 2
    assert data.round_half_up(2.5) == 3
    assert data.round_half_up(0.49) == 0
    assert data.round_half_up(0.5) == 1


def index_shard(source, rows, cid=0, is_malicious=False):
    """A client shard over the shared source holding these rows and their labels."""
    rows = np.asarray(rows, dtype=np.intp)
    return data.ClientShard(cid, source, rows, source.labels[rows], is_malicious)


@given(frac=st.floats(0.0, 0.5), n=st.integers(1, 50), seed=st.integers(0, 5))
@settings(max_examples=60)
def test_poison_shards_count_is_rounded_fraction(frac, n, seed):
    ds = data.Dataset(np.zeros((n, 2)), np.zeros(n, dtype=int), 2)
    shards = data.partition(ds, n, seed=0)
    marked = data.poison_shards(shards, frac, 0, 1, seed)
    assert sum(s.is_malicious for s in marked) == data.round_half_up(frac * n)
    # An honest shard is passed on as it is, not rebuilt.
    assert all(m is s for m, s in zip(marked, shards) if not m.is_malicious)
    # A shard is poisoned once: poisoning the output again rejects the first malicious client.
    flagged = [s.client_id for s in marked if s.is_malicious]
    if flagged:
        with pytest.raises(ValueError, match=f"client {flagged[0]} is already malicious"):
            data.poison_shards(marked, frac, 0, 1, seed + 1)


def test_poison_shards_rejects_fraction_out_of_range():
    ds = data.Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
    shards = data.partition(ds, 4, seed=0)
    with pytest.raises(ValueError, match=re.escape("malicious_fraction 0.6 outside [0, 0.5]")):
        data.poison_shards(shards, 0.6, 0, 1, seed=0)
    with pytest.raises(ValueError, match=re.escape("malicious_fraction -0.1 outside [0, 0.5]")):
        data.poison_shards(shards, -0.1, 0, 1, seed=0)


def test_poison_shards_flips_exactly_the_source_class():
    rng = np.random.default_rng(0)
    source = data.Dataset(rng.random((50, 4)), rng.integers(0, 10, size=50), 10)
    before = source.labels.copy()
    shard = index_shard(source, np.sort(rng.choice(50, size=30, replace=False)))
    labels = shard.labels.copy()
    # One shard at fraction 0.5 rounds up to one malicious shard.
    [flipped] = data.poison_shards([shard], 0.5, 5, 3, seed=0)
    assert flipped.is_malicious
    source_rows = labels == 5
    assert source_rows.any()
    np.testing.assert_array_equal(flipped.labels[source_rows], 3)
    np.testing.assert_array_equal(flipped.labels[~source_rows], labels[~source_rows])
    # The features stay the shared source's, at the same rows.
    assert flipped.source is source
    np.testing.assert_array_equal(flipped.rows, shard.rows)
    # Original shard and the shared source untouched.
    assert not shard.is_malicious
    np.testing.assert_array_equal(shard.labels, labels)
    np.testing.assert_array_equal(source.labels, before)


@pytest.mark.parametrize(
    "flip, fraction, malicious, shown",
    [
        ((1, -1), 0.5, (), "label flip (source_class=1, target_class=-1) needs two distinct, non-negative classes"),
        ((2, 2), 0.5, (), "label flip (source_class=2, target_class=2) needs two distinct, non-negative classes"),
        ((-1, 1), 0.5, (), "label flip (source_class=-1, target_class=1) needs two distinct, non-negative classes"),
        ((5, 10), 0.0, (), "label flip (source_class=5, target_class=10) names a class beyond the training set's 10 classes"),
        ((10, 3), 0.0, (), "label flip (source_class=10, target_class=3) names a class beyond the training set's 10 classes"),
        ((5, 3), 0.0, (2,), "client 2 is already malicious"),
        ((1.5, 2), 0.25, (), "source_class must be an integer, got 1.5"),
        ((True, 2), 0.25, (), "source_class must be an integer, got True"),
        (("3", 2), 0.25, (), "source_class must be an integer, got '3'"),
        ((1, 2.0), 0.25, (), "target_class must be an integer, got 2.0"),
        ((1, 2), "0.25", (), "malicious_fraction must be a number, got '0.25'"),
    ],
    ids=[
        "negative_target", "source_is_target", "negative_source", "target_beyond", "source_beyond", "marked_shard",
        "float_source", "bool_source", "string_source", "float_target", "string_fraction",
    ],
)
def test_poison_shards_rejects_an_attack_it_cannot_apply(flip, fraction, malicious, shown):
    source = data.Dataset(np.zeros((8, 2)), np.arange(8) % 10, 10)
    shards = [index_shard(source, [2 * cid, 2 * cid + 1], cid, cid in malicious) for cid in range(4)]
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.poison_shards(shards, fraction, *flip, seed=0)


def test_poison_shards_takes_numpy_scalars_as_the_numbers_they_hold():
    source = data.Dataset(np.zeros((16, 2)), np.arange(16) % 4, 4)
    shards = data.partition(source, 8, seed=0)
    poisoned = data.poison_shards(shards, np.float64(0.25), np.int64(1), np.int64(2), seed=0)
    assert [s.is_malicious for s in poisoned] == [s.is_malicious for s in data.poison_shards(shards, 0.25, 1, 2, seed=0)]
    assert sum(s.is_malicious for s in poisoned) == 2


@pytest.mark.parametrize(
    "rows, labels, shown",
    [
        ([0, 1, 2], [0, 1], "client 7 needs rows and labels of one shape (n,), got (3,) and (2,)"),
        ([[0, 1]], [[0, 1]], "client 7 needs rows and labels of one shape (n,), got (1, 2) and (1, 2)"),
        ([0, 4], [0, 1], "client 7 has rows outside its 4-row source"),
        ([-1, 2], [0, 1], "client 7 has rows outside its 4-row source"),
        ([0.0, 1.0], [0, 1], "client 7 needs integer rows and labels, got float64 and int64"),
        ([0, 1], [0.0, 1.0], "client 7 needs integer rows and labels, got int64 and float64"),
        ([0, 2, 2], [0, 1, 1], "client 7 has rows that do not strictly increase"),
        ([3, 1], [0, 1], "client 7 has rows that do not strictly increase"),
        # Both faults: rows out of order are not bounded by their ends, and the range is named first.
        ([5, 1], [0, 1], "client 7 has rows outside its 4-row source"),
    ],
    ids=[
        "lengths_differ", "not_one_dimensional", "row_past_end", "row_negative", "float_rows", "float_labels",
        "repeated_row", "rows_descending", "descending_past_end",
    ],
)
def test_client_shard_rejects_rows_that_do_not_fit(rows, labels, shown):
    source = data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.ClientShard(7, source, np.array(rows), np.array(labels))


def test_client_group_gathers_shards_and_takes_clients_by_position():
    source = data.Dataset(np.zeros((24, 2)), np.arange(24) % 4, 4)
    shards = data.poison_shards(data.partition(source, 8, seed=0), 0.25, 1, 2, seed=0)
    group = data.ClientGroup.of(shards[2:6])
    assert group.source is source and len(group) == 4 and group.samples == 3
    assert group.ids.tolist() == [2, 3, 4, 5]
    for name, field in (("rows", "rows"), ("labels", "labels"), ("malicious", "is_malicious")):
        assert getattr(group, name).tolist() == [np.asarray(getattr(s, field)).tolist() for s in shards[2:6]]
    assert group.malicious.any() and not group.malicious.all()
    for positions in ([3, 0], np.array([False, True, True, False]), slice(1, 3)):
        taken = group.take(positions)
        assert taken.ids.tolist() == group.ids[positions].tolist()
        assert taken.rows.tolist() == group.rows[positions].tolist()
        assert taken.labels.tolist() == group.labels[positions].tolist()
        assert taken.malicious.tolist() == group.malicious[positions].tolist()
    joined = data.ClientGroup.joined([group.take([0]), data.ClientGroup.of(shards[6:8])])
    want = data.ClientGroup.of([shards[2], *shards[6:8]])
    for name in ("ids", "rows", "labels", "malicious"):
        assert getattr(joined, name).tolist() == getattr(want, name).tolist()


def test_client_group_rejects_arrays_of_mismatched_shapes():
    source = data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
    rows, labels, ids, flags = np.array([[0, 1], [2, 3]]), np.zeros((2, 2), dtype=int), np.arange(2), np.zeros(2, bool)
    for bad in (
        (ids, rows[0], labels, flags), (ids, rows, labels[:1], flags), (ids[:1], rows, labels, flags),
        (ids, rows, labels, flags[:1]), (ids, rows[:, :0], labels[:, :0], flags),
    ):
        with pytest.raises(ValueError, match="need ids and malicious of shape|at least one client"):
            data.ClientGroup(source, *bad)
    with pytest.raises(ValueError, match=re.escape("client 1 has 2 samples, not 1")):
        data.ClientGroup.joined([data.ClientGroup(source, ids[:1], rows[:1, :1], labels[:1, :1], flags[:1]),
                                 data.ClientGroup(source, ids[1:], rows[1:], labels[1:], flags[1:])])


@pytest.mark.parametrize(
    "labels, shown", [([-1, 0, 1, 0], "label -1 outside [0, 2)"), ([0, 1, 2, 0], "label 2 outside [0, 2)")]
)
def test_dataset_rejects_label_outside_classes_by_value(labels, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.Dataset(np.zeros((4, 3)), np.array(labels), 2)


@pytest.mark.parametrize(
    "features, labels, shown",
    [
        (np.zeros((4, 3)), np.zeros((4, 1), dtype=int), "labels of shape (n,), got (4, 3) and (4, 1)"),
        (np.zeros(4), np.zeros(4, dtype=int), "features of shape (n, d) and labels of shape (n,), got (4,)"),
        (np.zeros((4, 3)), np.zeros(4), "labels must be integers, got dtype float64"),
        (np.zeros((4, 3), dtype=np.int64), np.zeros(4, dtype=int), "features must be floating point, got dtype int64"),
        (np.zeros((4, 3), dtype=bool), np.zeros(4, dtype=int), "features must be floating point, got dtype bool"),
    ],
    ids=["column_labels", "one_dimensional_features", "float_labels", "integer_features", "bool_features"],
)
def test_dataset_rejects_arrays_of_the_wrong_shape_or_type(features, labels, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.Dataset(features, labels, 2)


SOURCE = data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
ROWS = np.arange(2)


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: data.Dataset([[0.0]], np.zeros(1, dtype=int), 1), "features must be a numpy array, got [[0.0]]"),
        (lambda: data.Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), 2.5), "num_classes must be an integer, got 2.5"),
        (lambda: data.ClientShard(True, SOURCE, ROWS, ROWS), "client_id must be an integer, got True"),
        (lambda: data.ClientShard(0, "x", ROWS, ROWS), "source must be a Dataset, got 'x'"),
        (lambda: data.ClientShard(0, SOURCE, ROWS, ROWS, "no"), "is_malicious must be true or false, got 'no'"),
        (lambda: run_eliminator({0: 0.1}, None), "config must be a DefenseConfig, got None"),
        (
            lambda: perturb_loss(np.zeros(1), LdpConfig(), np.random.default_rng(0)),
            "rngs must be a list of generators, one per loss, got one Generator",
        ),
    ],
    ids=[
        "dataset_list_features", "dataset_float_classes", "shard_bool_id", "shard_string_source",
        "shard_string_flag", "eliminator_no_config", "perturb_one_generator",
    ],
)
def test_library_inputs_of_the_wrong_kind_are_rejected_by_name(build, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        build()
