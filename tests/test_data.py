"""Tests for IDX parsing, synthesis, partitioning and the label-flip transform."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data
from fedsim.defense import DEFENSE_KINDS, REPORT_LIMIT, DefenseConfig, run_eliminator
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


def group_ids(groups) -> list:
    """The client ids of groups, concatenated."""
    return np.concatenate([g.ids for g in groups]).tolist()


@given(n=st.integers(1, 60), k=st.integers(1, 20), seed=st.integers(0, 10))
@settings(max_examples=50)
def test_partition_covers_disjointly(n, k, seed):
    if k > n:
        return
    rng = np.random.default_rng(seed)
    ds = data.Dataset(rng.random((n, 3)), rng.integers(0, 4, size=n), 4)
    groups = data.partition(ds, k, seed)
    assert group_ids(groups) == list(range(k))
    sizes = [g.samples for g in groups for _ in g.ids]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    rows = np.concatenate([g.rows.ravel() for g in groups])
    assert sorted(rows.tolist()) == list(range(n))  # disjoint and covering
    for g in groups:
        assert g.source is ds  # indexed, not copied
        np.testing.assert_array_equal(g.labels, ds.labels[g.rows])
        assert not g.malicious.any()


def samples_and_clients(most):
    """(n, K): 1 to most samples, and 1 to n clients."""
    return st.integers(1, most).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


@given(shape=samples_and_clients(300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_partition_matches_array_split_of_one_permutation(shape, seed):
    """At most two groups, ids 0 to K - 1 in order, shard sizes that never increase; and
    client cid's rows are the sorted cid-th piece np.array_split cuts from one seeded
    permutation, a definition independent of partition's reshapes."""
    n, k = shape
    ds = data.Dataset(np.zeros((n, 1)), np.arange(n) % 3, 3)
    groups = data.partition(ds, k, seed)
    assert 1 <= len(groups) <= 2
    assert group_ids(groups) == list(range(k))
    sizes = [g.samples for g in groups for _ in g.ids]
    assert sizes == sorted(sizes, reverse=True)
    pieces = np.array_split(np.random.default_rng(seed).permutation(n), k)
    for g in groups:
        for cid, rows in zip(g.ids.tolist(), g.rows):
            assert rows.tolist() == np.sort(pieces[cid]).tolist()


def test_partition_rejects_too_many_clients():
    ds = data.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        data.partition(ds, 4, seed=0)


def test_datasets_and_shards_compare_and_hash_by_identity():
    """Their array fields have no truth value, so == and hash() go by identity."""
    ds = data.Dataset(np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]), 2)
    twin = data.Dataset(ds.features.copy(), ds.labels.copy(), 2)
    a, b = data.partition(ds, 3, seed=0), data.partition(ds, 4, seed=0)
    assert a != data.partition(ds, 3, seed=0) and a == a
    assert ds != twin and ds == ds
    assert len({*a, *b, ds, twin}) == 5  # 6 rows make one group of 3 clients, or two of 4


def test_round_half_up():
    assert data.round_half_up(1.25) == 1
    assert data.round_half_up(1.5) == 2
    assert data.round_half_up(2.5) == 3
    assert data.round_half_up(0.49) == 0
    assert data.round_half_up(0.5) == 1


def group_of(source, rows, malicious=()):
    """A group over source whose client i holds rows[i] and their labels, flagged if i is in malicious."""
    rows = np.asarray(rows, dtype=np.intp)
    ids = np.arange(len(rows))
    return data.ClientGroup(source, ids, rows, source.labels[rows], np.isin(ids, malicious))


@given(frac=st.floats(0.0, 0.5), shape=samples_and_clients(60), seed=st.integers(0, 5))
@settings(max_examples=60)
def test_poison_shards_count_is_rounded_fraction(frac, shape, seed):
    """poison_shards flags exactly the client positions its rng.choice draws, round(frac * K) of
    them, over partition's one or two groups in ascending id."""
    n, k = shape
    ds = data.Dataset(np.zeros((n, 2)), np.zeros(n, dtype=int), 2)
    groups = data.partition(ds, k, seed=0)
    marked = data.poison_shards(groups, frac, 0, 1, seed)
    flagged = np.concatenate([g.ids[g.malicious] for g in marked]).tolist()
    count = data.round_half_up(frac * k)
    assert len(flagged) == count
    assert flagged == sorted(np.random.default_rng(seed).choice(k, size=count, replace=False).tolist())
    # A group with no flagged client is passed on as it is, not rebuilt.
    assert all(m is g for m, g in zip(marked, groups) if not m.malicious.any())
    # A client is poisoned once: poisoning the output again rejects the first malicious client.
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
    group = group_of(source, np.sort(rng.permutation(50)[:40].reshape(2, 20), axis=1))
    labels = group.labels.copy()
    # Two clients at fraction 0.5: the draw flags one of them.
    [flipped] = data.poison_shards([group], 0.5, 5, 3, seed=0)
    [bad] = np.flatnonzero(flipped.malicious)
    source_rows = labels[bad] == 5
    assert source_rows.any()
    np.testing.assert_array_equal(flipped.labels[bad][source_rows], 3)
    np.testing.assert_array_equal(flipped.labels[bad][~source_rows], labels[bad][~source_rows])
    np.testing.assert_array_equal(flipped.labels[1 - bad], labels[1 - bad])  # the honest client keeps its 5s
    # The features stay the shared source's, at the same rows.
    assert flipped.source is source
    np.testing.assert_array_equal(flipped.rows, group.rows)
    # Original group and the shared source untouched.
    assert not group.malicious.any()
    np.testing.assert_array_equal(group.labels, labels)
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
    group = group_of(source, np.arange(8).reshape(4, 2), malicious)
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.poison_shards([group], fraction, *flip, seed=0)


def test_poison_shards_takes_numpy_scalars_as_the_numbers_they_hold():
    source = data.Dataset(np.zeros((16, 2)), np.arange(16) % 4, 4)
    groups = data.partition(source, 8, seed=0)
    [poisoned] = data.poison_shards(groups, np.float64(0.25), np.int64(1), np.int64(2), seed=0)
    [plain] = data.poison_shards(groups, 0.25, 1, 2, seed=0)
    assert poisoned.malicious.tolist() == plain.malicious.tolist()
    assert poisoned.malicious.sum() == 2


# Two clients of two rows over a 4-row source; each case spoils some of these arrays.
FITTING = dict(ids=[3, 7], rows=[[0, 1], [2, 3]], labels=[[0, 0], [1, 1]], malicious=[False, True])


@pytest.mark.parametrize(
    "spoiled, shown",
    [
        (dict(rows=[[0, 1], [0, 4]]), "client 7 has rows outside its 4-row source"),
        (dict(rows=[[0, 1], [-1, 2]]), "client 7 has rows outside its 4-row source"),
        (dict(rows=[[0.0, 1.0], [2.0, 3.0]]), "client 3 needs integer rows and labels, got float64 and int64"),
        (dict(labels=[[0.0, 0.0], [1.0, 1.0]]), "client 3 needs integer rows and labels, got int64 and float64"),
        (dict(rows=[[0, 1], [2, 2]]), "client 7 has rows that do not strictly increase"),
        (dict(rows=[[0, 1], [3, 1]]), "client 7 has rows that do not strictly increase"),
        # Both faults: rows out of order are not bounded by their ends, and the range is named first.
        (dict(rows=[[0, 1], [5, 1]]), "client 7 has rows outside its 4-row source"),
        (dict(ids=[7, 7]), "client 7 follows 7: ids must strictly increase"),
        (dict(ids=[7, 3]), "client 3 follows 7: ids must strictly increase"),
        (dict(ids=[3.0, 7.0]), "need integer ids and bool malicious flags, got float64 and bool"),
        (dict(malicious=[0, 1]), "need integer ids and bool malicious flags, got int64 and int64"),
        (dict(rows=[0, 1], labels=[0, 1]), "need ids and malicious of shape (C,), rows and labels of shape (C, n)"),
    ],
    ids=[
        "row_past_end", "row_negative", "float_rows", "float_labels", "repeated_row", "rows_descending",
        "descending_past_end", "repeated_id", "ids_descending", "float_ids", "integer_flags", "one_dimensional_rows",
    ],
)
def test_client_group_rejects_arrays_that_do_not_fit(spoiled, shown):
    source = data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
    data.ClientGroup(source, **{name: np.array(value) for name, value in FITTING.items()})
    with pytest.raises(ValueError, match=re.escape(shown)):
        data.ClientGroup(source, **{name: np.array(value) for name, value in {**FITTING, **spoiled}.items()})


def test_client_group_takes_clients_by_position():
    source = data.Dataset(np.zeros((24, 2)), np.arange(24) % 4, 4)
    [group] = data.poison_shards(data.partition(source, 8, seed=0), 0.25, 1, 2, seed=0)
    assert group.source is source and len(group) == 8 and group.samples == 3
    assert group.ids.tolist() == list(range(8))
    assert group.malicious.any() and not group.malicious.all()
    for positions in ([0, 3], np.arange(8) % 3 == 1, slice(1, 3)):
        taken = group.take(positions)
        assert taken.ids.tolist() == group.ids[positions].tolist()
        assert taken.rows.tolist() == group.rows[positions].tolist()
        assert taken.labels.tolist() == group.labels[positions].tolist()
        assert taken.malicious.tolist() == group.malicious[positions].tolist()
        data.ClientGroup(taken.source, taken.ids, taken.rows, taken.labels, taken.malicious)  # passes every check
    # Taking can spoil only the shape and the order of the ids, and those are checked again.
    for positions, ids in (([3, 0], "[3, 0]"), ([2, 2], "[2, 2]"), (np.zeros(8, bool), "[]"), (4, "4")):
        shown = f"positions must take one or more clients in ascending id, got ids {ids}"
        with pytest.raises(ValueError, match=re.escape(shown)):
            group.take(positions)


def test_client_group_rejects_arrays_of_mismatched_shapes():
    source = data.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int), 2)
    rows, labels, ids, flags = np.array([[0, 1], [2, 3]]), np.zeros((2, 2), dtype=int), np.arange(2), np.zeros(2, bool)
    for bad in (
        (ids, rows[0], labels, flags), (ids, rows, labels[:1], flags), (ids[:1], rows, labels, flags),
        (ids, rows, labels, flags[:1]), (ids, rows[:, :0], labels[:, :0], flags),
    ):
        with pytest.raises(ValueError, match="need ids and malicious of shape|at least one client"):
            data.ClientGroup(source, *bad)


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
IDS, ROWS, FLAGS = np.arange(1), np.arange(2)[None], np.zeros(1, dtype=bool)


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: data.Dataset([[0.0]], np.zeros(1, dtype=int), 1), "features must be a numpy array, got [[0.0]]"),
        (lambda: data.Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), 2.5), "num_classes must be an integer, got 2.5"),
        (lambda: data.ClientGroup(SOURCE, [0], ROWS, ROWS, FLAGS), "ids must be a numpy array, got [0]"),
        (lambda: data.ClientGroup("x", IDS, ROWS, ROWS, FLAGS), "source must be a Dataset, got 'x'"),
        (lambda: data.ClientGroup(SOURCE, IDS, ROWS, ROWS, "no"), "malicious must be a numpy array, got 'no'"),
        (lambda: run_eliminator({0: 0.1}, None), "config must be a DefenseConfig, got None"),
        (
            lambda: perturb_loss(np.zeros(1), LdpConfig(), np.random.default_rng(0)),
            "uniforms must be float64 of shape (1,), one per loss, got shape () and dtype object",
        ),
        (lambda: perturb_loss(np.array(["a"]), LdpConfig(), np.zeros(1)), "losses must be numbers, got dtype <U1"),
        (
            lambda: perturb_loss(np.zeros(1), LdpConfig(), [0]),
            "uniforms must be float64 of shape (1,), one per loss, got shape (1,) and dtype int64",
        ),
    ],
    ids=[
        "dataset_list_features", "dataset_float_classes", "group_list_ids", "group_string_source",
        "group_string_flags", "eliminator_no_config", "perturb_one_generator", "perturb_string_losses",
        "perturb_integer_uniforms",
    ],
)
def test_library_inputs_of_the_wrong_kind_are_rejected_by_name(build, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        build()


# --- fuzzed library inputs -------------------------------------------------------

# The words a rejection names its input by: a field or argument, or the client at fault.
NAMED = re.compile(r"\b(ids|rows|labels|malicious|source|config|losses|loss|uniforms|client -?\d+)\b")

@st.composite
def group_arguments(draw):
    """ClientGroup's arguments for 1 to 4 clients of 1 to 4 rows over a source of 1 to 8
    rows, with up to two of them spoiled. A spoiled array has another dtype, another shape,
    values that do not fit (ids repeated or out of order; rows outside the source, repeated,
    out of order or none) or is a list; a spoiled source is no Dataset."""
    size = draw(st.integers(1, 8))
    c, n = draw(st.integers(1, 4)), draw(st.integers(1, min(4, size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.sort(rng.choice(2 * c + 1, c, replace=False))
    rows = np.sort(np.argsort(rng.random((c, size)), axis=1)[:, :n], axis=1)
    arguments = {
        "source": data.Dataset(np.zeros((size, 2)), np.zeros(size, dtype=int), 2),
        "ids": ids,
        "rows": rows,
        "labels": rng.integers(0, 2, (c, n)),
        "malicious": rng.random(c) < 0.5,
    }
    unfitting = {
        "ids": [ids[::-1], np.zeros_like(ids), ids - 3],
        "rows": [rows[:, ::-1], rows + size, rows - size, np.repeat(rows[:, :1], n, axis=1), rows[:, :0]],
        "labels": [arguments["labels"] - 3],
        "malicious": [~arguments["malicious"]],
    }
    for name in draw(st.lists(st.sampled_from(list(arguments)), max_size=2, unique=True), label="spoiled"):
        value = arguments[name]
        spoil = "source" if name == "source" else draw(st.sampled_from(["dtype", "shape", "values", "list"]))
        if spoil == "source":
            value = draw(st.sampled_from(["x", None, value.features]))
        elif spoil == "dtype":
            value = value.astype(draw(st.sampled_from([np.float64, np.bool_, np.uint8, np.int32, object])))
        elif spoil == "shape":
            value = draw(st.sampled_from([value[:-1], value[..., None], value.ravel()]))
        elif spoil == "values":
            value = draw(st.sampled_from(unfitting[name]))
        else:
            value = value.tolist()
        arguments[name] = value
    return arguments


@settings(max_examples=400)
@given(arguments=group_arguments())
def test_fuzzed_client_groups_build_or_are_rejected_by_name(arguments):
    """Every draw either builds a group that holds what ClientGroup promises, or raises a
    ValueError that names the field or the client; never an IndexError or a TypeError."""
    try:
        group = data.ClientGroup(**arguments)
    except ValueError as exc:
        assert NAMED.search(str(exc)), exc
        return
    assert isinstance(group.source, data.Dataset)
    assert group.ids.dtype.kind in "iu" and group.malicious.dtype == bool
    assert (np.diff(group.ids) > 0).all()
    assert group.rows.ndim == 2 and group.rows.size and group.rows.dtype.kind in "iu"
    assert (group.rows >= 0).all() and (group.rows < len(group.source)).all()
    assert (np.diff(group.rows, axis=1) > 0).all()
    assert group.labels.shape == group.rows.shape and group.labels.dtype.kind in "iu"
    assert group.ids.shape == group.malicious.shape == group.rows.shape[:1]


@st.composite
def dataset_arguments(draw):
    """Dataset's arguments for 0 to 6 samples of 1 to 3 features and 1 to 4 classes, with up
    to two of them spoiled. A spoiled array has another dtype, another shape, values that do
    not fit (labels outside the classes; non-finite features, which a Dataset holds as they
    are) or is a list; a spoiled num_classes is negative, too small or of another kind."""
    n, d, classes = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arguments = {"features": rng.random((n, d)), "labels": rng.integers(0, classes, n), "num_classes": classes}
    unfitting = {
        "features": [np.full((n, d), np.nan), np.full((n, d), -np.inf)],
        "labels": [arguments["labels"] + classes, arguments["labels"] - classes],
    }
    for name in draw(st.lists(st.sampled_from(list(arguments)), max_size=2, unique=True), label="spoiled"):
        value = arguments[name]
        if name == "num_classes":
            value = draw(st.sampled_from([-1, 0, classes - 1, np.int64(classes), float(classes), True, "3", None]))
        else:
            spoil = draw(st.sampled_from(["dtype", "shape", "values", "list"]))
            if spoil == "dtype":
                dtypes = [np.float64, np.float32, np.bool_, np.uint8, np.int32, np.complex128, object]
                value = value.astype(draw(st.sampled_from(dtypes)))
            elif spoil == "shape":
                value = draw(st.sampled_from([value[:-1], value[..., None], value.ravel(), value[None]]))
            elif spoil == "values":
                value = draw(st.sampled_from(unfitting[name]))
            else:
                value = value.tolist()
        arguments[name] = value
    return arguments


@settings(max_examples=300)
@given(arguments=dataset_arguments())
def test_fuzzed_datasets_build_or_are_rejected_by_name(arguments):
    """Every draw either builds a Dataset that holds what it promises, or raises a
    ValueError that names the field; never an IndexError or a TypeError."""
    try:
        dataset = data.Dataset(**arguments)
    except ValueError as exc:
        assert re.search(r"\b(features|labels|label|num_classes)\b", str(exc)), exc
        return
    assert dataset.features.ndim == 2 and dataset.features.dtype.kind == "f"
    assert dataset.labels.shape == (len(dataset),) and dataset.labels.dtype.kind in "iu"
    assert type(dataset.num_classes) is int and dataset.num_classes >= 0
    assert ((dataset.labels >= 0) & (dataset.labels < dataset.num_classes)).all()


# A report's loss: any float (NaN and the infinities included), one at or just past the
# eliminators' limit, an integer too large for a float, or something that is no number.
REPORTED = (
    st.floats()
    | st.floats(-REPORT_LIMIT, REPORT_LIMIT)
    | st.sampled_from([REPORT_LIMIT, -REPORT_LIMIT, 1.01 * REPORT_LIMIT, np.float32(2.5), np.int64(3)])
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([None, True, "0.5", np.array([0.5])])
)


@settings(max_examples=400)
@given(
    reports=st.dictionaries(
        st.integers(0, 30) | st.sampled_from([True, 1.5, "3", None, np.int64(4)]), REPORTED, max_size=8
    ),
    config=st.builds(
        DefenseConfig, kind=st.sampled_from(DEFENSE_KINDS), fixed_fraction=st.floats(0.0, 0.9),
        zscore_threshold=st.floats(0.0, 3.0), zscore_one_sided=st.booleans(), kmeans_guard=st.floats(0.0, 5.0),
    ) | st.sampled_from([None, {"kind": "kmeans"}]),
)
def test_fuzzed_reports_are_judged_or_rejected_by_name(reports, config):
    """Every draw either splits the reporting clients into eliminated and retained, one
    retained at least, with no numpy warning, or raises a ValueError that names the
    config, the ids or the client at fault."""
    try:
        outcome = run_eliminator(reports, config)
    except ValueError as exc:
        assert NAMED.search(str(exc)), exc
        return
    assert outcome.eliminated | outcome.retained == set(reports)
    assert not outcome.eliminated & outcome.retained and outcome.retained
    assert all(abs(float(loss)) <= REPORT_LIMIT for loss in reports.values())


# Each way to spoil perturb_loss's uniforms; a count of 0 leaves none to drop and no value to spoil.
SHAPE_SPOILS = {
    "longer": lambda u: np.append(u, 0.5),
    "two_dimensional": lambda u: u[None],
    "integers": lambda u: u.astype(np.int64),
    "float32": lambda u: u.astype(np.float32),
}
VALUE_SPOILS = {"one": 1.0, "negative": -0.25, "nan": float("nan"), "infinite": float("inf")}


@settings(max_examples=400)
@given(choice=st.data())
def test_fuzzed_perturb_loss_noises_or_rejects_by_name(choice):
    """Every draw either returns one finite report per loss, or raises a ValueError that
    names the losses, the config or the uniforms; spoiled uniforms beside well-formed
    losses and config are named."""
    count = choice.draw(st.integers(0, 4), label="count")
    values = choice.draw(
        st.lists(st.floats() | st.floats(-REPORT_LIMIT, REPORT_LIMIT), min_size=count, max_size=count), label="values"
    )
    losses = {
        "floats": np.array(values),
        "integers": np.arange(count) * choice.draw(st.integers(-(2**40), 2**40)),
        "list": values,
        "bools": np.zeros(count, dtype=bool),
        "strings": np.array(["a"] * count),
        "objects": np.array(values + [None], dtype=object)[:count],
        "two_dimensional": np.array(values)[None],
        "scalar": np.float64(0.5),
    }
    kind = choice.draw(st.sampled_from(["floats"] * 4 + list(losses)[1:]), label="losses")
    config = choice.draw(
        st.builds(LdpConfig, epsilon=st.floats(1e-3, 1e3), sensitivity=st.floats(1e-6, 10.0))
        | st.sampled_from([None, DefenseConfig()])
    )
    uniforms = np.random.default_rng([5, count]).random(count)
    spoils = ["none"] * 4 + ["list", *SHAPE_SPOILS] + (["shorter", *VALUE_SPOILS] if count else [])
    spoil = choice.draw(st.sampled_from(spoils), label="uniforms")
    if spoil == "list":
        uniforms = uniforms.tolist()
    elif spoil == "shorter":
        uniforms = uniforms[:-1]
    elif spoil in SHAPE_SPOILS:
        uniforms = SHAPE_SPOILS[spoil](uniforms)
    elif spoil in VALUE_SPOILS:
        uniforms[choice.draw(st.integers(0, count - 1))] = VALUE_SPOILS[spoil]
    try:
        got = perturb_loss(losses[kind], config, uniforms)
    except ValueError as exc:
        assert NAMED.search(str(exc)), exc
        if spoil not in ("none", "list") and kind in ("floats", "integers", "list") and isinstance(config, LdpConfig):
            assert "uniforms" in str(exc), exc
        return
    assert spoil in ("none", "list")
    assert got.shape == (count,) and got.dtype == np.float64 and np.isfinite(got).all()
