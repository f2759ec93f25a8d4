import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import store
from fairpair.errors import FormatError, ValidationError
from fairpair.store import (
    EmbeddingSet,
    LabelTable,
    MeanVectors,
    load_csv,
    load_dataset,
    mean_vectors,
    save_csv,
    save_dataset,
)

from conftest import failing_open, random_dataset


def test_roundtrip_bit_exact(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    back = load_dataset(p)
    assert back.vectors.tobytes() == small_set.vectors.tobytes()
    assert np.array_equal(back.identity, small_set.identity)
    assert np.array_equal(back.attribute, small_set.attribute)
    assert back.labels == small_set.labels
    assert back.content_hash() == small_set.content_hash()


def test_roundtrip_preserves_nonfinite_free_payload(tmp_path, small_set):
    # a second save of the loaded set writes identical bytes
    p1, p2 = tmp_path / "a.ffeb", tmp_path / "b.ffeb"
    save_dataset(p1, small_set)
    save_dataset(p2, load_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_roundtrip_random(tmp_path_factory, seed):
    ds = random_dataset(np.random.default_rng(seed))
    p = tmp_path_factory.mktemp("rt") / "x.ffeb"
    save_dataset(p, ds)
    back = load_dataset(p)
    assert back.content_hash() == ds.content_hash()
    assert back.labels == ds.labels


def test_unicode_labels_survive(tmp_path):
    labels = LabelTable(identities=("Angélique", "李明"), attributes=("group α",))
    ds = EmbeddingSet(
        vectors=np.eye(2, 3, dtype=np.float32) + 0.5,
        identity=np.array([0, 1]),
        attribute=np.array([0, 0]),
        labels=labels,
    )
    p = tmp_path / "u.ffeb"
    save_dataset(p, ds)
    assert load_dataset(p).labels == labels


def test_bad_magic_rejected(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_dataset(p)


def test_truncated_file_names_offset(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(FormatError, match="byte"):
        load_dataset(p)


@pytest.mark.parametrize("size", [2**30, 4_000_000_000])
def test_forged_header_sizes_rejected_before_reading(tmp_path, size):
    # N = d = size asks for 4 * N * d payload bytes: 2^62, or more than a read can take
    p = tmp_path / "forged.ffeb"
    p.write_bytes(struct.pack("<4sIIIII", b"FFEB", 1, size, size, 1, 1) + b"\0" * 16)
    with pytest.raises(FormatError, match=f"truncated vector payload at byte 24: "
                                          f"wanted {4 * size * size} bytes, got 16"):
        load_dataset(p)


@pytest.mark.parametrize("record", [0, 37])
def test_attribute_index_over_header_names_offset(tmp_path, small_set, record):
    # the header's M bounds the attribute indices as its G bounds the identities
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    raw = bytearray(p.read_bytes())
    at = 24 + 4 * small_set.n * small_set.dim + 4 * small_set.n + 2 * record
    raw[at:at + 2] = struct.pack("<H", 7)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^attribute index 7 at byte {at} "
                                          f"out of header range M={small_set.n_attributes}$"):
        load_dataset(p)


def test_trailing_garbage_rejected(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_dataset(p)


def test_unknown_version_rejected(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_dataset(p)


def test_label_count_mismatch_rejected(tmp_path, small_set):
    p = tmp_path / "a.ffeb"
    save_dataset(p, small_set)
    raw = p.read_bytes()
    # rewrite the trailer with one identity name dropped
    body_len = 24 + small_set.n * small_set.dim * 4 + small_set.n * 4 + small_set.n * 2
    trailer = json.loads(raw[body_len + 4 :].decode("utf-8"))
    trailer["identities"] = trailer["identities"][:-1]
    enc = json.dumps(trailer).encode("utf-8")
    p.write_bytes(raw[:body_len] + struct.pack("<I", len(enc)) + enc)
    with pytest.raises((FormatError, ValidationError)):
        load_dataset(p)


def test_csv_roundtrip(tmp_path, small_set):
    # indices renumber by first appearance, but names and payload survive
    p = tmp_path / "a.csv"
    save_csv(p, small_set)
    back = load_csv(p)
    orig_id = [small_set.labels.identities[k] for k in small_set.identity]
    back_id = [back.labels.identities[k] for k in back.identity]
    assert back_id == orig_id
    orig_at = [small_set.labels.attributes[k] for k in small_set.attribute]
    back_at = [back.labels.attributes[k] for k in back.attribute]
    assert back_at == orig_at
    assert back.vectors.tobytes() == small_set.vectors.tobytes()


def test_csv_is_stable_after_one_conversion(tmp_path, small_set):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(p1, small_set)
    save_csv(p2, load_csv(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_not_utf8_names_the_byte(tmp_path, small_set):
    p = tmp_path / "a.csv"
    save_csv(p, small_set)
    data = p.read_bytes()
    at = data.index(b"\n", 200) + 3  # inside a record past the first few
    p.write_bytes(data[:at] + b"\xc3(" + data[at + 2:])  # a lead byte with no continuation
    with pytest.raises(FormatError, match=f"^{p}: byte {at} is not UTF-8 text$"):
        load_csv(p)


@pytest.mark.parametrize("value", ["1e39", "-3.41e38"])
def test_csv_component_outside_float32_range(tmp_path, value):
    # the finite float32 maximum is about 3.4028235e38; beyond it the record is
    # named by its line, with no overflow warning
    p = tmp_path / "a.csv"
    p.write_text("index,identity,attribute,v0,v1\n0,a,x,1.0,2.0\n1,b,x,3.4028235e38,"
                 f"{value}\n")
    with pytest.raises(FormatError, match="^record 3: component outside float32's range$"):
        load_csv(p)


# --- validation ------------------------------------------------------------

def _base_kwargs():
    return dict(
        vectors=np.ones((4, 3), dtype=np.float32),
        identity=np.array([0, 0, 1, 1]),
        attribute=np.array([0, 0, 1, 1]),
        labels=LabelTable.default(2, 2),
    )


def test_rejects_nonfinite_vector():
    kw = _base_kwargs()
    v = kw["vectors"].copy()
    v[2, 1] = np.nan
    kw["vectors"] = v
    with pytest.raises(ValidationError, match="record 2"):
        EmbeddingSet(**kw)


def test_rejects_zero_vector():
    kw = _base_kwargs()
    v = kw["vectors"].copy()
    v[3] = 0.0
    kw["vectors"] = v
    with pytest.raises(ValidationError, match="all-zero"):
        EmbeddingSet(**kw)


def test_rejects_bad_record_in_later_chunk():
    # validation runs one budget chunk at a time: report the same first record
    # as a whole-array check, a non-finite one anywhere before any all-zero one
    rows = store.budget_rows(64)
    n = 3 * rows
    v = np.ones((n, 64), dtype=np.float32)
    kw = dict(identity=np.arange(n) % 2, attribute=np.zeros(n, np.int64),
              labels=LabelTable.default(2, 1))
    v[rows + 5] = 0.0
    v[2 * rows + 9] = 0.0
    with pytest.raises(ValidationError, match=f"all-zero vector at record {rows + 5}$"):
        EmbeddingSet(vectors=v.copy(), **kw)
    v[2 * rows + 7, 3] = np.inf
    with pytest.raises(ValidationError,
                       match=f"non-finite vector component at record {2 * rows + 7}$"):
        EmbeddingSet(vectors=v, **kw)


def test_rejects_sparse_identity_indexing():
    kw = _base_kwargs()
    kw["identity"] = np.array([0, 0, 3, 3])
    kw["labels"] = LabelTable.default(4, 2)
    with pytest.raises(ValidationError, match="dense"):
        EmbeddingSet(**kw)


def test_rejects_identity_spanning_attributes():
    kw = _base_kwargs()
    kw["attribute"] = np.array([0, 1, 1, 1])
    with pytest.raises(ValidationError, match="spans"):
        EmbeddingSet(**kw)


def test_rejects_duplicate_label_names():
    with pytest.raises(ValidationError, match="unique"):
        LabelTable(identities=("a", "a"), attributes=("x",))


def test_arrays_are_read_only(small_set):
    with pytest.raises(ValueError):
        small_set.vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        small_set.identity[0] = 1


def test_sets_leave_the_callers_array_writeable():
    # arrays that need no copy are shared, through a read-only view
    vecs = np.arange(12, dtype=np.float32).reshape(4, 3) + 1
    ident = np.array([0, 0, 1, 1], dtype=np.int64)
    ds = EmbeddingSet(vectors=vecs, identity=ident, attribute=np.zeros(4, np.int64),
                      labels=LabelTable.default(2, 1))
    means, counts = np.ones((2, 3)), np.array([2, 2], dtype=np.int64)
    mv = MeanVectors(means=means, counts=counts)
    for mine, theirs in ((vecs, ds.vectors), (ident, ds.identity),
                         (means, mv.means), (counts, mv.counts)):
        assert mine.flags.writeable and not theirs.flags.writeable
        assert np.shares_memory(mine, theirs)
        mine.flat[0] = 7
        assert theirs.flat[0] == 7


def test_failed_save_keeps_old_dataset(tmp_path, small_set, monkeypatch):
    path = tmp_path / "set.ffeb"
    save_dataset(path, small_set)
    before = path.read_bytes()

    def boom(*args):  # struct.pack writes the label-table length, after the vectors
        raise OSError("disk full")
    other = random_dataset(np.random.default_rng(8), n=30, d=5, g=4, m=2)
    with monkeypatch.context() as mp:
        mp.setattr(struct, "pack", boom)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(path, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["set.ffeb"]
    save_dataset(path, other)  # a save that completes replaces the file
    assert load_dataset(path).vectors.tobytes() == other.vectors.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["set.ffeb"]


def test_failed_csv_save_keeps_old_file(tmp_path, small_set, monkeypatch):
    path = tmp_path / "set.csv"
    store.save_csv(path, small_set)
    before = path.read_bytes()
    other = random_dataset(np.random.default_rng(8), n=30, d=5, g=4, m=2)
    with monkeypatch.context() as mp:
        mp.setattr(store, "open", failing_open(2), raising=False)  # header and one row
        with pytest.raises(OSError, match="disk full"):
            store.save_csv(path, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["set.csv"]


def test_identity_attribute_map(small_set):
    id_attr = small_set.identity_attribute()
    assert np.array_equal(id_attr[small_set.identity], small_set.attribute)


# --- means and normalization ------------------------------------------------

def test_mean_vectors_match_loop(small_set):
    mv = mean_vectors(small_set)
    for k in range(small_set.n_identities):
        rows = small_set.vectors[small_set.identity == k].astype(np.float64)
        np.testing.assert_allclose(mv.means[k], rows.mean(axis=0), rtol=1e-13)
        assert mv.counts[k] == len(rows)


def test_mean_vectors_add_in_row_order():
    # two budget chunks and a part cross two chunk boundaries; the sums must
    # equal one float64 pass over all rows in their stored order, bit for bit
    ds = random_dataset(np.random.default_rng(5), n=2 * store.budget_rows(64) + 808,
                        d=64, g=7, m=2)
    sums = np.zeros((ds.n_identities, ds.dim))
    np.add.at(sums, ds.identity, ds.vectors.astype(np.float64))
    mv = mean_vectors(ds)
    assert np.array_equal(mv.means, sums / mv.counts[:, None])


def _means_by_add_at(ds):
    """The reference: every row added by `np.add.at` in stored order."""
    sums = np.zeros((ds.n_identities, ds.dim))
    np.add.at(sums, ds.identity, ds.vectors.astype(np.float64))
    return sums / np.bincount(ds.identity)[:, None]


@pytest.mark.parametrize("labels", ["shuffled_uneven", "one_huge_identity"])
def test_mean_vectors_bitwise_as_add_at(labels, monkeypatch):
    rng = np.random.default_rng(11)
    if labels == "shuffled_uneven":
        ids = np.repeat(np.arange(60), rng.integers(1, 30, 60))
        rng.shuffle(ids)
    else:  # rows of one identity, 25 singletons scattered among them
        ids = np.zeros(5000, dtype=np.int64)
        ids[rng.choice(len(ids), 25, replace=False)] = np.arange(1, 26)
    n, d = len(ids), 24
    # magnitudes over ten decades, so the order of addition shows in the bits
    v = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 5, size=(n, 1))
    v[rng.random(v.shape) < 0.05] = -0.0
    ds = EmbeddingSet(vectors=v.astype(np.float32), identity=ids,
                      attribute=np.zeros(n, np.int64), labels=LabelTable.default(ids.max() + 1, 1))
    want = _means_by_add_at(ds)
    assert mean_vectors(ds).means.tobytes() == want.tobytes()
    monkeypatch.setattr(store, "WORKING_SET", 8 * d * 7)  # 7-row chunks
    assert mean_vectors(ds).means.tobytes() == want.tobytes()


def test_content_hash_tracks_payload(small_set):
    h1 = small_set.content_hash()
    moved = EmbeddingSet(
        vectors=np.asarray(small_set.vectors) + np.float32(1e-3),
        identity=small_set.identity,
        attribute=small_set.attribute,
        labels=small_set.labels,
    )
    assert moved.content_hash() != h1


def test_content_hash_is_the_container_digest(small_set):
    # the vectors are hashed in place; the digest is that of the bytes copied out
    want = hashlib.sha256(
        store._HEADER.pack(store.MAGIC, store.VERSION, small_set.n, small_set.dim,
                           small_set.n_identities, small_set.n_attributes)
        + small_set.vectors.tobytes() + small_set.identity.astype("<u4").tobytes()
        + small_set.attribute.astype("<u2").tobytes()).hexdigest()
    assert small_set.content_hash() == want
