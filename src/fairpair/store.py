"""Embedding datasets: validation, per-identity means, and the FFEB container.

FFEB layout (little-endian): magic ``FFEB``, u32 version=1, u32 N, u32 d,
u32 G, u32 M, then N*d float32 vectors (row-major), N u32 identity indices,
N u16 attribute indices, and a u32 length-prefixed UTF-8 JSON trailer
``{"identities": [...], "attributes": [...]}`` naming the dense indices.

Vectors are stored raw (not pre-normalized); cosine similarity is
normalization-invariant, so downstream metrics are unaffected and ingested
data survives a round trip bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .util import replaced

MAGIC = b"FFEB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")

# bytes of scratch a chunked pass over rows may hold: validation, the mean
# sums, the unit rows, the S_intra pass and the neighbour selection all take
# their chunk sizes from it, so the arrays the algorithm needs set the peak
WORKING_SET = 2 << 20


def budget_rows(width: int) -> int:
    """Rows of `width` float64 values that fit in WORKING_SET; at least one."""
    return max(1, WORKING_SET // (8 * width))


@dataclass(frozen=True)
class LabelTable:
    """External names for the dense identity and attribute indices."""

    identities: tuple[str, ...]
    attributes: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.identities)) != len(self.identities):
            raise ValidationError("identity names are not unique")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValidationError("attribute names are not unique")

    @staticmethod
    def default(g: int, m: int) -> "LabelTable":
        return LabelTable(
            identities=tuple(f"id{k}" for k in range(g)),
            attributes=tuple(f"attr{t}" for t in range(m)),
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only contiguous view; the caller's own array keeps its write flag."""
    arr = np.ascontiguousarray(arr).view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """N embedding vectors with identity and attribute labels.

    The arrays are read-only views, safe to share across threads. An array
    passed in with the right dtype and layout is not copied: the set shares
    the caller's buffer, so the caller must not write into it while the set
    is in use.
    """

    vectors: np.ndarray    # (N, d) float32
    identity: np.ndarray   # (N,) int64, dense in [0, G)
    attribute: np.ndarray  # (N,) int64, in [0, M)
    labels: LabelTable

    def __post_init__(self):
        object.__setattr__(self, "vectors", _frozen(np.asarray(self.vectors, dtype=np.float32)))
        object.__setattr__(self, "identity", _frozen(np.asarray(self.identity, dtype=np.int64)))
        object.__setattr__(self, "attribute", _frozen(np.asarray(self.attribute, dtype=np.int64)))
        self._validate()

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_identities(self) -> int:
        return len(self.labels.identities)

    @property
    def n_attributes(self) -> int:
        return len(self.labels.attributes)

    def _validate(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1 or self.vectors.shape[1] < 1:
            raise ValidationError(f"vectors must be a non-empty 2-D matrix, got shape {self.vectors.shape}")
        n = self.n
        if self.identity.shape != (n,) or self.attribute.shape != (n,):
            raise ValidationError("identity/attribute arrays must have one entry per vector")
        zero, chunk = None, budget_rows(self.dim)
        for i0 in range(0, n, chunk):  # a non-finite record anywhere is reported first
            v = self.vectors[i0:i0 + chunk]
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
            if bad.size:
                raise ValidationError(f"non-finite vector component at record {i0 + bad[0]}")
            dead = np.flatnonzero(~v.any(axis=1))
            if zero is None and dead.size:
                zero = i0 + dead[0]
        if zero is not None:
            raise ValidationError(f"all-zero vector at record {zero}")
        g, m = self.n_identities, self.n_attributes
        if self.identity.min() < 0 or self.identity.max() >= g:
            raise ValidationError(f"identity index out of range [0, {g})")
        if self.attribute.min() < 0 or self.attribute.max() >= m:
            raise ValidationError(f"attribute index out of range [0, {m})")
        present = np.zeros(g, dtype=bool)
        present[self.identity] = True
        if not present.all():
            raise ValidationError(f"identity indices not dense: identity {int(np.flatnonzero(~present)[0])} has no records")
        # attribute must be constant within an identity
        first_attr = np.full(g, -1, dtype=np.int64)
        first_attr[self.identity[::-1]] = self.attribute[::-1]
        mismatch = first_attr[self.identity] != self.attribute
        if np.any(mismatch):
            k = int(self.identity[np.flatnonzero(mismatch)[0]])
            attrs = sorted(set(self.attribute[self.identity == k].tolist()))
            raise ValidationError(f"identity {k} spans attributes {attrs}")

    def identity_attribute(self) -> np.ndarray:
        """Attribute group of each identity, shape (G,)."""
        out = np.empty(self.n_identities, dtype=np.int64)
        out[self.identity] = self.attribute
        return out

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(_HEADER.pack(MAGIC, VERSION, self.n, self.dim, self.n_identities, self.n_attributes))
        h.update(self.vectors)  # contiguous: hashed in place, not copied
        h.update(self.identity.astype("<u4"))
        h.update(self.attribute.astype("<u2"))
        return h.hexdigest()


@dataclass(frozen=True)
class MeanVectors:
    """Per-identity arithmetic mean vectors and image counts."""

    means: np.ndarray   # (G, d) float64
    counts: np.ndarray  # (G,) int64

    def __post_init__(self):
        object.__setattr__(self, "means", _frozen(np.asarray(self.means, dtype=np.float64)))
        object.__setattr__(self, "counts", _frozen(np.asarray(self.counts, dtype=np.int64)))


def mean_vectors(dataset: EmbeddingSet) -> MeanVectors:
    """Arithmetic mean of each identity's vectors, accumulated in float64 row order.

    Each identity adds its rows one by one in the order they are stored, as a
    row-by-row loop would, bit for bit. An identity's r-th stored row has
    rank r. Sorted by (rank, position), the rows of one rank form one slice
    in which no identity repeats, so `sums[ids] += rows` adds them all at
    once. Ranks from `cut` on belong to the identities larger than cut; each
    of those adds its remaining rows as a running sum (`np.add.accumulate`).
    `cut` minimizes the steps (ranks below it plus identities above it), so
    neither many identities nor one huge one costs a step per row. Rows are
    cast to float64 a chunk at a time. A step holds the float32 gather, the
    cast rows, the gathered sums and their total, under four float64 chunks
    at once, so the chunk is `budget_rows(4 d)`. The sums become the means
    in place.
    """
    ids, v = dataset.identity, dataset.vectors
    g, chunk = dataset.n_identities, budget_rows(4 * dataset.dim)
    counts = np.bincount(ids, minlength=g).astype(np.int64)
    by_id = np.argsort(ids, kind="stable")  # identity by identity, in stored order
    start = np.cumsum(counts) - counts
    rank = np.empty(dataset.n, dtype=np.int64)
    rank[by_id] = np.arange(dataset.n) - np.repeat(start, counts)
    width = np.bincount(rank)  # rows of rank r: the identities larger than r
    cut = int(np.argmin(np.arange(len(width) + 1) + np.append(width, 0)))
    sums = np.zeros((g, dataset.dim), dtype=np.float64)
    order = np.argsort(rank, kind="stable")
    r0 = 0
    for r1 in np.cumsum(width[:cut]).tolist():
        for p0 in range(r0, r1, chunk):
            rows = order[p0:min(p0 + chunk, r1)]
            sums[ids[rows]] += v[rows].astype(np.float64)
        r0 = r1
    for i in np.flatnonzero(counts > cut).tolist():
        rows = by_id[start[i] + cut:start[i] + counts[i]]
        for p0 in range(0, rows.size, chunk):
            run = v[rows[p0:p0 + chunk]].astype(np.float64)
            run[0] += sums[i]
            sums[i] = np.add.accumulate(run, axis=0, out=run)[-1]
    sums /= counts[:, None]
    return MeanVectors(means=sums, counts=counts)


def save_dataset(path, dataset: EmbeddingSet) -> None:
    """Write an FFEB container; ``load_dataset`` recovers it bit-exactly.

    The file is written beside `path` and moved into place whole, so a failed
    write leaves any earlier file as it was.
    """
    trailer = json.dumps(
        {"identities": list(dataset.labels.identities), "attributes": list(dataset.labels.attributes)},
        ensure_ascii=False,
    ).encode("utf-8")
    with replaced([Path(path)]) as (tmp,), open(tmp, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, dataset.n, dataset.dim,
                             dataset.n_identities, dataset.n_attributes))
        f.write(np.ascontiguousarray(dataset.vectors, dtype="<f4").tobytes())
        f.write(dataset.identity.astype("<u4").tobytes())
        f.write(dataset.attribute.astype("<u2").tobytes())
        f.write(struct.pack("<I", len(trailer)))
        f.write(trailer)


def _read_exact(f, count: int, offset: int, what: str) -> bytes:
    """`count` bytes from f, checked against the bytes left before any is read.

    A forged header can ask for more than memory holds, so the file length,
    not the read, decides whether the request is truncated.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise FormatError(f"truncated {what} at byte {offset}: wanted {count} bytes, got {left}")
    return f.read(count)


def load_dataset(path) -> EmbeddingSet:
    """Read an FFEB container, re-densifying sparse identity indices if present."""
    with open(path, "rb") as f:
        header = _read_exact(f, _HEADER.size, 0, "header")
        magic, version, n, d, g, m = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"bad magic at byte 0: expected {MAGIC!r}, found {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version} at byte 4 (supported: {VERSION})")
        if n < 1 or d < 1 or g < 1 or m < 1:
            raise FormatError(f"degenerate dimensions in header at byte 8: N={n} d={d} G={g} M={m}")
        offset = _HEADER.size
        vec_bytes = _read_exact(f, 4 * n * d, offset, "vector payload")
        offset += 4 * n * d
        id_bytes = _read_exact(f, 4 * n, offset, "identity indices")
        offset += 4 * n
        attr_bytes = _read_exact(f, 2 * n, offset, "attribute indices")
        offset += 2 * n
        (tlen,) = struct.unpack("<I", _read_exact(f, 4, offset, "label-table length"))
        offset += 4
        trailer = _read_exact(f, tlen, offset, "label table")
        offset += tlen
        if f.read(1):
            raise FormatError(f"unexpected trailing bytes after byte {offset}")

    vectors = np.frombuffer(vec_bytes, dtype="<f4").reshape(n, d)
    identity = np.frombuffer(id_bytes, dtype="<u4").astype(np.int64)
    attribute = np.frombuffer(attr_bytes, dtype="<u2").astype(np.int64)
    try:
        table = json.loads(trailer.decode("utf-8"))
        id_names = [str(s) for s in table["identities"]]
        attr_names = [str(s) for s in table["attributes"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"unreadable label table at byte {offset}: {exc}") from exc
    if len(id_names) != g or len(attr_names) != m:
        raise FormatError(f"label table sizes {len(id_names)}/{len(attr_names)} at byte {offset - tlen} disagree with header G={g} M={m}")

    for what, field, idx, size, at0, width in (("identity", "G", identity, g, 4 * n * d, 4),
                                               ("attribute", "M", attribute, m, 4 * n * (d + 1), 2)):
        if idx.max() >= size:
            at = int(np.argmax(idx >= size))
            raise FormatError(f"{what} index {int(idx[at])} at byte "
                              f"{_HEADER.size + at0 + width * at} out of header range {field}={size}")
    used = np.unique(identity)
    if used.size != g:
        # sparse file: remap to a dense range, keeping only the used names
        remap = np.full(g, -1, dtype=np.int64)
        remap[used] = np.arange(used.size)
        identity = remap[identity]
        id_names = [id_names[int(k)] for k in used]

    labels = LabelTable(identities=tuple(id_names), attributes=tuple(attr_names))
    return EmbeddingSet(vectors=vectors, identity=identity, attribute=attribute, labels=labels)


def save_csv(path, dataset: EmbeddingSet) -> None:
    """Write the CSV interchange form: index,identity,attribute,v0,...

    Vector components use 9 significant digits, which round-trips float32.
    The file is replaced whole, as by `save_dataset`.
    """
    with replaced([Path(path)]) as (tmp,), open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "identity", "attribute"] + [f"v{j}" for j in range(dataset.dim)])
        for i in range(dataset.n):
            w.writerow(
                [i, dataset.labels.identities[dataset.identity[i]],
                 dataset.labels.attributes[dataset.attribute[i]]]
                + [f"{float(x):.9g}" for x in dataset.vectors[i]]
            )


def load_csv(path) -> EmbeddingSet:
    """Read the CSV interchange form; names become labels in order of first appearance."""
    id_index: dict[str, int] = {}
    attr_index: dict[str, int] = {}
    rows, ids, attrs = [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or len(header) < 4 or header[:3] != ["index", "identity", "attribute"]:
            raise FormatError(f"bad CSV header in {path}: expected index,identity,attribute,v0,...")
        d = len(header) - 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 3:
                raise FormatError(f"record {lineno}: expected {d + 3} fields, got {len(row)}")
            ids.append(id_index.setdefault(row[1], len(id_index)))
            attrs.append(attr_index.setdefault(row[2], len(attr_index)))
            try:
                rows.append([np.float32(x) for x in row[3:]])
            except ValueError as exc:
                raise FormatError(f"record {lineno}: unparseable vector component ({exc})") from exc
    if not rows:
        raise FormatError(f"no records in {path}")
    labels = LabelTable(identities=tuple(id_index), attributes=tuple(attr_index))
    return EmbeddingSet(
        vectors=np.array(rows, dtype=np.float32),
        identity=np.array(ids, dtype=np.int64),
        attribute=np.array(attrs, dtype=np.int64),
        labels=labels,
    )
