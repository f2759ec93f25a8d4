"""Blocked all-pairs engine: similarities, exact FPR threshold, confusion counts.

Similarity. s_ij is the exact real dot product of the float32 unit rows u_i
and u_j, rounded once to the nearest float32 (ties to even) and clipped to
[-1, 1]. Being correctly rounded, it does not depend on any summation order:
s_ij = s_ji, and the tile, batch or worker that asks for a pair gets the same
value. `_exact_grid` computes it for a block of pairs with a float64 GEMM,
which lies within gamma_d * max |u|^2 of the exact dot product in any order
the BLAS may sum (gamma_d = d*u / (1 - d*u); Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 3.1). Its float32 rounding is the
correct one unless a float32 rounding midpoint lies that close; those rare
entries are summed again by `_round_dots`, a compensated (TwoSum) fold whose
own few doubtful results go to the exact `math.fsum` of `_round_dot`.

Half sweep. Because s_ij = s_ji, every sweep visits only the tiles J >= I of
the upper triangle, and on a diagonal tile only the pairs i < j: each
unordered pair once. An ordered count is twice the unordered one.

Screen and refine. No N x d copy of the unit rows is kept: `UnitRows` holds
the raw float32 vectors and their float64 norms, and each row slab gathers
its float32 unit rows once, bitwise equal to `unit_rows`. The threshold pass
and the confusion sweep screen every tile, the diagonal one too, the same
way (`UnitRows.columns`): a float32 GEMM of the slab's unit rows by the raw
columns, each column j scaled by c_j = fl32(1 / norm_j). The screened value
s~ obeys |s~ - s| <= delta(d), clipped or not, so tiles stay unclipped: a
pass compares them with its edges as they come and clips only the values it
gathers.
For unit rows on both sides delta comes from gamma_d for the float32 GEMM
plus the float32 rounding of s: about 3.06e-5 at d = 512 and 7.7e-6 at
d = 128 (`_screen_delta`). The scaled columns add the rounding of c_j and of
the scaling product, the unit rows' own rounding |u_j - v_j / norm_j|, and
the products that underflow, about 1.8e-7 more (`_scaled_delta`). Where a
norm lies outside [2^-64, 2^64], the raw GEMM could overflow or c_j leave
the normal range; there the columns are gathered as unit rows and the unit
delta applies. A pair whose s~ lies more than delta from a decision boundary
is decided by s~; only pairs inside that band get their exact value, from
`_exact_pairs`, which groups them by tile. A group of more than `tile` pairs
(a band of ties) runs `_exact_grid` on its distinct rows and columns,
gathered as unit rows; the pairs of all other groups are pooled into
row-wise float64 dot products (`_exact_dots`), whose error obeys the same
bound and so rounds to the same values. One refine therefore costs work in
proportion to its pairs, and at most one float64 GEMM per tile however many
pairs tie there. Every bound is rounded outward, so counts are exact for
any tile schedule, worker count and GEMM kernel. Counts are 64-bit integers
and merge by plain addition.

Threshold. The overall-FPR threshold is the k-th largest ordered negative
similarity, which is the ceil(k/2)-th largest unordered one. When k fits
under COLLECT_CAP one sweep keeps a running top set of (s~, pair) entries
behind a floor that rises as slabs cut their buffers (blocked k-selection);
each cut gives exact values to the entries within 2*delta of its k-th value
that lack one and keeps exactly ceil(k/2) entries. The floor starts from a
guess g taken from a uniform sample of SAMPLE_PAIRS pairs (Floyd and Rivest's
sampled selection), so the sweep buffers about the pairs it keeps; a result
below g is not certified and the sweep runs again from -inf. Larger ranks
take an exact two-pass radix select over order-preserving keys of the
float32 values: 65,536 counters per pass and worker, whatever the value
distribution or the number of ties.

Confusion counts. Every solve returns each record's ordered FP count at T,
the FP witness. Fewer than k negative pairs lie above the top-k threshold,
so its final top set holds them all, and a `bincount` of their two records
gives it. After the radix select, one screened pass over the negative pairs
counts them; for the degenerate target, FP is n - size without a sweep. TP
then needs only the pairs within identities, sum c^2 of them against n^2:
`_identity_blocks` visits the rows in identity order through an index
permutation, packs whole identities into blocks of at most IDENTITY_BLOCK
rows (and tile rows), and leaves a larger identity a block of its own,
half-swept slab by slab; `_half_tiles` gathers each tile's rows, so no
sorted copy of the set is built. Both passes are `_count_above`, with the
sweep's own screen and refine. Every pass picks a tile's pairs with one
selector, `_pairs` (i < j, identities that differ or match, compared as
int32), and counts by record: each pair above T adds one to both of its
records.

The radix select and `sweep_histogram` need every value, so they share one
exact count, `_exact_counts`: it computes whole tiles with `_exact_grid` (the
float64 GEMM, rounded as above) instead of the screen, maps each negative
pair's value to a bucket and counts each unordered pair twice. A radix pass
and the histogram differ only in their bucket map.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateDataError, DomainError
from .store import EmbeddingSet, MeanVectors, budget_rows

DEFAULT_TILE = 768
COLLECT_CAP = 1 << 21  # largest rank held in memory; beyond it, radix select
# rows of a block of whole identities in the TP pass: its GEMM screens every
# pair of the block, most of them across identities, so the waste grows with
# it, while below about 100 rows the per-block overhead takes over
IDENTITY_BLOCK = 128
# ordered pairs drawn to guess the top-k solve's starting floor (`_sample_guess`)
SAMPLE_PAIRS = 8192

# column order of every count quadruple
TP, FP, TN, FN = 0, 1, 2, 3


def _unit_chunks(vectors: np.ndarray):
    """Yields (i0, i1, v, norm): rows [i0, i1) of `vectors` scaled to unit norm in float64.

    v is one buffer of `budget_rows(d)` rows that the next chunk overwrites,
    so the float64 scratch is that buffer and the norm's temporary of its
    size, even while a caller holds v. `norm` holds the rows' float64 norms.
    Each row is normalized on its own, so no value depends on the chunk size.
    A row whose norm is zero or not finite has no direction: DomainError.
    """
    chunk = budget_rows(vectors.shape[1])
    buf = np.empty((min(chunk, len(vectors)), vectors.shape[1]), dtype=np.float64)
    for i0, i1 in _row_blocks(len(vectors), chunk):
        v64 = buf[:i1 - i0]
        v64[...] = vectors[i0:i1]
        norm = np.linalg.norm(v64, axis=1)
        dead = np.flatnonzero(~np.isfinite(norm) | (norm == 0.0))
        if dead.size:
            raise DomainError(f"row {i0 + int(dead[0])} has a zero or non-finite norm; no direction")
        v64 /= norm[:, None]
        yield i0, i1, v64, norm


def unit_rows(dataset: EmbeddingSet) -> np.ndarray:
    """Float32 unit-norm rows; the raw vectors are normalized in float64 first."""
    out = np.empty((dataset.n, dataset.dim), dtype=np.float32)
    for i0, i1, v64, _ in _unit_chunks(dataset.vectors):
        out[i0:i1] = v64
    return out


class UnitRows:
    """The float32 unit rows of raw vectors, made when indexed; no N x d copy is kept.

    Built once per evaluation, it holds the raw float32 vectors and O(N)
    per-row values: the float64 norms of `_unit_chunks`, `scale`, the
    inverse norms c_j = fl32(1 / norm_j), and `delta`, the screen's error
    bound. `rows[a:b]` and `rows[idx]` return float32 unit rows bitwise equal
    to `unit_rows`: one `np.divide` divides in float64 and rounds each result
    once, with only the ufunc's small buffers as scratch. `columns` screens
    against the raw rows scaled by c. Where a norm lies outside [2^-64, 2^64]
    (the guard) `scale` is None and `columns` gathers unit rows; so it is for
    rows passed with `normalized=True`, unit rows already, yet returned as
    copies: numpy would send a GEMM of a buffer by itself to SYRK instead.
    """

    def __init__(self, vectors: np.ndarray, normalized: bool = False):
        self.raw, self.shape = vectors, vectors.shape
        self.norm = self.scale = None
        if normalized:
            self.delta = _screen_delta(vectors)
            return
        self.norm = np.empty(len(vectors))
        m32 = 0.0
        for i0, i1, v64, norm in _unit_chunks(vectors):
            self.norm[i0:i1] = norm
            u = v64.astype(np.float32)
            m32 = max(m32, float(np.einsum("ij,ij->i", u, u).max()))
        d = vectors.shape[1]
        if 2.0**-64 <= self.norm.min() and self.norm.max() <= 2.0**64:
            self.scale = (1.0 / self.norm).astype(np.float32)
            self.delta = _scaled_delta(d, m32, float(self.scale.max()))
        else:
            self.delta = _unit_delta(d, m32)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        if self.norm is None:
            return self.raw[key].copy()
        v = self.raw[key]
        out = np.empty(v.shape, np.float32) if np.may_share_memory(v, self.raw) else v
        return np.divide(v, self.norm[key, None], out=out, casting="same_kind")

    def columns(self, slab: np.ndarray, key) -> np.ndarray:
        """The float32 screen of `slab` (unit rows) against the rows `key`, unclipped."""
        if self.scale is None:
            return slab @ self[key].T
        s = slab @ self.raw[key].T
        s *= self.scale[key]
        return s


def _rows_of(u) -> UnitRows:
    """`u` as a UnitRows; a plain array is taken as float32 unit rows already."""
    return u if isinstance(u, UnitRows) else UnitRows(u, normalized=True)


def _near_midpoint(v: np.ndarray, e) -> np.ndarray:
    """Where a float32 rounding midpoint may lie within e (scalar or per entry) of v.

    A float64 drops 29 significand bits on its way to a normal float32, and
    they read 2^28 exactly on a midpoint, so |low - 2^28| is the distance
    from v to the nearest midpoint in ulps of v. From 2^27 ulps on, a
    midpoint of the binade below (half as wide) may lie closer, so such an e
    flags the value whatever its bits; so does any e > 0 below 2^-126, where
    float32 turns subnormal.
    """
    bits = v.view(np.int64)
    exponent = bits >> 52 & 0x7FF
    table = np.ndim(e) == 0  # one e for all values: convert it once per exponent
    at = np.arange(2048) if table else exponent
    ulps = np.ldexp(e, np.minimum(1075 - at, 200))  # e in float64 ulps at exponent `at`
    ulps = np.where((at < 1023 - 126) & (e > 0), np.inf, ulps)
    lim = np.where(ulps < 2.0**27, np.floor(ulps), 2.0**62).astype(np.int64)
    return np.abs((bits & (1 << 29) - 1) - (1 << 28)) <= (lim[exponent] if table else lim)


def _round_dot(x: np.ndarray, y: np.ndarray) -> np.float32:
    """The float32 nearest to the exact dot product of two float32 rows (ties to even)."""
    p = x.astype(np.float64) * y  # a product of two float32 values is exact in float64
    f = math.fsum(p)  # the exact sum, rounded once to float64
    s = np.float32(f)
    # rounding f again errs only when f lands on a float32 midpoint that the
    # exact sum is not on; the sign of (sum - f), exact from fsum, settles it
    if float(s) != f:
        other = np.nextafter(s, np.float32(math.inf if f > float(s) else -math.inf))
        if (float(s) + float(other)) / 2 == f:
            rest = math.fsum([*p, -f])
            if rest != 0:
                s = max(s, other) if rest > 0 else min(s, other)
    return s


def _round_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`_round_dot` of the row pairs (x[p], y[p]), vectorized for all but a rare few.

    The exact products are summed by a pairwise fold whose rounding errors,
    exact by TwoSum, are added back; the result lies within about
    d * log2(d) * 2^-106 * sum |p| of the exact sum plus its own rounding.
    Only values that this still leaves next to a float32 midpoint, such as
    sums that cancel to zero, go through `_round_dot`.
    """
    p = x.astype(np.float64) * y
    d = p.shape[1]
    bound = np.abs(p).sum(axis=1) * (d * (math.log2(d) + 2) * 2.0**-104)
    err = np.zeros(len(p))
    w = d
    while w > 1:
        h = w // 2
        a, b = p[:, :h], p[:, w - h:w]
        s = a + b
        z = s - a
        err += ((a - (s - z)) + (b - z)).sum(axis=1)  # a + b - s, exactly, summed
        p[:, :h] = s
        w -= h
    v = p[:, 0] + err
    out = v.astype(np.float32)
    for q in np.flatnonzero(_near_midpoint(v, bound + np.abs(v) * 2.0**-52)):
        out[q] = _round_dot(x[q], y[q])
    return out


def _rounded(s64: np.ndarray, e: float, u32: np.ndarray, i: np.ndarray,
             j: np.ndarray) -> np.ndarray:
    """Clipped similarities of the pairs (i, j) from float64 values s64 within e of exact.

    The float32 rounding of s64 is the correct one unless a float32 rounding
    midpoint lies within e of it; those entries go through `_round_dots`.
    """
    s = s64.astype(np.float32)
    unsure = _near_midpoint(s64, e)
    if unsure.any():
        i, j = (a[unsure] for a in np.broadcast_arrays(i, j))
        fixed = np.empty(len(i), dtype=np.float32)
        for p0 in range(0, len(i), 1024):  # bounded gathers
            fixed[p0:p0 + 1024] = _round_dots(u32[i[p0:p0 + 1024]], u32[j[p0:p0 + 1024]])
        s[unsure] = fixed
    return np.clip(s, -1.0, 1.0, out=s)


def _float64_error(a: np.ndarray, b: np.ndarray) -> float:
    """e = 2 * gamma_d * m: a float64 dot product of a row of `a` and a row of `b`,
    summed in any order, lies within e of the exact one; m is the largest
    squared norm of those rows, at least 1 (twice: covers the rounding of m)."""
    d = a.shape[1]
    g = d * 2.0**-53 / (1 - d * 2.0**-53)
    m = max(np.einsum("ij,ij->i", a, a).max(initial=0.0),
            np.einsum("ij,ij->i", b, b).max(initial=0.0), 1.0)
    return 2 * g * float(m)


def _exact_grid(u32: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                pick: tuple | None = None) -> np.ndarray:
    """Similarities of the pairs in rows x cols, or of the grid entries `pick` only.

    One float64 GEMM, within `_float64_error` of the exact dot products;
    `_rounded` rounds it correctly.
    """
    a, b = u32[rows].astype(np.float64), u32[cols].astype(np.float64)
    s64 = a @ b.T
    e = _float64_error(a, b)
    if pick is None:
        return _rounded(s64, e, u32, rows[:, None], cols[None, :])
    r, c = pick
    return _rounded(s64[r, c], e, u32, rows[r], cols[c])


def _exact_dots(u32: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Similarities of the pairs (i[p], j[p]), one float64 dot product per pair.

    The same bound as `_exact_grid`'s holds for a row-wise sum in any order,
    so `_rounded` gives bit for bit the grid's values.
    """
    a, b = u32[i].astype(np.float64), u32[j].astype(np.float64)
    return _rounded(np.einsum("ij,ij->i", a, b), _float64_error(a, b), u32, i, j)


def _exact_pairs(u32: np.ndarray, i: np.ndarray, j: np.ndarray,
                 tile: int = DEFAULT_TILE) -> np.ndarray:
    """Similarities of the pairs (i[p], j[p]), in proportion to their number.

    Pairs are grouped by the (i // tile, j // tile) tile they fall in. A
    group of more than `tile` pairs (a band of ties) computes the GEMM of its
    distinct rows and columns with `_exact_grid`, so it never costs more than
    a whole tile. The pairs of all other groups are pooled into row-wise
    dot products (`_exact_dots`), `budget_rows(d)` pairs at a time.
    """
    out = np.empty(len(i), dtype=np.float32)
    key = i // tile * -(-len(u32) // tile) + j // tile
    order = np.argsort(key, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(key[order])) + 1, len(i))
    size = np.diff(ends, prepend=0)
    for g in np.flatnonzero(size > tile):
        group = order[ends[g] - size[g]:ends[g]]
        r, ri = np.unique(i[group], return_inverse=True)
        c, ci = np.unique(j[group], return_inverse=True)
        out[group] = _exact_grid(u32, r, c, (ri, ci))
    rest = order[np.repeat(size <= tile, size)]
    chunk = budget_rows(u32.shape[1])
    for p0 in range(0, rest.size, chunk):
        p = rest[p0:p0 + chunk]
        out[p] = _exact_dots(u32, i[p], j[p])
    return out


def _screen_delta(u32: np.ndarray) -> float:
    """delta(d): a bound on |s~ - s| for every pair, s~ the clipped float32 GEMM value.

    gamma_d * sum_k |u_ik u_jk| bounds the float32 GEMM's error, and the sum is
    at most the largest squared row norm m (1 for unit rows, bounded here from
    a float32 sum of squares). Terms: the float32 GEMM, the float32 rounding
    of s, and float32 products that underflow.
    """
    return _unit_delta(u32.shape[1], float(np.einsum("ij,ij->i", u32, u32).max()))


def _unit_delta(d: int, m32: float) -> float:
    """`_screen_delta` of unit rows whose largest float32 sum of squares is m32."""
    g32 = d * 2.0**-24 / (1 - d * 2.0**-24)
    m = max(1.0, m32 / (1 - g32))
    return float(np.nextafter(m * (g32 + 2.0**-24) + d * 2.0**-149, np.inf))


def _scaled_delta(d: int, m32: float, c_max: float) -> float:
    """A bound on |s~ - s| when the screen scales raw columns: s~ = clip(fl32(g * c_j)).

    Here g is the float32 GEMM of the unit row u_i and the raw row v_j,
    n_j the float64 norm of v_j, c_j = fl32(1 / n_j) and u_j = fl32(v_j / n_j)
    its unit row; m bounds every |u|^2 as in `_screen_delta`, a = 2^-24 (1 +
    2^-29) the relative error of rounding a float64 result to float32, and
    S = sum_k |u_ik v_jk| / n_j. Then (Higham, section 3.1):
    - the GEMM: |g - u_i . v_j| / n_j <= gamma_d S + d 2^-149 / n_j;
    - c_j and the scaling product: |fl32(g c_j) - g / n_j| <= a |g| / n_j +
      2^-24 |g c_j| + 2^-149, with |g| / n_j <= (1 + gamma_d) S + d 2^-149 / n_j;
    - the unit-row rounding: |u_i . v_j / n_j - u_i . u_j| <= a S + 2^-150
      sqrt(d m), since each |u_jk - v_jk / n_j| <= a |v_jk| / n_j + 2^-150 and
      the same computed n_j divides on both sides, so its error cancels;
    - the float32 rounding of s: 2^-24 m + 2^-150.
    With S <= (m + sqrt(d m) 2^-150) / (1 - a) (as |v_j| / n_j <= (|u_j| +
    sqrt(d) 2^-150) / (1 - a)) and 1 / n_j <= 2 max c_j, the products that
    underflow add at most d 2^-147 max c_j. The sum is rounded outward.
    """
    g32 = d * 2.0**-24 / (1 - d * 2.0**-24)
    a = 2.0**-24 * (1 + 2.0**-29)
    m = max(1.0, m32 / (1 - g32))
    s = (m + math.sqrt(d * m) * 2.0**-150) / (1 - a)
    e = (s * (g32 + a + (1 + g32) * (a + (1 + a) * 2.0**-24)) + m * 2.0**-24
         + d * 2.0**-147 * c_max + 2.0**-150 * (math.sqrt(d * m) + 3))
    return float(np.nextafter(e * (1 + 2.0**-40), np.inf))


def _f32_out(x: float, up: bool) -> np.float32:
    """The float32 nearest to x on its outer side: >= x when up, <= x otherwise."""
    toward = math.inf if up else -math.inf
    x = float(np.nextafter(x, toward))  # absorbs the float64 rounding of x itself
    f = np.float32(x)
    if (float(f) < x) if up else (float(f) > x):  # compare exactly, as Python floats
        f = np.nextafter(f, np.float32(toward))
    return f


def cosine_similarity(u, v) -> float:
    """Cosine of two raw float32 vectors through the engine's kernel (float32 value);
    DomainError for a zero or non-finite vector, which has no direction."""
    with np.errstate(over="ignore"):  # a float64 beyond float32's range becomes inf
        rows = UnitRows(np.array([u, v], dtype=np.float32))
    return float(_exact_pairs(rows, np.array([0]), np.array([1]))[0])


def pair_label(dataset: EmbeddingSet, i: int, j: int) -> str:
    """'positive' when both records share an identity, 'negative' otherwise."""
    if i == j:
        raise DomainError(f"pair ({i}, {j}) is not an ordered pair of distinct records")
    return "positive" if dataset.identity[i] == dataset.identity[j] else "negative"


def ordered_pair_totals(dataset: EmbeddingSet) -> tuple[int, int]:
    """(positive, negative) ordered-pair counts, exactly, from identity sizes."""
    n = dataset.n
    sizes = np.bincount(dataset.identity, minlength=dataset.n_identities).astype(object)
    pos = int(sum(c * (c - 1) for c in sizes))
    return pos, n * (n - 1) - pos


def _row_blocks(n: int, tile: int):
    for i0 in range(0, n, tile):
        yield i0, min(i0 + tile, n)


def _map_blocks(fn, blocks, workers: int) -> list:
    blocks = list(blocks)
    if workers <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


def _half_tiles(u32, i0: int, i1: int, tile: int, exact: bool = False,
                idx: np.ndarray | None = None):
    """Similarity tiles of row slab [i0, i1) against the column tiles j0 >= i0.

    `u32` is a `UnitRows` or an array of float32 unit rows. Rows and columns
    are positions in `idx`, the records u32[idx], or without it the records
    themselves; a tile gathers its own rows, never the whole order. Yields
    (j0, s): s[r, c] belongs to positions i0 + r and j0 + c. It is the
    float32 GEMM screen, unclipped, or with `exact` the `_exact_grid` values.
    Slabs and tiles share one grid, so the first tile is the diagonal one
    (j0 == i0), whose pairs i < j are its entries c > r. The slab's unit rows
    are gathered once, and every tile, the diagonal one too, is their
    `UnitRows.columns` screen. delta bounds the screen's error before
    clipping too, so a caller compares the tile as it comes and clips only
    the values it gathers (`_clipped`): s~ > f exactly when clip(s~) > f for
    an edge f in [-1, 1), and s~ >= f exactly when clip(s~) >= f for f in
    (-1, 1]. Below those ranges every entry passes the clipped test.
    """
    rows = _rows_of(u32)
    pos = np.arange(len(rows)) if idx is None else idx
    at = (lambda a, b: slice(a, b)) if idx is None else (lambda a, b: idx[a:b])
    slab = None if exact else rows[at(i0, i1)]
    for j0 in range(i0, len(pos), tile):
        j1 = min(j0 + tile, len(pos))
        if exact:
            yield j0, _exact_grid(rows, pos[i0:i1], pos[j0:j1])
            continue
        yield j0, rows.columns(slab, at(j0, j1))


def _clipped(s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The screened values of tile s at the flat indices f, clipped to [-1, 1]."""
    v = s.ravel()[f]
    return np.clip(v, -1.0, 1.0, out=v)


def _narrow(ids: np.ndarray) -> np.ndarray:
    """The identities as int32 when they fit, made once per pass for `_pairs`."""
    return ids.astype(np.int32) if ids.max(initial=0) < 1 << 31 else ids


def _pairs(s: np.ndarray, ids: np.ndarray, i0: int, j0: int, where=None,
           same: bool = False) -> np.ndarray:
    """Flat indices into tile s of its pairs i < j among `where`, if given, whose
    identities differ, or match with `same`; `ids` holds each position's identity.

    When `where` keeps under 1/16 of the tile, only the identities of its
    entries are compared, so the tile costs one count plus work in
    proportion to those entries. Otherwise whole-tile masks are cheaper than
    index arrays: the identity compare, `where` and, on the diagonal tile
    (i0 == j0), the entries c > r.
    """
    h, w = s.shape
    if where is not None and np.count_nonzero(where) * 16 < where.size:
        f = np.flatnonzero(where)
        r = f // w
        keep = ids[i0 + r] == ids[j0 + f - r * w]
        if not same:
            np.logical_not(keep, out=keep)
        if i0 == j0:
            keep &= f > r * (w + 1)  # f = r * w + c with c > r
        return f[keep]
    a, b = ids[i0:i0 + h, None], ids[None, j0:j0 + w]
    mask = a == b if same else a != b
    if where is not None:
        mask &= where
    if i0 == j0:
        mask &= np.arange(w) > np.arange(h)[:, None]
    return np.flatnonzero(mask)


def _exact_counts(u32: np.ndarray, ids: np.ndarray, bucket, size: int,
                  tile: int, workers: int, where=None) -> np.ndarray:
    """(size,) int64 counts of the ordered negative pairs by the bucket of their value.

    Every tile is computed exactly. `bucket` maps a float32 array of values
    to the bucket of each one it counts, in [0, size); it may drop values.
    `where`, given a tile, masks the entries to consider at all.
    """
    ids = _narrow(ids)

    def block(i0, i1):
        counts = np.zeros(size, dtype=np.int64)
        for j0, s in _half_tiles(u32, i0, i1, tile, exact=True):
            vals = s.ravel()[_pairs(s, ids, i0, j0, None if where is None else where(s))]
            counts += np.bincount(bucket(vals), minlength=size)
        return counts
    return 2 * sum(_map_blocks(block, _row_blocks(len(ids), tile), workers))


def sweep_histogram(dataset: EmbeddingSet, bins: int,
                    tile: int = DEFAULT_TILE, workers: int = 1) -> np.ndarray:
    """(bins,) int64 counts of every ordered negative-pair similarity over [-1, 1].

    The interior edges are those of `np.linspace(-1, 1, bins + 1)`; bin b
    holds edges[b] <= s < edges[b + 1], and the last bin also holds 1.
    """
    if bins < 2:
        raise DomainError(f"histogram needs at least 2 bins, got {bins}")
    edges = np.linspace(-1.0, 1.0, bins + 1)[1:-1]
    return _exact_counts(UnitRows(dataset.vectors), dataset.identity,
                         lambda v: np.searchsorted(edges, v.astype(np.float64), side="right"),
                         bins, tile, workers)


def _keep_top(u32: np.ndarray, vals: np.ndarray, pairs: np.ndarray, known: np.ndarray,
              k: int, delta: float, tile: int):
    """Cut a buffer of at least k entries to the k holding its exact top-k.

    Each entry of `vals` lies within delta of the exact similarity of its pair
    (pair index i*n + j), and equals it where `known` is set. With v_k the
    buffer's k-th largest value, an entry above v_k + 2*delta is surely in the
    exact top-k and one below v_k - 2*delta surely is not; the entries between
    get their exact values, unless they have them already. Returns the k kept
    entries with their flags, the exact k-th largest similarity t, and how
    many buffered pairs exceed t. Writes exact values into `vals` and `known`.
    """
    n = len(u32)
    kth = float(np.partition(vals, vals.size - k)[vals.size - k])
    sure = vals > _f32_out(kth + 2 * delta, up=True)
    band = np.flatnonzero(~sure & (vals >= _f32_out(kth - 2 * delta, up=False)))
    todo = band[~known[band]]
    p = pairs[todo].astype(np.int64)
    vals[todo] = _exact_pairs(u32, p // n, p % n, tile)
    known[todo] = True
    need = k - int(np.count_nonzero(sure))
    chosen = band[np.argpartition(vals[band], band.size - need)[band.size - need:]]
    t = vals[chosen].min()
    above = k - need + int(np.count_nonzero(vals[band] > t))
    keep = np.concatenate([np.flatnonzero(sure), chosen])
    return vals[keep], pairs[keep], known[keep], t, above


def _drain(parts: list) -> list:
    """Concatenate the parts column by column and empty the list, freeing the pieces."""
    whole = [np.concatenate(col) for col in zip(*parts)]
    parts.clear()
    return whole


def _sample_guess(u32: UnitRows, ids: np.ndarray, k: int) -> float:
    """g, a value the k-th largest unordered negative similarity t most likely
    reaches, from a sample of pairs; -inf when the sample cannot tell.

    SAMPLE_PAIRS ordered pairs are drawn uniformly with a fixed seed, and the
    m negatives among them are uniform draws from the P unordered negative
    pairs (Floyd and Rivest, "Expected time bounds for selection", CACM 18(3),
    1975). About lambda = m k / P of them lie in the top k, and more than
    r = ceil(lambda + 6 sqrt(lambda) + 6) only with a chance that a Chernoff
    bound keeps negligible whatever the data. g is the r-th largest sample
    value, estimated from the raw rows times their inverse norms c (unit
    rows where `scale` is None) and clipped, minus delta. Nothing rests on
    g: `_top_negatives` checks t >= g.
    """
    n = len(ids)
    sizes = np.bincount(ids)
    total = (n * (n - 1) - int(sizes @ (sizes - 1))) // 2
    rng = np.random.default_rng(0)
    i = np.sort(rng.integers(0, n, SAMPLE_PAIRS))  # sorted, so one gather streams
    j = (i + rng.integers(1, n, SAMPLE_PAIRS)) % n
    neg = ids[i] != ids[j]
    i, j = i[neg], j[neg]
    lam = i.size * k / total
    r = math.ceil(lam + 6 * math.sqrt(lam) + 6)
    if r > i.size:
        return -math.inf
    est = np.empty(i.size, dtype=np.float32)
    chunk = budget_rows(2 * u32.shape[1])
    for p0 in range(0, i.size, chunk):
        a, b = i[p0:p0 + chunk], j[p0:p0 + chunk]
        if u32.scale is None:
            est[p0:p0 + chunk] = np.einsum("ij,ij->i", u32[a], u32[b])
            continue
        # |v_i . v_j| <= norm_i * norm_j <= 2^128 may round to inf, which only
        # raises g; the sum of |products| bounds both signs, so no nan
        with np.errstate(over="ignore"):
            dots = np.einsum("ij,ij->i", u32.raw[a], u32.raw[b])
        est[p0:p0 + chunk] = dots * u32.scale[a] * u32.scale[b]
    v = np.partition(est, est.size - r)[est.size - r]
    return min(max(float(v), -1.0), 1.0) - u32.delta


def _top_sweep(u32: UnitRows, ids: np.ndarray, k: int, tile: int, workers: int,
               floor: np.float32) -> tuple[np.float32, int, np.ndarray] | None:
    """`_top_negatives` of the negative pairs whose screened value reaches `floor`;
    None when fewer than k of them do."""
    n = len(ids)
    index_type = np.uint32 if n * n < 1 << 32 else np.int64
    delta = u32.delta
    lock = threading.Lock()
    top = (np.empty(0, dtype=np.float32), np.empty(0, dtype=index_type), np.empty(0, dtype=bool))
    kth, above = None, 0

    def candidates(i0, j0, s):
        """(s~, pair, flag) of the tile's negative pairs i < j at or above the floor."""
        f = _pairs(s, ids, i0, j0, s >= floor if floor > -1 else None).astype(index_type)
        w = s.shape[1]
        p = f // w  # pair (i0 + r) * n + j0 + c of the flat tile index f = r * w + c
        p *= n - w
        p += f
        p += i0 * n + j0
        return _clipped(s, f), p, np.zeros(f.size, dtype=bool)

    def block(i0, i1):
        nonlocal top, kth, above, floor
        parts, held = [], 0
        for j0, s in _half_tiles(u32, i0, i1, tile):
            parts.append(candidates(i0, j0, s))
            held += parts[-1][0].size
            if held >= 2 * k:
                *buf, cut, _ = _keep_top(u32, *_drain(parts), k, delta, tile)
                parts, held = [buf], k
                with lock:
                    floor = max(floor, _f32_out(float(cut) - delta, up=False))
        buf = _drain(parts)
        if held >= k:
            *buf, _, _ = _keep_top(u32, *buf, k, delta, tile)
        with lock:
            top = tuple(np.concatenate([a, b]) for a, b in zip(top, buf))
            if top[0].size >= k:
                *top, kth, above = _keep_top(u32, *top, k, delta, tile)
                floor = max(floor, _f32_out(float(kth) - delta, up=False))

    first, *rest = _row_blocks(n, tile)
    block(*first)
    _map_blocks(block, rest, workers)
    if kth is None:
        return None
    vals, pairs, known = top
    p = pairs[~known | (vals > kth)].astype(np.int64)
    return kth, above, np.bincount(p // n, minlength=n) + np.bincount(p % n, minlength=n)


def _top_negatives(u32, ids: np.ndarray, k: int,
                   tile: int, workers: int) -> tuple[np.float32, int, np.ndarray]:
    """(k-th largest unordered negative similarity t, count above it, FP per record).

    One sweep (`_top_sweep`) keeps a running top set. Each row slab buffers
    (s~, pair) entries at or above a floor and cuts the buffer with
    `_keep_top` whenever it holds 2k; the cut's exact k-th value t then
    raises the floor shared by all slabs to t - delta, below which no
    screened value can reach the global top-k. A finished slab merges into
    the global top-k at once, so memory stays O(k) per worker, whatever the
    ties. Entries carry a flag once they hold their exact value, so no pair
    is refined twice within a buffer. The first slab runs alone, as with no
    floor yet its tiles may buffer all their negatives; workers doing that at
    once would make the peak memory depend on thread timing. Later slabs
    start from its floor.

    The floor starts at g - delta for the guess g of `_sample_guess`, and the
    sweep's t is accepted when t >= g: a pair that floor dropped has s~ <
    g - delta, so s < g <= t, and it is not in the top-k. Otherwise (t < g,
    or fewer than k pairs kept) the sweep runs again from -inf, as it does
    when the sample gives no guess. So the sample only decides the cost.

    The final cut holds every negative pair above t, as fewer than k lie
    there: its entries with an exact value above t, and those left without
    one, which are all sure (exact value above t). Counting both ends of
    those pairs gives each record's ordered FP at t, in one pass.
    """
    u32, ids = _rows_of(u32), _narrow(ids)
    g = _sample_guess(u32, ids, k)
    if g > -math.inf:
        found = _top_sweep(u32, ids, k, tile, workers, _f32_out(g - u32.delta, up=False))
        if found is not None and float(found[0]) >= g:
            return found
    found = _top_sweep(u32, ids, k, tile, workers, np.float32(-np.inf))
    if found is None:
        raise AssertionError(f"top-k pass found fewer than {k} negative pairs")
    return found


def _radix_key(s32: np.ndarray) -> np.ndarray:
    """Order-preserving uint32 keys of float32 values; -0.0 gets the key of +0.0."""
    bits = (s32 + np.float32(0.0)).view(np.uint32)
    return np.where(bits >> 31, ~bits, bits | 0x80000000)


def _key_value(key: int) -> np.float32:
    bits = key & 0x7FFFFFFF if key >> 31 else ~key & 0xFFFFFFFF
    return np.uint32(bits).view(np.float32)


def _rank_bucket(counts: np.ndarray, k: int) -> tuple[int, int]:
    """(b, above): bucket b holds the k-th largest value, `above` values lie higher."""
    from_top = np.cumsum(counts[::-1])
    r = int(np.searchsorted(from_top, k))  # first r with from_top[r] >= k
    b = len(counts) - 1 - r
    return b, int(from_top[r] - counts[b])


def _radix_select(u32: np.ndarray, ids: np.ndarray, k: int,
                  tile: int, workers: int) -> tuple[float, int]:
    """(k-th largest ordered negative similarity, count above it) by radix select.

    Pass 1 counts the negatives by the high 16 bits of their order-preserving
    key, pass 2 counts the low 16 bits inside the bucket holding rank k; it
    first keeps only the values between that bucket's two float32 bounds, so
    keys are built for those alone. Both passes hold 65,536 counters per
    worker, whatever the input. Each unordered pair counts twice.
    """
    n16 = 1 << 16
    high, above = _rank_bucket(
        _exact_counts(u32, ids, lambda v: _radix_key(v) >> 16, n16, tile, workers), k)
    # the bucket's values form the closed float range [lo, hi]; the range can
    # also admit a zero of the other sign, which the key test drops
    lo, hi = _key_value(high << 16), _key_value(high << 16 | 0xFFFF)

    def low_digits(v):
        key = _radix_key(v)
        return key[key >> 16 == high] & 0xFFFF

    low, within = _rank_bucket(
        _exact_counts(u32, ids, low_digits, n16, tile, workers,
                      where=lambda s: (s >= lo) & (s <= hi)), k - above)
    return float(_key_value(high << 16 | low)), above + within


@dataclass(frozen=True)
class ThresholdResult:
    """Exact solution of the overall-FPR threshold."""

    threshold: float
    target_fpr: float
    allowed_fp: int
    realized_fp: int
    total_negatives: int
    degenerate: bool = False
    # ordered FP per record at the threshold, which every solve returns, so
    # `confusion_sweep` counts TP alone. Never part of a report.
    record_fp: np.ndarray | None = field(default=None, compare=False, repr=False)


def solve_threshold(dataset: EmbeddingSet, target_fpr: float,
                    tile: int = DEFAULT_TILE, workers: int = 1, *,
                    rows: UnitRows | None = None) -> ThresholdResult:
    """Find the similarity cutoff whose strict-greater FP count meets the target.

    The threshold T is the k-th largest ordered negative similarity,
    k = allowed + 1 with allowed = floor(target_fpr * total_negatives)
    evaluated in exact arithmetic. When k <= COLLECT_CAP one screened sweep
    over the unordered pairs keeps the exact top-ceil(k/2) (O(k) memory per
    worker) and T is its minimum; otherwise a two-pass radix select over the
    float32 bit patterns finds T in fixed memory. Every result carries each
    record's ordered FP count at T (`record_fp`): the top-k pass's own, one
    screened pass over the negatives after the radix select, and n - size
    without a sweep when the target admits every negative (T = -inf). `rows`
    passes the dataset's `UnitRows` when the caller has them. A zero
    threshold is always +0.0.
    """
    if not 0.0 < target_fpr <= 1.0:
        raise DomainError(f"target FPR must lie in (0, 1], got {target_fpr}")
    _, total_neg = ordered_pair_totals(dataset)
    if total_neg == 0:
        raise DegenerateDataError("dataset has no negative ordered pairs")
    allowed = int(Fraction(target_fpr) * total_neg)
    ids = dataset.identity
    degenerate = allowed >= total_neg
    if degenerate:
        threshold, realized = -math.inf, total_neg
        fp = dataset.n - np.bincount(ids, minlength=dataset.n_identities)[ids]
    else:
        u32 = UnitRows(dataset.vectors) if rows is None else rows
        k = allowed + 1
        if k <= COLLECT_CAP:
            # each unordered value stands twice in the ordered ranking
            t, above, fp = _top_negatives(u32, ids, (k + 1) // 2, tile, workers)
            threshold, realized = float(t), 2 * above
        else:
            threshold, realized = _radix_select(u32, ids, k, tile, workers)
            fp = _count_above(u32, ids, threshold, tile, workers, same=False)
    if int(fp.sum()) != realized:
        raise AssertionError(f"FP witness counts {int(fp.sum())} ordered pairs, not {realized}")
    return ThresholdResult(threshold=threshold + 0.0, target_fpr=target_fpr,
                           allowed_fp=allowed, realized_fp=realized,
                           total_negatives=total_neg, degenerate=degenerate, record_fp=fp)


@dataclass
class PairStatsAccumulator:
    """Integer confusion counts of the ordered pairs, binned by the pair's first element.

    Column order is TP, FP, TN, FN.
    """

    identity_counts: np.ndarray   # (G, 4) int64
    attribute_counts: np.ndarray  # (M, 4) int64

    @staticmethod
    def zeros(n_identities: int, n_attributes: int) -> "PairStatsAccumulator":
        return PairStatsAccumulator(
            identity_counts=np.zeros((n_identities, 4), dtype=np.int64),
            attribute_counts=np.zeros((n_attributes, 4), dtype=np.int64),
        )

    @property
    def overall(self) -> np.ndarray:
        return self.identity_counts.sum(axis=0)


def _identity_blocks(ids: np.ndarray, size: int) -> tuple[np.ndarray, list]:
    """(order, blocks): the records of identities with two or more, by identity.

    `order` lists them identity by identity; each block [b0, b1) of positions
    in it holds whole identities, as many as fit in `size` rows, or one
    identity alone that is larger.
    """
    sizes = np.bincount(ids)
    kept = np.flatnonzero(sizes[ids] > 1)
    order = kept[np.argsort(ids[kept], kind="stable")]
    blocks, b0, cut = [], 0, 0
    for end in np.cumsum(sizes[sizes > 1]).tolist():
        if end - b0 > size and cut > b0:
            blocks.append((b0, cut))
            b0 = cut
        cut = end
    if cut > b0:
        blocks.append((b0, cut))
    return order, blocks


def _count_above(u32, ids: np.ndarray, threshold: float, tile: int,
                 workers: int, same: bool) -> np.ndarray:
    """(n,) int64: per record, its pairs with similarity above `threshold` whose
    identities match (`same`, TP) or differ (FP).

    Each block is swept as one upper triangle, slab by slab: with `same`
    the blocks of whole identities of `_identity_blocks`, otherwise one
    block of every record in file order. `_pairs` picks the pairs of the
    kind counted among those the screen keeps, before any refine, so no
    other pair is refined. Each tile adds one to both records of each of its
    pairs above the threshold (`np.add.at`: work in proportion to those
    pairs, where a bincount over n would cost O(n) per small identity block).
    """
    n = len(ids)
    if same:
        order, blocks = _identity_blocks(ids, min(tile, IDENTITY_BLOCK))
    else:
        order, blocks = np.arange(n), [(0, n)]
    t = np.float64(threshold)  # compared exactly, never rounded to float32
    u32 = _rows_of(u32)
    delta = u32.delta
    tb = min(max(float(threshold), -2.0), 2.0)  # same decisions: every s lies in [-1, 1]
    lo, hi = _f32_out(tb - delta, up=False), _f32_out(tb + delta, up=True)
    counts = np.zeros(n, dtype=np.int64)
    lock = threading.Lock()
    narrow = _narrow(ids)

    def slab(b0, b1, i0, i1):
        idx = order[b0:b1]
        kinds = narrow[idx]
        for j0, s in _half_tiles(u32, i0, i1, tile, idx=idx if same else None):
            # every pair that may lie above T
            f = _pairs(s, kinds, i0, j0, s > lo if lo >= -1 else None, same)
            i, j = idx[i0 + f // s.shape[1]], idx[j0 + f % s.shape[1]]
            hit = _clipped(s, f) > hi
            band = np.flatnonzero(~hit)  # lo < s~ <= hi: refine
            if band.size:
                hit[band] = _exact_pairs(u32, i[band], j[band], tile) > t
            with lock:
                np.add.at(counts, i[hit], 1)
                np.add.at(counts, j[hit], 1)

    _map_blocks(slab, [(b0, b1, i0, i1) for b0, b1 in blocks
                       for i0, i1 in _row_blocks(b1 - b0, tile)], workers)
    return counts


def confusion_sweep(dataset: EmbeddingSet, threshold: float,
                    tile: int = DEFAULT_TILE, workers: int = 1, *,
                    rows: UnitRows | None = None,
                    fp: np.ndarray | None = None) -> PairStatsAccumulator:
    """Count TP/FP/TN/FN over all ordered pairs: predict positive iff S > threshold.

    Equality S == threshold counts as a negative prediction, so the four
    counts partition every ordered pair. `fp` gives each record's FP count
    at this threshold (`ThresholdResult.record_fp`); without it one screened
    half sweep over the negative pairs counts it. TP comes from a sweep of
    the pairs within each identity alone (`_identity_blocks`), and the
    positive and negative totals from the identity sizes. `rows` passes the
    dataset's `UnitRows` when the caller has them.
    """
    u32 = UnitRows(dataset.vectors) if rows is None else rows
    ids, n = dataset.identity, dataset.n
    if fp is None:
        fp = _count_above(u32, ids, threshold, tile, workers, same=False)
    tp = _count_above(u32, ids, threshold, tile, workers, same=True)
    size = np.bincount(ids, minlength=dataset.n_identities)[ids]
    quad = np.stack([tp, fp, n - size - fp, size - 1 - tp], axis=1)
    acc = PairStatsAccumulator.zeros(dataset.n_identities, dataset.n_attributes)
    np.add.at(acc.identity_counts, ids, quad)
    np.add.at(acc.attribute_counts, dataset.attribute, quad)
    return acc


def _unit_means(means: MeanVectors) -> np.ndarray:
    """The identity means scaled to unit norm (float64); a zero mean has no cosine."""
    norms = np.linalg.norm(means.means, axis=1, keepdims=True)
    dead = np.flatnonzero(norms[:, 0] == 0.0)
    if dead.size:
        raise DegenerateDataError(f"identity {int(dead[0])} has a zero mean vector; cosine undefined")
    return means.means / norms


def _top_columns(sims: np.ndarray, i0: int, k: int) -> np.ndarray:
    """Columns of each row's K largest entries, largest first, ties to the lower column.

    Row r of `sims` belongs to identity i0 + r, whose own column is set to
    -inf. `np.argpartition` picks K columns per row, and their smallest
    value is the row's K-th largest v. Only a row holding more than K entries
    >= v has a choice to make: it takes every entry above v, then its
    lowest-index entries equal to v until it holds K. The K columns are then
    ordered by value, ties by column.
    """
    b, g = sims.shape
    own = np.arange(b)
    sims[own, i0 + own] = -np.inf
    # copied, so the full index array is freed at once
    cols = np.argpartition(sims, g - k, axis=1)[:, g - k:].copy()
    kth = np.take_along_axis(sims, cols, axis=1).min(axis=1)
    tied = np.flatnonzero(np.count_nonzero(sims >= kth[:, None], axis=1) > k)
    if tied.size:
        t, v = sims[tied], kth[tied, None]
        take = t > v
        r, c = np.nonzero(t == v)  # row-major: each row's ties by column
        fill = np.arange(r.size) - np.searchsorted(r, r) < (k - np.count_nonzero(take, axis=1))[r]
        take[r[fill], c[fill]] = True
        cols[tied] = np.nonzero(take)[1].reshape(tied.size, k)
    cols.sort(axis=1)
    order = np.argsort(-np.take_along_axis(sims, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _neighbor_pass(mu: np.ndarray, k: int = 0, neighbors: np.ndarray | None = None,
                   block: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(neighbors, mean cosine to them) of every unit mean in `mu`, one GEMM per row block.

    Without `neighbors` given, each identity's neighbours are the K other
    identities with the most similar means (`_top_columns`, run on sub-blocks
    of `budget_rows(G + K)` rows, so its G-wide index array and K-wide copy
    stay budget-sized). The GEMM keeps its `block` rows: the last bits of its
    values follow that row partition.
    """
    g = len(mu)
    pick = neighbors is None
    if pick:
        if not 1 <= k <= g - 1:
            raise DomainError(f"K must lie in [1, G-1] = [1, {g - 1}], got {k}")
        neighbors = np.empty((g, k), dtype=np.int64)
    mean = np.empty(g, dtype=np.float64)
    for i0, i1 in _row_blocks(g, block):
        sims = mu[i0:i1] @ mu.T
        if pick:
            for a0, a1 in _row_blocks(i1 - i0, budget_rows(g + k)):
                neighbors[i0 + a0:i0 + a1] = _top_columns(sims[a0:a1], i0 + a0, k)
        mean[i0:i1] = np.take_along_axis(sims, neighbors[i0:i1], axis=1).mean(axis=1)
        del sims  # freed before the next block's GEMM, not after it
    return neighbors, mean


def topk_neighbors(means: MeanVectors, k: int, block: int = 512) -> np.ndarray:
    """Indices of the K other identities with the most similar mean vectors.

    Similarity is cosine; ties break toward the lower identity index.
    """
    return _neighbor_pass(_unit_means(means), k, block=block)[0]


def neighbor_mean_similarity(means: MeanVectors, neighbors: np.ndarray,
                             block: int = 512) -> np.ndarray:
    """Mean cosine similarity of each identity's mean to its listed neighbors."""
    return _neighbor_pass(_unit_means(means), neighbors=neighbors, block=block)[1]
