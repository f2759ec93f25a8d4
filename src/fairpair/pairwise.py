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
its float32 unit rows once, bitwise equal to `unit_rows`. Every screened
pass treats every tile, the diagonal one too, the same way
(`UnitRows.columns`): a float32 GEMM g of the slab's unit rows by the raw
columns, whose screened value is s~ = fl32(g * c_j) with c_j =
fl32(1 / norm_j). The pass compares the raw tile with one float32 edge per
column, the least g whose s~ reaches its own edge (`UnitRows.edges`), and
scales only the entries that pass. s~ obeys |s~ - s| <= delta(d), clipped
or not, so tiles stay unclipped and a pass clips only the values it
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
`_exact_pairs`, which groups them by tile. A group of more than TILE pairs
(a band of ties) runs `_exact_grid` on its distinct rows and columns,
gathered as unit rows; the pairs of all other groups are pooled into
row-wise float64 dot products (`_exact_dots`), whose error obeys the same
bound and so rounds to the same values. One refine therefore costs work in
proportion to its pairs, and at most one float64 GEMM per tile however many
pairs tie there. Every bound is rounded outward, so counts are exact for
any tile schedule, worker count and GEMM kernel. Counts are 64-bit integers
and merge by plain addition.

Threshold and confusion counts. The overall-FPR threshold T is the k-th
largest ordered negative similarity: the ceil(k/2)-th largest unordered one.
Two pivots g_lo <= T <= g_hi are read off a uniform sample of pairs (Floyd
and Rivest's sampled selection), and one screened half sweep (`_bracket`)
drops the pairs below g_lo - delta, counts those above g_hi + delta per
record as sure FP or TP, and holds the rest, negatives and positives, in a
band of at most COLLECT_CAP entries. T is the rank still needed among the
band's negatives; only the entries within 2 delta of its screened value are
refined, each once. Certified (g_lo <= T <= g_hi, the rank inside the band),
the band entries above T complete each record's FP and TP, so the
evaluation makes no pass after the solve. A band over the cap is binned by
screened key instead, into 65,536 counters, and the bin holding the rank
gives the next round's pivots (the bucket select of Alabi et al., ACM JEA
17, 2012); a failed certificate widens them. A tie group over the cap ends
in exact rounds (`_count_above`) that bin exact keys until T alone is left.
The degenerate target has FP = n - size and TP = size - 1 without a sweep.
Every screened pass picks a tile's pairs with one selector, `_pairs` (i < j,
of every kind or negatives only, compared as int32 identities), and counts
by record: each pair above T adds one to both of its records.

Workers. Every pass walks its slabs and tiles in one thread, which computes
each tile once, so one tile and one BLAS call are in flight at any worker
count. With workers > 1, a pool that lives for one pass splits each tile's
rows into that many contiguous ranges for the compare, the selection and
the gather (`_split_tiles`): threads share one block instead of each
holding its own (Smith et al., "Anatomy of High-Performance Many-Threaded
Matrix Multiplication", IPDPS 2014). The tile is released before its
pairs are scaled and counted in the calling thread, so the solve's memory
does not grow with the workers and its counts take no lock.

`sweep_histogram` counts every value with `_exact_counts`, which computes
whole tiles with `_exact_grid` instead of the screen.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateDataError, DomainError
from .store import EmbeddingSet, MeanVectors, budget_rows

# rows and columns of every tile of the half sweep
TILE = 768
# most band entries `_bracket` holds at any rank; past it, the band is binned
COLLECT_CAP = 1 << 21
# counters of every key histogram (`_KeyBins`)
KEY_BINS = 1 << 16
# fewest ordered pairs drawn to read the bracket's pivots off (`_pivots`)
SAMPLE_PAIRS = 8192
# rows per GEMM of the neighbour pass (`_neighbor_pass`). Keep it a multiple
# of 64, which covers every kernel's row unroll: under Haswell's dgemm the
# rows past a block's last multiple of 4 take an edge kernel with other last
# bits, which s_inter, and so the report bytes, would follow
NEIGHBOR_BLOCK = 128

# column order of every count quadruple
TP, FP, TN, FN = 0, 1, 2, 3


def _unit_chunks(vectors: np.ndarray):
    """Yields (i0, i1, v, norm): rows [i0, i1) of `vectors` scaled to unit norm in float64.

    v is one buffer of `budget_rows(3 d)` rows that the next chunk
    overwrites, so three such arrays fit in WORKING_SET: the buffer, the
    norm's squared temporary of its size, and one the caller makes of v's
    size (`intra_inter_similarity`'s gather of the rows' means), even while
    it holds v. `norm` holds the rows' float64 norms.
    Each row is normalized on its own, so no value depends on the chunk size.
    A row whose norm is zero or not finite has no direction: DomainError.
    """
    chunk = budget_rows(3 * vectors.shape[1])
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
    against the raw rows, to be scaled by c, and `edges` turns an edge on the
    screened value into one per raw column. Where a norm lies outside
    [2^-64, 2^64] (the guard) `scale` is None and `columns` gathers unit
    rows; so it is for rows passed with `normalized=True`, unit rows already,
    yet returned as copies: numpy would send a GEMM of a buffer by itself to
    SYRK instead.
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

    def columns(self, slab: np.ndarray, key) -> tuple[np.ndarray, np.ndarray | None]:
        """(g, c): the float32 GEMM of `slab` (unit rows) by the raw rows `key`, and
        their inverse norms. Entry [r, q]'s screened value, unclipped, is the
        float32 product s~ = fl32(g[r, q] * c[q]); under the guard g is the
        screen of the unit rows itself and c is None."""
        if self.scale is None:
            return slab @ self[key].T, None
        return slab @ self.raw[key].T, self.scale[key]

    def edges(self, lo: np.float32) -> np.ndarray:
        """(n,) float32 theta: for each column j the least float32 g with fl32(g * c_j) >= lo.

        The float32 product is monotone in g, so a raw GEMM entry reaches
        theta_j exactly when its screened value reaches lo: one compare of
        the raw tile picks what scaling the whole tile first would. Each
        theta_j is bisected over order-preserving keys, inside the five keys
        around fl32(lo / c_j) when they bracket it, else over every value
        (where the product underflows, near lo = 0). Under the guard, lo.
        """
        if self.scale is None:
            return np.full(len(self), lo, dtype=np.float32)
        c = self.scale

        def reaches(key):
            return _key_value(key) * c >= lo
        key = _radix_key((np.float64(lo) / c).astype(np.float32)).astype(np.int64)
        a, b = key - 2, key + 2
        wide = reaches(a) | ~reaches(b)
        a[wide], b[wide] = _radix_key(np.float32([-np.inf, np.inf])).astype(np.int64)
        while np.any(b - a > 1):  # reaches(b) holds and reaches(a) does not
            mid = (a + b) // 2
            up = reaches(mid)
            a, b = np.where(up, a, mid), np.where(up, mid, b)
        return _key_value(b)


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


def _exact_pairs(u32: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Similarities of the pairs (i[p], j[p]), in proportion to their number.

    Pairs are grouped by the (i // TILE, j // TILE) tile they fall in. A
    group of more than TILE pairs (a band of ties) computes the GEMM of its
    distinct rows and columns with `_exact_grid`, so it never costs more than
    a whole tile. The pairs of all other groups are pooled into row-wise
    dot products (`_exact_dots`), `budget_rows(d)` pairs at a time.
    """
    out = np.empty(len(i), dtype=np.float32)
    key = i // TILE * -(-len(u32) // TILE) + j // TILE
    order = np.argsort(key, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(key[order])) + 1, len(i))
    size = np.diff(ends, prepend=0)
    for g in np.flatnonzero(size > TILE):
        group = order[ends[g] - size[g]:ends[g]]
        r, ri = np.unique(i[group], return_inverse=True)
        c, ci = np.unique(j[group], return_inverse=True)
        out[group] = _exact_grid(u32, r, c, (ri, ci))
    rest = order[np.repeat(size <= TILE, size)]
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


def ordered_pair_totals(dataset: EmbeddingSet) -> tuple[int, int]:
    """(positive, negative) ordered-pair counts, exactly, from identity sizes."""
    n = dataset.n
    sizes = np.bincount(dataset.identity, minlength=dataset.n_identities).astype(object)
    pos = int(sum(c * (c - 1) for c in sizes))
    return pos, n * (n - 1) - pos


def _row_blocks(n: int, size: int):
    for i0 in range(0, n, size):
        yield i0, min(i0 + size, n)


def _split_tiles(n: int, size: int, workers: int, tiles, select, finish) -> None:
    """A half sweep over n records, each tile's rows split among `workers` threads.

    The calling thread walks the slabs [i0, i1) of `size` rows and the tiles
    (j0, tile, *rest) that tiles(i0, i1) yields, in order, computing each
    once, so one tile and one BLAS call are in flight at any worker count.
    select(tile, a, b, i0, j0, *rest) runs on `workers` contiguous row
    ranges [a, b) at once, the first in the calling thread and the others in
    a pool that lives for the sweep. The tile is then released, and
    finish(parts, i0, j0, *rest) gets their results in row order, as a list
    it may empty, in the calling thread: it needs no lock.
    """
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        for i0, i1 in _row_blocks(n, size):
            cuts = sorted({(i1 - i0) * p // workers for p in range(workers + 1)})
            for j0, tile, *rest in tiles(i0, i1):
                jobs = [pool.submit(select, tile, a, b, i0, j0, *rest)
                        for a, b in zip(cuts[1:-1], cuts[2:])]
                parts = [select(tile, 0, cuts[1], i0, j0, *rest)]
                parts += [job.result() for job in jobs]
                del tile, jobs
                finish(parts, i0, j0, *rest)


def _half_tiles(u32, i0: int, i1: int):
    """Screened tiles of row slab [i0, i1) against the TILE-column tiles j0 >= i0.

    `u32` is a `UnitRows` or an array of float32 unit rows. Yields (j0, g, c),
    the `UnitRows.columns` of the slab's unit rows, gathered once, so every
    tile, the diagonal one too, is one float32 GEMM: entry [r, q] belongs to
    records i0 + r and j0 + q. Slabs and tiles share one grid of TILE, so the
    first tile is the diagonal one (j0 == i0), whose pairs i < j are its entries
    q > r; a range of its rows that starts r0 rows in keeps q > r + r0
    (`_pairs`). The caller holds each tile only until its rows are selected,
    so the next GEMM runs with no other tile alive (`_split_tiles`). delta
    bounds the screen's error before clipping too, so a caller compares the
    tile as it comes and clips only the values it gathers: s~ >= f exactly
    when clip(s~) >= f for an edge f in (-1, 1], and below that range every
    entry passes the clipped test.
    """
    rows = _rows_of(u32)
    slab = rows[i0:i1]
    for j0 in range(i0, len(rows), TILE):
        yield j0, *rows.columns(slab, slice(j0, min(j0 + TILE, len(rows))))


def _narrow(ids: np.ndarray) -> np.ndarray:
    """The identities as int32 when they fit, made once per pass for `_pairs`."""
    return ids.astype(np.int32) if ids.max(initial=0) < 1 << 31 else ids


def _pairs(s: np.ndarray, ids: np.ndarray, i0: int, j0: int, where=None,
           negatives: bool = True) -> np.ndarray:
    """Flat indices into tile s of its pairs i < j among `where`, if given, whose
    identities differ, or of all of them with `negatives` False; entry [r, c]
    is the pair of records i0 + r and j0 + c, and `ids` holds each record's
    identity.

    s is a tile of the half sweep or a range of its rows. A range of the
    diagonal tile starts at or past its first column (i0 >= j0) and keeps
    the entries c > r + i0 - j0; on every other tile all of them are pairs
    i < j.
    When `where` keeps under 1/16 of the tile, only the identities of its
    entries are compared, so the tile costs one count plus work in
    proportion to those entries. Otherwise whole-tile masks are cheaper than
    index arrays: the identity compare, `where` and the diagonal's bound.
    """
    h, w = s.shape
    if where is not None and np.count_nonzero(where) * 16 < where.size:
        f = np.flatnonzero(where)
        if i0 < j0 and not negatives:
            return f  # nothing to drop
        r = f // w
        keep = f > r * (w + 1) + (i0 - j0) if i0 >= j0 else True  # f = r * w + c
        if negatives:
            keep = keep & (ids[i0 + r] != ids[j0 + f - r * w])
        return f[keep]
    mask = np.ones((h, w), dtype=bool) if where is None else where.copy()
    if negatives:
        mask &= ids[i0:i0 + h, None] != ids[None, j0:j0 + w]
    if i0 >= j0:
        mask &= np.arange(w) > np.arange(h)[:, None] + (i0 - j0)
    return np.flatnonzero(mask)


def _exact_counts(u32: np.ndarray, ids: np.ndarray, bucket, size: int,
                  tile: int, workers: int) -> np.ndarray:
    """(size,) int64 counts of the ordered negative pairs by the bucket of their value.

    Every tile of the half sweep is computed exactly, by `_exact_grid`, and
    its rows are bucketed by `workers` threads (`_split_tiles`). `bucket`
    maps a float32 array of values to the bucket of each one, in [0, size).
    """
    ids, n = _narrow(ids), len(ids)
    counts = np.zeros(size, dtype=np.int64)

    def tiles(i0, i1):
        for j0 in range(i0, n, tile):
            yield j0, _exact_grid(u32, np.arange(i0, i1), np.arange(j0, min(j0 + tile, n)))

    def select(s, a, b, i0, j0):
        s = s[a:b]
        return np.bincount(bucket(s.ravel()[_pairs(s, ids, i0 + a, j0)]), minlength=size)

    _split_tiles(n, tile, workers, tiles, select,
                 lambda parts, i0, j0: np.add(counts, sum(parts), out=counts))
    return 2 * counts


def sweep_histogram(dataset: EmbeddingSet, bins: int,
                    tile: int = TILE, workers: int = 1) -> np.ndarray:
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


def _quot_rem(f: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(f // w, f % w) of non-negative integers f: under half of `np.divmod`'s
    time on int64, and no array beyond the two results."""
    i = f // w
    j = i * w
    return i, np.subtract(f, j, out=j)


def _tally(counts: np.ndarray, i: np.ndarray, j: np.ndarray, same: np.ndarray) -> None:
    """Add one to both records of each pair (i, j): of the (2n,) counts, record r's
    pairs across identities are counts[r] and those within counts[n + r]."""
    at = same * (len(counts) // 2)
    np.add.at(counts, i + at, 1)
    np.add.at(counts, j + at, 1)


def _sweep(rows: UnitRows, ids: np.ndarray, lo: np.float32, workers: int, visit) -> None:
    """One screened half sweep over the pairs i < j whose s~ reaches lo.

    Each tile is compared with the per-column edges of lo (`UnitRows.edges`),
    or with lo where it comes without column scales, and only the entries
    that pass are gathered, then scaled and clipped: a tile costs its GEMM,
    one compare and work in proportion to those pairs. `workers` threads
    split each tile's rows for the compare, the selection and the gather;
    the tile is released before its pairs are scaled (`_split_tiles`).
    visit(i, j, v, same) gets their records, clipped s~ and whether their
    identities match, in the calling thread, one tile at a time.
    """
    ids = _narrow(ids)
    edges = rows.edges(lo) if lo > -1 else None

    def select(g, a, b, i0, j0, c):
        w = g.shape[1]
        g = g[a:b]
        where = None if edges is None else g >= (lo if c is None else edges[j0:j0 + w])
        f = _pairs(g, ids, i0 + a, j0, where, negatives=False)
        v = g.ravel()[f]
        f += a * w  # flat in the whole tile
        return f, v

    def finish(parts, i0, j0, c):
        f, v = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        parts.clear()
        i, j = _quot_rem(f, min(TILE, len(ids) - j0))  # the tile's row and column
        del f
        if c is not None:
            v *= c[j]
        np.clip(v, -1.0, 1.0, out=v)
        i += i0
        j += j0
        visit(i, j, v, ids[i] == ids[j])

    _split_tiles(len(ids), TILE, workers, lambda i0, i1: _half_tiles(rows, i0, i1),
                 select, finish)


def _pivots(rows: UnitRows, ids: np.ndarray, k: int) -> tuple[float, float]:
    """(g_lo, g_hi): values that most likely bracket t, the k-th largest unordered
    negative similarity, read off a sample of pairs; -inf and +inf where the
    sample cannot tell.

    Ordered pairs are drawn uniformly with a fixed seed; the m negatives
    among them are uniform draws from the P unordered negative pairs (Floyd
    and Rivest, "Expected time bounds for selection", CACM 18(3), 1975).
    About lambda = m k / P of them lie in the top k; more than r_lo =
    ceil(lambda + 6 sqrt(lambda) + 6), or fewer than r_hi = floor(lambda -
    6 sqrt(lambda) - 6), only with a chance that a Chernoff bound keeps
    negligible whatever the data. g_lo is the r_lo-th largest sample value
    minus delta, g_hi the r_hi-th largest plus delta, +inf when r_hi < 1.
    Values are estimated from the raw rows times their inverse norms c (unit
    rows where `scale` is None) and clipped. The band between the pivots
    holds about 12 (sqrt(k P / m) + P / m) pairs, so with s = COLLECT_CAP / 64
    max(SAMPLE_PAIRS, P / s, k P / s^2) pairs are drawn, keeping it under
    24 s (3/8 of the cap) at any rank, but at most COLLECT_CAP / 4, whose
    scratch (about 33 bytes a draw) stays under a full band's (9 or more an
    entry). Nothing rests on the pivots: `_bracket` certifies g_lo <= t <= g_hi.
    """
    n, sizes = len(ids), np.bincount(ids)
    total = (n * (n - 1) - int(sizes @ (sizes - 1))) // 2
    s = max(1, COLLECT_CAP // 64)
    draws = max(SAMPLE_PAIRS, min(max(total, k * total // s) // s, COLLECT_CAP // 4))
    rng = np.random.default_rng(0)
    i = np.sort(rng.integers(0, n, draws))  # sorted, so one gather streams
    j = (i + rng.integers(1, n, draws)) % n
    neg = ids[i] != ids[j]
    i, j = i[neg], j[neg]
    lam = i.size * k / total
    r_lo = math.ceil(lam + 6 * math.sqrt(lam) + 6)
    r_hi = math.floor(lam - 6 * math.sqrt(lam) - 6)
    if r_lo > i.size:
        return -math.inf, math.inf
    est = np.empty(i.size, dtype=np.float32)
    chunk = budget_rows(2 * rows.shape[1])
    for p0 in range(0, i.size, chunk):
        a, b = i[p0:p0 + chunk], j[p0:p0 + chunk]
        if rows.scale is None:
            est[p0:p0 + chunk] = np.einsum("ij,ij->i", rows[a], rows[b])
            continue
        # |v_i . v_j| <= norm_i * norm_j <= 2^128 may round to inf, which
        # clips to 1; the sum of |products| bounds both signs, so no nan
        with np.errstate(over="ignore"):
            dots = np.einsum("ij,ij->i", rows.raw[a], rows.raw[b])
        est[p0:p0 + chunk] = dots * rows.scale[a] * rows.scale[b]
    ranks = [est.size - r_lo] + ([est.size - r_hi] if r_hi >= 1 else [])
    est = np.clip(np.partition(est, ranks)[ranks], -1.0, 1.0).tolist()
    return est[0] - rows.delta, est[1] + rows.delta if r_hi >= 1 else math.inf


def _bracket(rows: UnitRows, ids: np.ndarray, k: int,
             workers: int) -> tuple[np.float32, np.ndarray, np.ndarray]:
    """(t, FP per record, TP per record) for the k-th largest unordered negative
    similarity t, in screened half sweeps between two pivots.

    With the pivots g_lo and g_hi, at first those of `_pivots`, a pair with
    s~ below lo = g_lo - delta is dropped, since s < g_lo; one above
    hi = g_hi + delta is sure, s > g_hi, and counts at once toward its
    records' FP or TP; every other pair, negative or positive, goes to the
    band as (s~, pair, kind). With `sure` negatives sure and need = k - sure,
    t is the need-th largest exact value among the band's negatives. Only the
    band entries within 2 delta of the screened need-th value v get their
    exact value, each once: t lies within delta of v, so every other entry
    lies more than delta from t and is decided by s~. When 1 <= need <= the
    band's negatives and g_lo <= t <= g_hi, every sure pair lies above t and
    every dropped one below it, so t is certified and the band entries above
    t complete each record's FP and TP. A sample that gives no g_lo puts
    every pair that is not sure in the band.

    A band over COLLECT_CAP entries is binned by screened key instead
    (`_KeyBins`). With 1 <= need <= its negatives, at least k negatives have
    s~ at or above the bin holding the need-th value and fewer than k above
    it, so t lies in that bin widened by delta, whatever the pivots: the next
    ones. Otherwise, or when the certificate fails, t lies above g_hi or
    below g_lo, and the next pivots are (g_hi, inf) or (-inf, g_lo); from
    then on every certificate holds. A band still over the cap once
    g_hi - g_lo <= 4 delta is a tie group: rounds of `_count_above` bin the
    exact keys of that window until one, t, is left, and the round at t
    counts each record's FP and TP.
    """
    n, delta = len(ids), rows.delta
    g_lo, g_hi = _pivots(rows, ids, k)
    index_type = np.uint32 if n * n < 1 << 32 else np.int64
    while True:
        lo, hi = _f32_out(g_lo - delta, up=False), _f32_out(g_hi + delta, up=True)
        counts = np.zeros(2 * n, dtype=np.int64)
        parts = [(np.empty(0, np.float32), np.empty(0, index_type), np.empty(0, bool))]
        held, keys = 0, None

        def visit(i, j, v, same):
            nonlocal held, keys
            sure = v > hi
            band = ~sure
            _tally(counts, i[sure], j[sure], same[sure])
            held += int(np.count_nonzero(band))
            if keys is None and held <= COLLECT_CAP:
                parts.append((v[band], (i[band] * n + j[band]).astype(index_type), same[band]))
                return
            if keys is None:  # the band passes the cap: bin what it holds, hold no more
                keys = _KeyBins(max(lo, -1.0), min(hi, 1.0))
                for vals, _, kind in parts:
                    keys.add(vals[~kind])
                parts.clear()
            keys.add(v[band & ~same])

        _sweep(rows, ids, lo, workers, visit)
        need = k - int(counts[:n].sum()) // 2
        up = need < 1
        if keys is not None and 1 <= need <= keys.counts.sum():
            a, b = keys.rank(need)
            a, b = _f32_out(float(a) - delta, up=False), _f32_out(float(b) + delta, up=True)
            if g_hi - g_lo > 4 * delta:
                g_lo, g_hi = float(a), float(b)
                continue
            while a < b:  # a tie group: exact rounds
                fp, _, keys = _count_above(rows, ids, a, b, workers)
                a, b = keys.rank(k - int(fp.sum()) // 2)
            fp, tp, _ = _count_above(rows, ids, a, a, workers)
            return a, fp, tp
        if keys is None:
            vals, pairs, same = (np.concatenate(col) for col in zip(*parts))
            parts.clear()
            neg = vals[~same]
            if 1 <= need <= neg.size:
                neg.partition(neg.size - need)
                v = float(neg[neg.size - need])
                top, bottom = _f32_out(v + 2 * delta, up=True), _f32_out(v - 2 * delta, up=False)
                need -= int(np.count_nonzero(neg > top))  # above v + 2 delta: above t
                del neg
                near = np.flatnonzero((vals >= bottom) & (vals <= top))
                p = pairs[near].astype(np.int64)
                vals[near] = _exact_pairs(rows, *_quot_rem(p, n))
                near = near[~same[near]]
                t = np.partition(vals[near], near.size - need)[near.size - need]
                if g_lo <= float(t) <= g_hi:
                    chunk = budget_rows(4)  # the int64 records, offsets and sums of a chunk
                    for p0 in range(0, vals.size, chunk):
                        hit = vals[p0:p0 + chunk] > t
                        p = pairs[p0:p0 + chunk][hit]
                        _tally(counts, *_quot_rem(p, n), same[p0:p0 + chunk][hit])
                    return t, counts[:n], counts[n:]
                up = float(t) > g_hi
        g_lo, g_hi = (g_hi, math.inf) if up else (-math.inf, g_lo)


def _radix_key(s32: np.ndarray) -> np.ndarray:
    """Order-preserving uint32 keys of float32 values; -0.0 gets the key of +0.0."""
    bits = (s32 + np.float32(0.0)).view(np.uint32)
    return np.where(bits >> 31, ~bits, bits | 0x80000000)


def _key_value(key) -> np.ndarray:
    """The float32 values of `_radix_key` keys, a scalar or an array of them."""
    key = np.asarray(key, dtype=np.uint32)
    return np.where(key >> 31, key & 0x7FFFFFFF, ~key).astype(np.uint32).view(np.float32)


class _KeyBins:
    """KEY_BINS counters over the `_radix_key` keys of the float32 values in [lo, hi],
    each counting 2^shift consecutive keys, the fewest that cover the range."""

    def __init__(self, lo, hi):
        self.k0, self.k1 = (int(key) for key in _radix_key(np.float32([lo, hi])))
        self.shift = max(0, (self.k1 - self.k0).bit_length() - (KEY_BINS.bit_length() - 1))
        self.counts = np.zeros(KEY_BINS, dtype=np.int64)

    def add(self, v: np.ndarray) -> None:
        if v.size:
            at = (_radix_key(v).astype(np.int64) - self.k0) >> self.shift
            self.counts += np.bincount(at, minlength=KEY_BINS)

    def rank(self, need: int) -> np.ndarray:
        """The least and the largest value of the counter holding the need-th largest value."""
        b = KEY_BINS - 1 - int(np.searchsorted(np.cumsum(self.counts[::-1]), need))
        key = self.k0 + (b << self.shift)
        return _key_value([key, min(key + (1 << self.shift) - 1, self.k1)])


@dataclass(frozen=True)
class ThresholdResult:
    """Exact solution of the overall-FPR threshold."""

    threshold: float
    target_fpr: float
    allowed_fp: int
    realized_fp: int
    total_negatives: int
    degenerate: bool = False
    # ordered FP and TP per record at the threshold, which every solve
    # returns, so `confusion_sweep` makes no pass. Never part of a report.
    record_fp: np.ndarray | None = field(default=None, compare=False, repr=False)
    record_tp: np.ndarray | None = field(default=None, compare=False, repr=False)


def solve_threshold(dataset: EmbeddingSet, target_fpr: float, workers: int = 1) -> ThresholdResult:
    """Find the similarity cutoff whose strict-greater FP count meets the target.

    The threshold T is the k-th largest ordered negative similarity,
    k = allowed + 1 with allowed = floor(target_fpr * total_negatives)
    evaluated in exact arithmetic: `_bracket` finds the ceil(k/2)-th largest
    unordered value in screened sweeps between sampled pivots, which narrow
    while the band passes COLLECT_CAP, in fixed memory whatever the ties.
    Every result carries each record's ordered FP and TP counts at T
    (`record_fp`, `record_tp`): the bracket's own, or n - size and size - 1
    without a sweep when the target admits every negative (T = -inf). A zero
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
        t = -math.inf
        size = np.bincount(ids, minlength=dataset.n_identities)[ids]
        fp, tp = dataset.n - size, size - 1
    else:
        # each unordered value stands twice in the ordered ranking of k = allowed + 1
        t, fp, tp = _bracket(UnitRows(dataset.vectors), ids, (allowed + 2) // 2, workers)
    return ThresholdResult(threshold=float(t) + 0.0, target_fpr=target_fpr, allowed_fp=allowed,
                           realized_fp=int(fp.sum()), total_negatives=total_neg,
                           degenerate=degenerate, record_fp=fp, record_tp=tp)


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


def _count_above(u32, ids: np.ndarray, lo: float, hi: float,
                 workers: int) -> tuple[np.ndarray, np.ndarray, _KeyBins]:
    """(fp, tp, keys) of the window [lo, hi] in one screened half sweep: per record,
    (n,) int64 counts of its pairs above `hi` whose identities differ (FP) or
    match (TP), and the unordered negative pairs in [lo, hi] by exact key. A
    pair whose s~ lies more than delta outside the window is decided by s~;
    each tile refines the pairs between at once, so memory stays per tile.
    """
    rows, n = _rows_of(u32), len(ids)
    # every s lies in [-1, 1]; compared exactly, never rounded to float32
    lo, hi = (np.float64(min(max(float(x), -2.0), 2.0)) for x in (lo, hi))
    s_lo, s_hi = _f32_out(lo - rows.delta, up=False), _f32_out(hi + rows.delta, up=True)
    counts, keys = np.zeros(2 * n, dtype=np.int64), _KeyBins(lo, hi)

    def visit(i, j, v, same):
        hit = v > s_hi
        band = np.flatnonzero(~hit)  # s_lo <= s~ <= s_hi: refine
        s = _exact_pairs(rows, i[band], j[band])
        hit[band] = s > hi
        _tally(counts, i[hit], j[hit], same[hit])
        keys.add(s[(s >= lo) & (s <= hi) & ~same[band]])

    _sweep(rows, ids, s_lo, workers, visit)
    return counts[:n], counts[n:], keys


def confusion_sweep(dataset: EmbeddingSet, threshold: float, workers: int = 1, *,
                    fp: np.ndarray | None = None,
                    tp: np.ndarray | None = None) -> PairStatsAccumulator:
    """Count TP/FP/TN/FN over all ordered pairs: predict positive iff S > threshold.

    Equality S == threshold counts as a negative prediction, so the four
    counts partition every ordered pair. `fp` and `tp` give each record's
    FP and TP counts at this threshold (`ThresholdResult.record_fp` and
    `record_tp`); without both, one screened half sweep counts them. The
    positive and negative totals come from the identity sizes.
    """
    ids, n = dataset.identity, dataset.n
    if fp is None or tp is None:
        fp, tp, _ = _count_above(UnitRows(dataset.vectors), ids, threshold, threshold, workers)
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


def _above_floor(sims: np.ndarray, i0: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, slots): each row's entries at or above a floor, packed row by row.

    Row r of `sims` belongs to identity i0 + r, whose own column is set to
    -inf. A per-row floor comes first: with the columns cut into at least 4K
    disjoint groups of strided columns, one `max` reduction gives each
    group's maximum, and the K-th largest of those is the floor. Each group
    maximum is a distinct entry of the row, so the floor never exceeds the
    row's K-th largest value. f holds the flat indices of the entries at or
    above it, row-major, so each row's in column order. `slots` is a (b, w)
    mask, w the most entries any row has, True in the first n places of a
    row with n entries: `packed[slots] = sims.ravel()[f]` packs each row's
    entries at the left of its row of a (b, w) array.
    """
    b, g = sims.shape
    own = np.arange(b)
    sims[own, i0 + own] = -np.inf
    per = g // (4 * k)  # columns per group
    groups = sims[:, :g // per * per].reshape(b, per, -1).max(axis=1) if per > 1 else sims
    m = groups.shape[1]
    # a copy, not a view, so the partitioned groups are freed before the mask
    floor = np.partition(groups, m - k, axis=1)[:, m - k, None].copy()
    del groups
    f = np.flatnonzero(sims >= floor)
    n = np.diff(np.searchsorted(f, np.arange(0, b * g + 1, g)))  # entries per row
    return f, np.arange(int(n.max())) < n[:, None]


def _top_columns(sims: np.ndarray, i0: int, k: int) -> np.ndarray:
    """Columns of each row's K largest entries, largest first, ties to the lower column.

    Only the entries `_above_floor` packs are ordered: padded with -inf and
    sorted by value descending with a stable sort, so ties keep the lower
    column first; each row keeps its first K.
    """
    f, slots = _above_floor(sims, i0, k)
    vals = np.full(slots.shape, np.inf)
    vals[slots] = -sims.ravel()[f]
    cols = np.zeros(slots.shape, dtype=np.int64)
    cols[slots] = f % sims.shape[1]
    del f, slots
    order = np.argsort(vals, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cols, order, axis=1)


def _top_values(sims: np.ndarray, i0: int, k: int) -> np.ndarray:
    """Each row's K largest entries, largest first, as a C-contiguous (b, K) array.

    The entries `_above_floor` packs are padded with -inf and sorted with an
    unstable sort. Entries that tie are equal, so each row holds the values
    `_top_columns` picks, in its order, up to the signs of tied zeros, and a
    sum over them gives the same bits unless all K are zeros of both signs;
    the neighbour pass's GEMM writes every exact zero as +0.
    """
    f, slots = _above_floor(sims, i0, k)
    vals = np.full(slots.shape, -np.inf)
    vals[slots] = sims.ravel()[f]
    del f, slots
    vals.sort(axis=1)
    return vals[:, ::-1][:, :k].copy()


def _neighbor_pass(mu: np.ndarray, k: int = 0, neighbors: np.ndarray | None = None,
                   table: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """(neighbors, mean cosine to them) of every unit mean in `mu`, one GEMM per row block.

    Without `neighbors` given, each identity's neighbours are the K other
    identities with the most similar means (`_top_columns`); with `table`
    False they are not kept, and only the K largest values are picked and
    averaged (`_top_values`), in the same order and so to the same bits.

    Each GEMM takes NEIGHBOR_BLOCK rows, a multiple of 4. With G a multiple
    of 8, such blocks give the bits of one product of all G rows on the
    Haswell, Sandybridge and SkylakeX kernels. Otherwise the last bits still
    follow the partition: SkylakeX's dgemm takes the last G mod 8 columns
    through an edge kernel whose bits depend on where a block ends, and a
    one-row last block is a matrix-vector product.

    Each block is read in sub-blocks of `budget_rows(4 G)` rows. The pick's
    scratch is then a G-byte mask and the few entries above the floor per
    row, a small share of the working set. Only when every entry of a row
    ties at its floor does every column pass: the values pick then holds
    three G-wide 8-byte arrays and a G-byte mask per row, within the working
    set, and the column pick four and a mask, under twice the working set.
    """
    g = len(mu)
    pick = neighbors is None
    if pick:
        if not 1 <= k <= g - 1:
            raise DomainError(f"K must lie in [1, G-1] = [1, {g - 1}], got {k}")
        if table:
            neighbors = np.empty((g, k), dtype=np.int64)
    mean = np.empty(g, dtype=np.float64)
    for i0, i1 in _row_blocks(g, NEIGHBOR_BLOCK):
        sims = mu[i0:i1] @ mu.T
        for a0, a1 in _row_blocks(i1 - i0, budget_rows(4 * g)):
            s, rows = sims[a0:a1], slice(i0 + a0, i0 + a1)
            if pick and not table:
                top = _top_values(s, rows.start, k)
            else:
                cols = _top_columns(s, rows.start, k) if pick else neighbors[rows]
                if pick:
                    neighbors[rows] = cols
                top = np.take_along_axis(s, cols, axis=1)
            mean[rows] = top.mean(axis=1)
        del sims, s  # freed before the next block's GEMM, not after it
    return neighbors, mean


def topk_neighbors(means: MeanVectors, k: int) -> np.ndarray:
    """Indices of the K other identities with the most similar mean vectors.

    Similarity is cosine; ties break toward the lower identity index.
    """
    return _neighbor_pass(_unit_means(means), k)[0]


def neighbor_mean_similarity(means: MeanVectors, neighbors: np.ndarray) -> np.ndarray:
    """Mean cosine similarity of each identity's mean to its listed neighbors."""
    return _neighbor_pass(_unit_means(means), neighbors=neighbors)[1]
