"""Blocked all-pairs engine: similarities, exact FPR threshold, confusion counts.

All ordered pairs (i, j), i != j are visited in rectangular tiles. Pair
similarities are float32 values obtained from float64 dot products of
float32 unit vectors; rounding to float32 makes the blocked and scalar
paths agree bitwise, so counts are exact for any tile schedule and any
worker count. Counts are 64-bit integers and merge by plain addition.

The overall-FPR threshold is the k-th largest negative similarity, solved
exactly. When k fits under COLLECT_CAP a single sweep keeps a running top-k
with np.partition behind a floor that rises as slabs finish (blocked
k-selection), holding O(k) values per worker. Larger ranks take an exact
two-pass radix select over order-preserving keys of the float32 values:
65,536 counters per pass and worker, whatever the value distribution or
the number of ties.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateDataError, DomainError
from .store import EmbeddingSet, MeanVectors, normalize

DEFAULT_TILE = 768
HIST_SLACK = 1e-6  # widens [-1, 1] so rounded endpoints stay in range
COLLECT_CAP = 1 << 21  # largest rank held in memory; beyond it, radix select

# column order of every count quadruple
TP, FP, TN, FN = 0, 1, 2, 3


def unit_rows(dataset: EmbeddingSet, chunk: int = 4096) -> np.ndarray:
    """Float32 unit-norm rows; the raw vectors are normalized in float64 first.

    Works in row chunks so the float64 intermediates never exceed O(chunk * d).
    """
    n = dataset.n
    out = np.empty((n, dataset.dim), dtype=np.float32)
    for i0, i1 in _row_blocks(n, chunk):
        v64 = dataset.vectors[i0:i1].astype(np.float64)
        norms = np.linalg.norm(v64, axis=1, keepdims=True)
        out[i0:i1] = v64 / norms
    return out


def _sim_block(u32: np.ndarray, rows64: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Similarities of a row slab against columns [j0, j1): float64 dots, float32 result."""
    s = rows64 @ u32[j0:j1].astype(np.float64).T
    s32 = s.astype(np.float32)
    np.clip(s32, -1.0, 1.0, out=s32)
    return s32


def cosine_similarity(u, v) -> float:
    """Cosine of two raw vectors through the engine's kernel (float32 value)."""
    uu = normalize(u).astype(np.float32).astype(np.float64)
    vv = normalize(v).astype(np.float32).astype(np.float64)
    s32 = np.float32(np.dot(uu, vv))
    return float(np.clip(s32, np.float32(-1.0), np.float32(1.0)))


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


def _map_blocks(fn, n: int, tile: int, workers: int) -> list:
    blocks = list(_row_blocks(n, tile))
    if workers <= 1:
        return [fn(i0, i1) for i0, i1 in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


@dataclass
class NegSimHistogram:
    """Fixed-bin counts of all ordered negative-pair similarities."""

    lo: float
    hi: float
    counts: np.ndarray  # (B,) int64
    total: int

    @property
    def bins(self) -> int:
        return len(self.counts)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    @property
    def edges(self) -> np.ndarray:
        """(bins+1,) float64 boundaries; bin b holds edges[b] <= v < edges[b+1].

        Binning is done by searchsorted against these exact floats, so the
        partition agrees bit-for-bit with >=/< comparisons on the same edges.
        """
        e = self.lo + self.width * np.arange(self.bins + 1, dtype=np.float64)
        e[0], e[-1] = self.lo, self.hi
        return e

    def bin_index(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edges[1:-1], values.astype(np.float64), side="right")

    @staticmethod
    def empty(bins: int) -> "NegSimHistogram":
        if bins < 2:
            raise DomainError(f"histogram needs at least 2 bins, got {bins}")
        return NegSimHistogram(lo=-1.0 - HIST_SLACK, hi=1.0 + HIST_SLACK,
                               counts=np.zeros(bins, dtype=np.int64), total=0)


def _neg_tiles(u32: np.ndarray, ids: np.ndarray, i0: int, i1: int, tile: int):
    """(similarities, negative-pair mask) of row slab [i0, i1) against each column tile."""
    rows64 = u32[i0:i1].astype(np.float64)
    for j0, j1 in _row_blocks(len(ids), tile):
        yield _sim_block(u32, rows64, j0, j1), ids[i0:i1, None] != ids[None, j0:j1]


def _range_hist(u32: np.ndarray, ids: np.ndarray, lo: float, hi: float, bins: int,
                tile: int, workers: int) -> NegSimHistogram:
    """Histogram of ordered negative similarities restricted to lo <= s < hi."""
    hist = NegSimHistogram(lo=lo, hi=hi, counts=np.zeros(bins, dtype=np.int64), total=0)

    def block(i0, i1):
        counts = np.zeros(bins, dtype=np.int64)
        for s32, neg in _neg_tiles(u32, ids, i0, i1, tile):
            # compare in float64: a float32 compare would round lo/hi and
            # disagree with the float64 edge partition used by bin_index
            vals = s32[neg].astype(np.float64)
            vals = vals[(vals >= lo) & (vals < hi)]
            counts += np.bincount(hist.bin_index(vals), minlength=bins)
        return counts

    for c in _map_blocks(block, len(ids), tile, workers):
        hist.counts += c
    hist.total = int(hist.counts.sum())
    return hist


def sweep_histogram(dataset: EmbeddingSet, bins: int,
                    tile: int = DEFAULT_TILE, workers: int = 1) -> NegSimHistogram:
    """Full-range histogram of every ordered negative-pair similarity."""
    if bins < 2:
        raise DomainError(f"histogram needs at least 2 bins, got {bins}")
    return _range_hist(unit_rows(dataset), dataset.identity,
                       -1.0 - HIST_SLACK, 1.0 + HIST_SLACK, bins, tile, workers)


def _largest(vals: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of vals as an unordered multiset (all of them if fewer)."""
    if vals.size <= k:
        return vals
    return np.partition(vals, vals.size - k)[vals.size - k:]


def _top_negatives(u32: np.ndarray, ids: np.ndarray, k: int,
                   tile: int, workers: int) -> np.ndarray:
    """The k largest ordered negative similarities, in one sweep.

    Each row slab buffers the values at or above a floor and cuts the buffer
    to its k largest whenever it holds 2k; the cut's minimum then raises the
    floor shared by all slabs, since k values at or above it are known. A
    finished slab merges into the global top-k at once, so memory stays
    O(k) per worker. np.partition keeps exactly k entries, which makes the
    result the exact top-k multiset under any ties.
    """
    lock = threading.Lock()
    top = np.empty(0, dtype=np.float32)
    floor = np.float32(-np.inf)  # raised under the lock; a stale read keeps extra values

    def raise_floor(kept):
        nonlocal floor
        if kept.size == k:
            with lock:
                floor = max(floor, kept.min())

    def block(i0, i1):
        nonlocal top
        parts, held = [], 0
        for s32, neg in _neg_tiles(u32, ids, i0, i1, tile):
            neg &= s32 >= floor
            parts.append(s32[neg])
            held += parts[-1].size
            if held >= 2 * k:
                parts = [_largest(np.concatenate(parts), k)]
                held = k
                raise_floor(parts[0])
        mine = _largest(np.concatenate(parts), k)
        with lock:
            top = _largest(np.concatenate([top, mine]), k)
        raise_floor(top)

    _map_blocks(block, len(ids), tile, workers)
    return top


def _radix_key(s32: np.ndarray) -> np.ndarray:
    """Order-preserving uint32 keys of float32 values; -0.0 gets the key of +0.0."""
    bits = (s32 + np.float32(0.0)).view(np.uint32)
    return np.where(bits >> 31, ~bits, bits | 0x80000000)


def _key_value(key: int) -> float:
    bits = key & 0x7FFFFFFF if key >> 31 else ~key & 0xFFFFFFFF
    return float(np.uint32(bits).view(np.float32))


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
    key, pass 2 counts the low 16 bits inside the bucket holding rank k. Both
    passes hold 65,536 counters per worker, whatever the input.
    """
    def digit_counts(high):
        def block(i0, i1):
            counts = np.zeros(1 << 16, dtype=np.int64)
            for s32, neg in _neg_tiles(u32, ids, i0, i1, tile):
                key = _radix_key(s32[neg])
                digits = key >> 16 if high is None else key[key >> 16 == high] & 0xFFFF
                counts += np.bincount(digits, minlength=1 << 16)
            return counts
        return sum(_map_blocks(block, len(ids), tile, workers))

    high, above = _rank_bucket(digit_counts(None), k)
    low, within = _rank_bucket(digit_counts(high), k - above)
    return _key_value(high << 16 | low), above + within


@dataclass(frozen=True)
class ThresholdResult:
    """Exact solution of the overall-FPR threshold."""

    threshold: float
    target_fpr: float
    allowed_fp: int
    realized_fp: int
    total_negatives: int
    degenerate: bool = False


def solve_threshold(dataset: EmbeddingSet, target_fpr: float, bins: int = 200,
                    tile: int = DEFAULT_TILE, workers: int = 1) -> ThresholdResult:
    """Find the similarity cutoff whose strict-greater FP count meets the target.

    The threshold T is the k-th largest ordered negative similarity,
    k = allowed + 1 with allowed = floor(target_fpr * total_negatives)
    evaluated in exact arithmetic. When k <= COLLECT_CAP one sweep keeps the
    exact top-k multiset (O(k) memory per worker) and T is its minimum;
    otherwise a two-pass radix select over the float32 bit patterns finds T
    in fixed memory. `bins` is validated for callers but does not affect
    the solve. A zero threshold is always +0.0.
    """
    if not 0.0 < target_fpr <= 1.0:
        raise DomainError(f"target FPR must lie in (0, 1], got {target_fpr}")
    if bins < 2:
        raise DomainError(f"threshold search needs at least 2 bins, got {bins}")
    _, total_neg = ordered_pair_totals(dataset)
    if total_neg == 0:
        raise DegenerateDataError("dataset has no negative ordered pairs")
    allowed = int(Fraction(target_fpr) * total_neg)
    if allowed >= total_neg:
        return ThresholdResult(threshold=-math.inf, target_fpr=target_fpr,
                               allowed_fp=allowed, realized_fp=total_neg,
                               total_negatives=total_neg, degenerate=True)

    u32 = unit_rows(dataset)
    k = allowed + 1
    if k <= COLLECT_CAP:
        top = _top_negatives(u32, dataset.identity, k, tile, workers)
        if top.size != k:
            raise AssertionError(f"top-k pass kept {top.size} values, expected {k}")
        t = top.min()
        threshold, realized = float(t), int(np.count_nonzero(top > t))
    else:
        threshold, realized = _radix_select(u32, dataset.identity, k, tile, workers)
    return ThresholdResult(threshold=threshold + 0.0, target_fpr=target_fpr,
                           allowed_fp=allowed, realized_fp=realized,
                           total_negatives=total_neg)


@dataclass
class PairStatsAccumulator:
    """Mergeable integer confusion counts, binned by the pair's first element.

    Column order is TP, FP, TN, FN. Merging accumulators from disjoint
    pair blocks is plain integer addition, so any tile schedule and any
    worker count produce identical totals.
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

    def merge(self, other: "PairStatsAccumulator") -> "PairStatsAccumulator":
        return PairStatsAccumulator(
            identity_counts=self.identity_counts + other.identity_counts,
            attribute_counts=self.attribute_counts + other.attribute_counts,
        )

    def check_consistent(self) -> None:
        if not np.array_equal(self.identity_counts.sum(axis=0), self.attribute_counts.sum(axis=0)):
            raise AssertionError("per-identity and per-attribute totals disagree")


def confusion_sweep(dataset: EmbeddingSet, threshold: float,
                    tile: int = DEFAULT_TILE, workers: int = 1) -> PairStatsAccumulator:
    """Count TP/FP/TN/FN over all ordered pairs: predict positive iff S > threshold.

    Equality S == threshold counts as a negative prediction, so the four
    counts partition every ordered pair.
    """
    u32 = unit_rows(dataset)
    ids = dataset.identity
    attrs = dataset.attribute
    n = dataset.n
    g, m = dataset.n_identities, dataset.n_attributes

    def block(i0, i1):
        acc = PairStatsAccumulator.zeros(g, m)
        rows = i1 - i0
        tp = np.zeros(rows, dtype=np.int64)
        fp = np.zeros(rows, dtype=np.int64)
        pos_n = np.zeros(rows, dtype=np.int64)
        neg_n = np.zeros(rows, dtype=np.int64)
        rows64 = u32[i0:i1].astype(np.float64)
        for j0, j1 in _row_blocks(n, tile):
            s32 = _sim_block(u32, rows64, j0, j1)
            same = ids[i0:i1, None] == ids[None, j0:j1]
            if j0 < i1 and i0 < j1:  # tile touches the diagonal
                ii = np.arange(max(i0, j0), min(i1, j1))
                same[ii - i0, ii - j0] = False
                diag = np.zeros_like(same)
                diag[ii - i0, ii - j0] = True
            else:
                diag = None
            pred = s32 > np.float64(threshold)  # exact compare, no float32 rounding of T
            tp += np.count_nonzero(pred & same, axis=1)
            pos_n += np.count_nonzero(same, axis=1)
            neg = ~same if diag is None else ~(same | diag)
            fp += np.count_nonzero(pred & neg, axis=1)
            neg_n += np.count_nonzero(neg, axis=1)
        quad = np.stack([tp, fp, neg_n - fp, pos_n - tp], axis=1)
        np.add.at(acc.identity_counts, ids[i0:i1], quad)
        np.add.at(acc.attribute_counts, attrs[i0:i1], quad)
        return acc

    total = PairStatsAccumulator.zeros(g, m)
    for part in _map_blocks(block, n, tile, workers):
        total = total.merge(part)
    return total


def topk_neighbors(means: MeanVectors, k: int, block: int = 512) -> np.ndarray:
    """Indices of the K other identities with the most similar mean vectors.

    Similarity is cosine; ties break toward the lower identity index.
    """
    g = means.means.shape[0]
    if not 1 <= k <= g - 1:
        raise DomainError(f"K must lie in [1, G-1] = [1, {g - 1}], got {k}")
    norms = np.linalg.norm(means.means, axis=1, keepdims=True)
    dead = np.flatnonzero(norms[:, 0] == 0.0)
    if dead.size:
        raise DomainError(f"identity {int(dead[0])} has a zero mean vector; cosine undefined")
    mu = means.means / norms
    out = np.empty((g, k), dtype=np.int64)
    for i0, i1 in _row_blocks(g, block):
        sims = mu[i0:i1] @ mu.T
        sims[np.arange(i1 - i0), np.arange(i0, i1)] = -np.inf
        kth = np.partition(sims, g - k, axis=1)[:, g - k]
        for r in range(i1 - i0):
            cand = np.flatnonzero(sims[r] >= kth[r])
            order = np.lexsort((cand, -sims[r, cand]))
            out[i0 + r] = cand[order[:k]]
    return out


def neighbor_mean_similarity(means: MeanVectors, neighbors: np.ndarray,
                             block: int = 512) -> np.ndarray:
    """Mean cosine similarity of each identity's mean to its listed neighbors."""
    mu = means.means / np.linalg.norm(means.means, axis=1, keepdims=True)
    g = mu.shape[0]
    out = np.empty(g, dtype=np.float64)
    for i0, i1 in _row_blocks(g, block):
        sims = mu[i0:i1] @ mu.T
        out[i0:i1] = np.take_along_axis(sims, neighbors[i0:i1], axis=1).mean(axis=1)
    return out
