"""Oracle tests for the pairwise engine.

The oracle below recomputes everything with plain per-pair loops from the
documented similarity definition (float64-normalized rows rounded to float32,
per-pair float64 dot products rounded back to float32, clipped to [-1, 1]).
It shares no code with the tiled engine.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import metrics, pairwise
from fairpair.errors import DegenerateDataError, DomainError
from fairpair.pairwise import (
    PairStatsAccumulator,
    confusion_sweep,
    cosine_similarity,
    neighbor_mean_similarity,
    ordered_pair_totals,
    pair_label,
    solve_threshold,
    sweep_histogram,
    topk_neighbors,
    unit_rows,
)
from fairpair.store import EmbeddingSet, LabelTable, mean_vectors

from conftest import CAP_OFFSETS, random_dataset, solve_at_cap


def oracle_sims(ds):
    v = ds.vectors.astype(np.float64)
    u = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    u64 = u.astype(np.float64)
    s = np.empty((ds.n, ds.n), dtype=np.float32)
    for i in range(ds.n):
        s[i] = np.clip((u64 @ u64[i]).astype(np.float32), -1.0, 1.0)
    return s


def oracle_counts(ds, threshold):
    """Per-identity and per-attribute TP/FP/TN/FN via an explicit pair loop."""
    s = oracle_sims(ds)
    gid = np.zeros((ds.n_identities, 4), dtype=np.int64)
    att = np.zeros((ds.n_attributes, 4), dtype=np.int64)
    for i in range(ds.n):
        for j in range(ds.n):
            if i == j:
                continue
            same = ds.identity[i] == ds.identity[j]
            pred = s[i, j] > threshold
            col = (0 if pred else 3) if same else (1 if pred else 2)
            gid[ds.identity[i], col] += 1
            att[ds.attribute[i], col] += 1
    return gid, att


def oracle_threshold(ds, target_fpr):
    s = oracle_sims(ds)
    neg = ds.identity[:, None] != ds.identity[None, :]
    np.fill_diagonal(neg, False)
    vals = np.sort(s[neg])[::-1]
    allowed = int(Fraction(target_fpr) * len(vals))
    if allowed >= len(vals):
        return -np.inf, allowed, len(vals)
    t = float(vals[allowed])
    return t, allowed, int(np.sum(vals > np.float32(t)))


# --- similarity kernel -------------------------------------------------------

def test_unit_rows_are_unit(small_set):
    u = unit_rows(small_set)
    assert u.dtype == np.float32
    norms = np.linalg.norm(u.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-7)


def test_cosine_similarity_range(rng):
    for _ in range(50):
        a, b = rng.normal(size=6), rng.normal(size=6)
        s = cosine_similarity(a, b)
        assert -1.0 <= s <= 1.0
    assert cosine_similarity([1.0, 0.0], [2.0, 0.0]) == 1.0
    assert cosine_similarity([1.0, 0.0], [-3.0, 0.0]) == -1.0


def test_pair_label(small_set):
    i = 0
    same = np.flatnonzero(small_set.identity == small_set.identity[i])
    diff = np.flatnonzero(small_set.identity != small_set.identity[i])
    if len(same) > 1:
        assert pair_label(small_set, i, int(same[same != i][0])) == "positive"
    assert pair_label(small_set, i, int(diff[0])) == "negative"
    with pytest.raises(DomainError):
        pair_label(small_set, i, i)


def test_ordered_pair_totals(small_set):
    pos, neg = ordered_pair_totals(small_set)
    cnt = np.bincount(small_set.identity)
    assert pos == int(np.sum(cnt * (cnt - 1)))
    assert pos + neg == small_set.n * (small_set.n - 1)


# --- confusion counts against the oracle --------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_confusion_counts_match_oracle(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=70, d=6, g=9, m=3)
    t = float(np.quantile(oracle_sims(ds), 0.9))
    acc = confusion_sweep(ds, t)
    gid, att = oracle_counts(ds, t)
    assert np.array_equal(acc.identity_counts, gid)
    assert np.array_equal(acc.attribute_counts, att)


def test_tile_and_worker_invariance(small_set):
    t = 0.25
    base = confusion_sweep(small_set, t, tile=small_set.n + 5, workers=1)
    for tile, workers in [(7, 1), (13, 3), (64, 8)]:
        acc = confusion_sweep(small_set, t, tile=tile, workers=workers)
        assert np.array_equal(acc.identity_counts, base.identity_counts)
        assert np.array_equal(acc.attribute_counts, base.attribute_counts)


def test_equality_counts_negative(rng):
    # pairs sitting exactly on the threshold must not be predicted positive
    vecs = np.tile(np.array([[3.0, 4.0]], dtype=np.float32), (6, 1))
    ds = EmbeddingSet(vectors=vecs, identity=np.arange(6) // 2,
                      attribute=np.zeros(6, np.int64),
                      labels=LabelTable.default(3, 1))
    s = oracle_sims(ds)[0, 1]
    acc = confusion_sweep(ds, float(s))
    assert acc.overall[0] == 0 and acc.overall[1] == 0  # no positives predicted
    assert acc.overall[2] == 24 and acc.overall[3] == 6


def test_accumulator_merge_is_addition(rng):
    a = PairStatsAccumulator.zeros(3, 2)
    b = PairStatsAccumulator.zeros(3, 2)
    a.identity_counts += rng.integers(0, 10, size=(3, 4))
    b.identity_counts += rng.integers(0, 10, size=(3, 4))
    a.attribute_counts += a.identity_counts[:2] * 0 + 1
    b.attribute_counts += 2
    m = a.merge(b)
    assert np.array_equal(m.identity_counts, a.identity_counts + b.identity_counts)
    assert np.array_equal(m.attribute_counts, a.attribute_counts + b.attribute_counts)


# --- threshold solver ---------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       tfpr=st.sampled_from([1e-4, 1e-3, 1e-2, 0.3, 1.0]))
def test_threshold_matches_oracle(seed, tfpr):
    ds = random_dataset(np.random.default_rng(seed), n=50, d=5, g=8, m=2)
    ot, oallowed, orealized = oracle_threshold(ds, tfpr)
    for cap_offset in CAP_OFFSETS:
        r = solve_at_cap(ds, tfpr, cap_offset, bins=16)
        assert r.allowed_fp == oallowed
        if np.isinf(ot):
            assert r.degenerate and np.isneginf(r.threshold)
        else:
            assert r.threshold == ot
            assert r.realized_fp == orealized


@pytest.mark.parametrize("bins", [2, 16, 200, 4096])
def test_bin_count_invariance(small_set, bins):
    r = solve_threshold(small_set, 1e-3, bins=bins)
    ref = solve_threshold(small_set, 1e-3, bins=37)
    assert (r.threshold, r.realized_fp, r.allowed_fp) == (ref.threshold, ref.realized_fp, ref.allowed_fp)


def test_threshold_guarantees(small_set):
    # realized strict-greater count never exceeds the floor; including ties crosses it
    for tfpr in (1e-4, 3e-3, 0.05, 0.4):
        r = solve_threshold(small_set, tfpr)
        assert r.realized_fp <= r.allowed_fp
        s = oracle_sims(small_set)
        neg = small_set.identity[:, None] != small_set.identity[None, :]
        np.fill_diagonal(neg, False)
        at_or_above = int(np.sum(s[neg] >= np.float32(r.threshold)))
        assert at_or_above > r.allowed_fp


def test_threshold_worker_invariance(small_set):
    # many slabs raise the shared floor at once in the second dataset: 58 slabs
    # of tile 7, more workers than cores, and the interpreter asked to switch
    # threads every 1 us
    big = random_dataset(np.random.default_rng(7), n=400, d=6, g=80, m=2)
    ot, _, orealized = oracle_threshold(big, 2e-3)
    for cap_offset in CAP_OFFSETS:
        base = solve_at_cap(small_set, 2e-3, cap_offset, bins=200, workers=1)
        for w in (4, 8):
            r = solve_at_cap(small_set, 2e-3, cap_offset, bins=200, workers=w, tile=11)
            assert (r.threshold, r.realized_fp) == (base.threshold, base.realized_fp)

        base = solve_at_cap(big, 2e-3, cap_offset, workers=1, tile=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            r = solve_at_cap(big, 2e-3, cap_offset, workers=8, tile=7)
        finally:
            sys.setswitchinterval(interval)
        assert (r.threshold, r.realized_fp) == (base.threshold, base.realized_fp)
        assert (r.threshold, r.realized_fp) == (ot, orealized)


def test_threshold_massive_ties():
    # one similarity value repeated far beyond any bin's capacity to split
    vecs = np.tile(np.array([[1.0, 2.0, 2.0]], dtype=np.float32), (40, 1))
    ds = EmbeddingSet(vectors=vecs, identity=np.arange(40) // 2,
                      attribute=np.zeros(40, np.int64),
                      labels=LabelTable.default(20, 1))
    for cap_offset in CAP_OFFSETS:
        r = solve_at_cap(ds, 0.5, cap_offset, bins=2)
        # every negative similarity is exactly 1.0: rank selection must return it
        assert r.threshold == 1.0
        assert r.realized_fp == 0  # nothing is strictly greater


@pytest.mark.parametrize("cap", [9, 10, 11, pairwise.COLLECT_CAP])  # k = 10
def test_zero_threshold_sign_is_schedule_free(cap, monkeypatch):
    # a.b = -1e-50 rounds to float32 -0.0 and b.c = +1e-50 to +0.0, so the
    # rank-k value is a zero that either sign could represent
    monkeypatch.setattr(pairwise, "COLLECT_CAP", cap)
    a, b, c = [1e-25, 1.0, 0.0], [-1e-25, 0.0, 1.0], [-1e-25, 1.0, 0.0]
    ds = EmbeddingSet(vectors=np.array([a, a, b, b, c, c], dtype=np.float32),
                      identity=np.arange(6) // 2, attribute=np.zeros(6, np.int64),
                      labels=LabelTable.default(3, 1))
    s = oracle_sims(ds)
    assert math.copysign(1.0, s[0, 2]) == -1.0 and math.copysign(1.0, s[2, 4]) == 1.0
    payloads = set()
    for tile, workers in [(1, 1), (1, 3), (2, 2), (5, 1), (768, 1)]:
        r = solve_threshold(ds, 0.4, tile=tile, workers=workers)
        assert (r.allowed_fp, r.realized_fp) == (9, 8)
        assert r.threshold == 0.0 and math.copysign(1.0, r.threshold) == 1.0
        cfg = metrics.EvalConfig(target_fpr=0.4, k=1, tile=tile, workers=workers)
        payloads.add(metrics.evaluate_dataset(ds, cfg).to_json())
    assert len(payloads) == 1


def test_degenerate_target(small_set):
    r = solve_threshold(small_set, 1.0)
    assert r.degenerate and np.isneginf(r.threshold)
    assert r.realized_fp == r.total_negatives


def test_single_identity_rejected():
    ds = EmbeddingSet(vectors=np.ones((3, 2), dtype=np.float32),
                      identity=np.zeros(3, np.int64), attribute=np.zeros(3, np.int64),
                      labels=LabelTable.default(1, 1))
    with pytest.raises(DegenerateDataError):
        solve_threshold(ds, 1e-3)


def test_bad_target_fpr_rejected(small_set):
    for bad in (0.0, -0.1, 1.5, np.nan):
        with pytest.raises(DomainError):
            solve_threshold(small_set, bad)


def test_histogram_totals(small_set):
    hist = sweep_histogram(small_set, bins=64)
    _, neg = ordered_pair_totals(small_set)
    assert hist.total == neg == int(hist.counts.sum())
    with pytest.raises(DomainError):
        sweep_histogram(small_set, bins=1)


# --- nearest identity means ----------------------------------------------------

def test_topk_matches_sort(small_set):
    mv = mean_vectors(small_set)
    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    sims = mu @ mu.T
    np.fill_diagonal(sims, -np.inf)
    g = sims.shape[0]
    for k in (1, 3, g - 1):
        nb = topk_neighbors(mv, k)
        for i in range(g):
            # stable selection: sort by (-sim, index)
            want = sorted(range(g), key=lambda j: (-sims[i, j], j))[:k]
            assert list(nb[i]) == want


def test_topk_tie_breaks_to_lower_index():
    base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    mv = mean_vectors(EmbeddingSet(
        vectors=base.astype(np.float32),
        identity=np.arange(4), attribute=np.zeros(4, np.int64),
        labels=LabelTable.default(4, 1)))
    nb = topk_neighbors(mv, 2)
    assert list(nb[0]) == [1, 2]  # identities 1,2,3 tie; lower indices win
    assert list(nb[3]) == [1, 2]


def test_neighbor_mean_similarity(small_set):
    mv = mean_vectors(small_set)
    nb = topk_neighbors(mv, 4)
    got = neighbor_mean_similarity(mv, nb)
    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    for i in range(len(mu)):
        want = float(np.mean([mu[i] @ mu[j] for j in nb[i]]))
        assert abs(got[i] - want) < 1e-12


def test_topk_k_out_of_range(small_set):
    mv = mean_vectors(small_set)
    g = len(mv.counts)
    for bad in (0, g, g + 3):
        with pytest.raises(DomainError):
            topk_neighbors(mv, bad)
