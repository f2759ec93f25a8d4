"""Oracle tests for the pairwise engine.

The oracle below recomputes everything with plain per-pair loops from the
documented similarity definition (float64-normalized rows rounded to float32,
per-pair float64 dot products rounded back to float32, clipped to [-1, 1]).
It shares no code with the tiled engine. The engine rounds the exact dot
product instead; the two differ only where a float32 rounding midpoint lies
within float64 error, which the random sets here never reach. The tests of
that difference use `exact_sims`, built from exact rational dot products.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpair import metrics, pairwise, store
from fairpair.errors import DegenerateDataError, DomainError
from fairpair.pairwise import (
    confusion_sweep,
    neighbor_mean_similarity,
    ordered_pair_totals,
    solve_threshold,
    sweep_histogram,
    topk_neighbors,
    unit_rows,
)
from fairpair.store import EmbeddingSet, LabelTable, MeanVectors, mean_vectors

from conftest import CAP_OFFSETS, overflowing_rounds, random_dataset, solve_at_cap, tile_size


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


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 1.0, 0.0],
                                 [1e300, 1.0, 0.0]])
def test_cosine_similarity_rejects_vectors_without_direction(bad):
    # zero, NaN, infinite, and beyond float32's range: no unit row, on either side
    for u, v in ((bad, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], bad)):
        with np.errstate(over="ignore"):  # a float64 beyond float32's range becomes inf
            vectors = np.array([u, v], dtype=np.float32)
        with pytest.raises(DomainError, match="zero or non-finite norm"):
            pairwise.UnitRows(vectors)


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
    with tile_size(small_set.n + 5):
        base = confusion_sweep(small_set, t, workers=1)
    for tile, workers in [(7, 1), (13, 3), (64, 8)]:
        with tile_size(tile):
            acc = confusion_sweep(small_set, t, workers=workers)
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


def fused_matches_full(ds, target, cap_offset=None, tile=768, workers=1):
    """Solve, then check the per-record counts and the counting pass against exact counts.

    Every solve's `record_fp` and `record_tp` must equal each record's FP
    and TP at the threshold, counted from `exact_sims` (n - size and
    size - 1 on a degenerate target), and `record_fp` must sum to
    `realized_fp`; `_count_above` must give each record's TP and FP; and the
    accumulators `confusion_sweep` builds from the solve's counts must equal
    the exact ones. Every pass runs with `tile` as the engine's tile size.
    Returns the solve's result.
    """
    with tile_size(tile):
        r = solve_at_cap(ds, target, cap_offset, workers=workers)
        fp, tp, _ = pairwise._count_above(unit_rows(ds), ds.identity, r.threshold, r.threshold,
                                          workers)
        acc = confusion_sweep(ds, r.threshold, workers=workers, fp=r.record_fp,
                              tp=r.record_tp)
    s = exact_sims_of(ds)
    same = ds.identity[:, None] == ds.identity[None, :]
    pos, neg = same & ~np.eye(ds.n, dtype=bool), ~same
    hit = s > r.threshold
    cells = [pos & hit, neg & hit, neg & ~hit, pos & ~hit]  # TP, FP, TN, FN
    per_record = np.stack([np.count_nonzero(c, axis=1) for c in cells], axis=1)
    assert np.array_equal(r.record_fp, per_record[:, pairwise.FP])
    assert np.array_equal(r.record_tp, per_record[:, pairwise.TP])
    assert int(r.record_fp.sum()) == r.realized_fp
    if r.degenerate:
        size = np.bincount(ds.identity)[ds.identity]
        assert np.array_equal(r.record_fp, ds.n - size)
        assert np.array_equal(r.record_tp, size - 1)
    assert np.array_equal(tp, per_record[:, pairwise.TP])
    assert np.array_equal(fp, per_record[:, pairwise.FP])
    gid = np.zeros((ds.n_identities, 4), dtype=np.int64)
    att = np.zeros((ds.n_attributes, 4), dtype=np.int64)
    np.add.at(gid, ds.identity, per_record)
    np.add.at(att, ds.attribute, per_record)
    assert np.array_equal(acc.identity_counts, gid)
    assert np.array_equal(acc.attribute_counts, att)
    return r


@pytest.mark.parametrize("seed", [0, 1])
def test_fused_counts_match_full_sweep(seed):
    # identities of about 7 records: at tile 7 many exceed the block and are swept alone
    ds = random_dataset(np.random.default_rng(seed), n=90, d=5, g=12, m=3)
    for target in (1e-3, 2e-2, 0.3):
        for cap_offset in CAP_OFFSETS:
            for tile in (7, 37, 768):
                for workers in (1, 3):
                    fused_matches_full(ds, target, cap_offset, tile, workers)


def _edge_set(case):
    rng = np.random.default_rng(9)
    if case == "n2":
        vecs, ident = rng.normal(size=(2, 4)), np.array([0, 1])
    elif case == "all_singletons":  # G = N: the TP pass has no block to sweep
        vecs, ident = rng.normal(size=(40, 5)), np.arange(40)
    elif case == "identity_over_tile":  # 25 records of identity 0, more than tile 7
        vecs = rng.normal(size=(60, 5))
        ident = np.concatenate([np.zeros(25, np.int64), 1 + np.arange(35) % 9])
        rng.shuffle(ident)
    elif case == "duplicates_across_identities":  # negatives at exactly 1.0
        vecs = rng.normal(size=(5, 6))[rng.integers(0, 5, size=50)]
        ident = np.arange(50) % 13
    else:  # "ties_only": one vector, every similarity the same
        vecs, ident = np.tile([[1.0, 2.0, 2.0]], (30, 1)), np.arange(30) // 3
    g = int(ident.max()) + 1
    return EmbeddingSet(vectors=vecs.astype(np.float32), identity=ident.astype(np.int64),
                        attribute=(ident % 2).astype(np.int64),
                        labels=LabelTable.default(g, 2))


@pytest.mark.parametrize("case", ["n2", "all_singletons", "identity_over_tile",
                                  "duplicates_across_identities", "ties_only"])
def test_fused_counts_edge_cases(case):
    ds = _edge_set(case)
    for target in (1e-3, 0.05, 0.3, 0.7, 1.0):
        for tile in (7, 37, 768):
            for workers in (1, 3):
                fused_matches_full(ds, target, None, tile, workers)


def test_fused_counts_under_thread_switching():
    # the slabs of the identity larger than the tile add into the same
    # records' counts; 8 workers switching every 1 us must lose no update
    ds = _edge_set("identity_over_tile")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for target in (0.05, 0.3):
            fused_matches_full(ds, target, None, 7, 8)
    finally:
        sys.setswitchinterval(interval)


def test_evaluation_makes_no_pass_after_the_solve(small_set, monkeypatch):
    # every solve returns each record's FP and TP, so the confusion sweep given
    # both makes no pass, and without them one pass counts both
    passes = []
    count_above = pairwise._count_above

    def spy(u32, ids, lo, hi, workers):
        passes.append(hi)
        return count_above(u32, ids, lo, hi, workers)

    monkeypatch.setattr(pairwise, "_count_above", spy)
    r = solve_threshold(small_set, 0.3)
    confusion_sweep(small_set, r.threshold, fp=r.record_fp, tp=r.record_tp)
    assert passes == []
    confusion_sweep(small_set, r.threshold, fp=r.record_fp)
    assert passes == [r.threshold]
    passes.clear()
    for target in (0.3, 1.0):
        metrics.evaluate_dataset(small_set, metrics.EvalConfig(target_fpr=target, k=3))
    assert passes == []


def test_every_screened_tile_is_one_columns_call(monkeypatch):
    # the bracketed solve and the counting pass screen each tile, the
    # diagonal one too, through UnitRows.columns and nothing else
    ds = random_dataset(np.random.default_rng(6), n=90, d=6, g=9, m=2)
    tile, calls = 8, []
    columns = pairwise.UnitRows.columns

    def spy(self, slab, key):
        calls.append(len(slab))
        return columns(self, slab, key)

    def triangle(rows):  # the tiles j0 >= i0 of a half sweep over `rows` positions
        b = -(-rows // tile)
        return b * (b + 1) // 2

    monkeypatch.setattr(pairwise.UnitRows, "columns", spy)
    monkeypatch.setattr(pairwise, "TILE", tile)
    rows = pairwise.UnitRows(ds.vectors)
    r = solve_threshold(ds, 0.05)
    assert len(calls) == triangle(ds.n)
    calls.clear()
    pairwise._count_above(rows, ds.identity, r.threshold, r.threshold, 1)
    assert len(calls) == triangle(ds.n)


# --- threshold solver ---------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       tfpr=st.sampled_from([1e-4, 1e-3, 1e-2, 0.3, 1.0]))
def test_threshold_matches_oracle(seed, tfpr):
    ds = random_dataset(np.random.default_rng(seed), n=50, d=5, g=8, m=2)
    ot, oallowed, orealized = oracle_threshold(ds, tfpr)
    pos = (ds.identity[:, None] == ds.identity[None, :]) & ~np.eye(ds.n, dtype=bool)
    otp = np.count_nonzero(pos & (oracle_sims(ds) > np.float32(ot)), axis=1)
    for cap_offset in CAP_OFFSETS:
        r = solve_at_cap(ds, tfpr, cap_offset)
        assert r.allowed_fp == oallowed
        assert np.array_equal(r.record_tp, otp)
        if np.isinf(ot):
            assert r.degenerate and np.isneginf(r.threshold)
        else:
            assert r.threshold == ot
            assert r.realized_fp == orealized


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
        base = solve_at_cap(small_set, 2e-3, cap_offset, workers=1)
        for w in (4, 8):
            with tile_size(11):
                r = solve_at_cap(small_set, 2e-3, cap_offset, workers=w)
            assert (r.threshold, r.realized_fp) == (base.threshold, base.realized_fp)

        interval = sys.getswitchinterval()
        with tile_size(7):
            base = solve_at_cap(big, 2e-3, cap_offset, workers=1)
            sys.setswitchinterval(1e-6)
            try:
                r = solve_at_cap(big, 2e-3, cap_offset, workers=8)
            finally:
                sys.setswitchinterval(interval)
        assert (r.threshold, r.realized_fp) == (base.threshold, base.realized_fp)
        assert (r.threshold, r.realized_fp) == (ot, orealized)


def test_shared_tile_split_matches_one_worker():
    # 2, 3 and 5 workers split every tile's rows, on every cap route: the solve
    # and the counting pass (confusion_sweep without the solve's counts runs
    # `_count_above`) must give one worker's results. 260 records leave a
    # last slab of one row at tiles 7 and 37, fewer rows than workers
    ds = random_dataset(np.random.default_rng(21), n=260, d=6, g=52, m=2)
    for tile in (7, 37, 768):
        with tile_size(tile):
            for cap_offset in CAP_OFFSETS:
                base = solve_at_cap(ds, 2e-2, cap_offset, workers=1)
                for w in (2, 3, 5):
                    assert _same_result(solve_at_cap(ds, 2e-2, cap_offset, workers=w), base)
            want = confusion_sweep(ds, base.threshold, workers=1)
            for w in (2, 3, 5):
                acc = confusion_sweep(ds, base.threshold, workers=w)
                assert np.array_equal(acc.identity_counts, want.identity_counts)
                assert np.array_equal(acc.attribute_counts, want.attribute_counts)


def test_row_ranges_of_the_diagonal_tile_give_each_pair_once():
    # the diagonal tile of records 40..69 cut into k row ranges, as the
    # workers cut it: every pair i < j once, of every kind or negatives
    # only, on the dense and the sparse selection
    rng = np.random.default_rng(22)
    n, i0 = 30, 40
    ids = rng.integers(0, 5, size=i0 + n)
    s = rng.uniform(-1, 1, size=(n, n)).astype(np.float32)
    for where in (None, rng.random(s.shape) < 0.5, rng.random(s.shape) < 0.03):
        for negatives in (True, False):
            want = {(i, j) for i in range(i0, i0 + n) for j in range(i + 1, i0 + n)
                    if (where is None or where[i - i0, j - i0])
                    and (not negatives or ids[i] != ids[j])}
            for k in (1, 2, 3, 7, n):
                cuts = [n * p // k for p in range(k + 1)]
                got = []
                for a, b in zip(cuts, cuts[1:]):
                    part = None if where is None else where[a:b]
                    r, c = np.divmod(pairwise._pairs(s[a:b], ids, i0 + a, i0, part, negatives), n)
                    got += zip((i0 + a + r).tolist(), (i0 + c).tolist())
                assert len(got) == len(set(got)) and set(got) == want


def test_solve_memory_flat_in_workers():
    # eval-loose's shape: each worker used to hold its own 768 x 768 tile and
    # its selection, so 4 workers peaked at about twice one worker's
    ds = random_dataset(np.random.default_rng(5), n=6400, d=128, g=3200, m=2)
    peaks, results = {}, {}
    for w in (1, 4):
        tracemalloc.start()
        try:
            results[w] = solve_threshold(ds, 1e-2, workers=w)
            _, peaks[w] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert _same_result(results[4], results[1])
    assert peaks[4] <= peaks[1] + 2**20, f"{peaks[1] / 2**20:.2f} -> {peaks[4] / 2**20:.2f} MiB"


def _full_sweep(ds, target, **kw):
    """solve_threshold with no pivots: every pair that is not sure goes to the band."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairwise, "_pivots", lambda rows, ids, k: (-math.inf, math.inf))
        return solve_threshold(ds, target, **kw)


def _same_result(r, want):
    return (r == want and np.array_equal(r.record_fp, want.record_fp)
            and np.array_equal(r.record_tp, want.record_tp))


@pytest.mark.parametrize("workers", [1, 3])
def test_wrong_guess_runs_the_sweep_again(workers, monkeypatch):
    # pivots that miss t are widened toward it, and a band over COLLECT_CAP
    # narrows its pivots: one more round gives the same result. A power-of-two
    # scale keeps every unit row, so the guard path must agree too.
    ds = random_dataset(np.random.default_rng(11), n=300, d=6, g=60, m=2)
    guarded = EmbeddingSet(vectors=ds.vectors * np.float32(2.0**70), identity=ds.identity,
                           attribute=ds.attribute, labels=ds.labels)
    assert pairwise.UnitRows(guarded.vectors).scale is None
    monkeypatch.setattr(pairwise, "TILE", 16)
    want = _full_sweep(ds, 1e-2, workers=workers)
    t = np.float32(want.threshold)
    above, below = (float(np.nextafter(t, np.float32(x))) for x in (2, -2))
    runs = overflowing_rounds(monkeypatch)
    for data in (ds, guarded):
        assert _same_result(solve_threshold(data, 1e-2, workers=workers), want)
        assert runs == []  # the sampled pivots hold t
        # g_lo just above t; g_hi just below it; every pair in a band of
        # under a tenth of them, but at least k
        pairs = ds.n * (ds.n - 1) // 2
        for pivots, cap in (((above, math.inf), None), ((-1.0, below), None),
                            ((-math.inf, math.inf), pairs // 10)):
            with monkeypatch.context() as mp:
                mp.setattr(pairwise, "_pivots", lambda rows, ids, k: pivots)
                if cap is not None:
                    mp.setattr(pairwise, "COLLECT_CAP", cap)
                calls, columns = [], pairwise.UnitRows.columns
                mp.setattr(pairwise.UnitRows, "columns",
                           lambda self, slab, key: calls.append(key) or columns(self, slab, key))
                r = solve_threshold(data, 1e-2, workers=workers)
            assert _same_result(r, want)
            # two whole sweeps: the round that missed or overflowed, and the
            # certified one; only the band over the cap was binned
            b = -(-ds.n // 16)
            assert len(calls) == 2 * (b * (b + 1) // 2)
            assert len(runs) == (cap is not None)
            runs.clear()


def test_sampled_floor_buffers_under_twice_k(monkeypatch):
    # at FPR 1e-2 the band between the sampled pivots holds under 2k pairs,
    # where with no pivots it would hold every pair
    ds = random_dataset(np.random.default_rng(12), n=1500, d=24, g=500, m=2)
    k = (int(Fraction(1e-2) * ordered_pair_totals(ds)[1]) + 2) // 2
    hi, band = [], []
    pivots, sweep = pairwise._pivots, pairwise._sweep

    def spy_pivots(rows, ids, k):
        g = pivots(rows, ids, k)
        hi.append(pairwise._f32_out(g[1] + rows.delta, up=True))
        return g

    def spy_sweep(rows, ids, lo, workers, visit):
        def counted(i, j, v, same):
            band.append(int(np.count_nonzero(v <= hi[0])))
            return visit(i, j, v, same)
        return sweep(rows, ids, lo, workers, counted)

    monkeypatch.setattr(pairwise, "_pivots", spy_pivots)
    monkeypatch.setattr(pairwise, "_sweep", spy_sweep)
    with tile_size(128):
        r = solve_threshold(ds, 1e-2)
    assert hi[0] < 1 and 0 < sum(band) < 2 * k
    monkeypatch.undo()
    with tile_size(128):
        assert _same_result(r, _full_sweep(ds, 1e-2))


def test_bracket_serves_ranks_over_the_cap(monkeypatch):
    # with COLLECT_CAP below k but above the band, the first band fits at
    # every rank: no round narrows, and the result equals the one narrowed to
    # an exact key at cap 0 on both schedules. A tie group over the cap
    # narrows to its exact key
    ds = random_dataset(np.random.default_rng(14), n=1500, d=24, g=500, m=2)
    runs = overflowing_rounds(monkeypatch)
    for target in (0.05, 0.3, 0.6, 0.9):
        want = solve_at_cap(ds, target, -1)
        runs.clear()
        for tile, workers in ((768, 1), (7, 3)):
            with monkeypatch.context() as mp, tile_size(tile):
                mp.setattr(pairwise, "COLLECT_CAP", want.allowed_fp)  # k - 1
                r = solve_threshold(ds, target, workers=workers)
            assert runs == []
            assert _same_result(r, want)
    # four distinct vectors: each of the 7 values is shared by 136 or 264
    # unordered negatives, so the band around any rank overflows a cap of 100
    base = np.random.default_rng(5).normal(size=(4, 6)).astype(np.float32)
    ties = EmbeddingSet(vectors=base[np.arange(48) % 4], identity=np.arange(48) // 3,
                        attribute=np.zeros(48, np.int64), labels=LabelTable.default(16, 1))
    monkeypatch.setattr(pairwise, "COLLECT_CAP", 100)
    for target in (0.2, 0.6):
        ot, oallowed, orealized = oracle_threshold(ties, target)
        r = solve_threshold(ties, target)
        assert runs[-1] == (ot, ot)
        assert (r.allowed_fp, r.threshold, r.realized_fp) == (oallowed, ot, orealized)
        assert _same_result(r, fused_matches_full(ties, target, -1))
        runs.clear()


def test_band_over_the_cap_narrows_in_two_rounds(monkeypatch):
    # distinct values: the first band passes a cap of 100 and is binned, the
    # bin holding the rank gives pivots whose band fits, and the second round
    # is certified. No exact round runs, and the result is the default one's
    ds = random_dataset(np.random.default_rng(14), n=1500, d=24, g=500, m=2)
    want = solve_threshold(ds, 1e-2)
    sweeps, sweep = [], pairwise._sweep
    monkeypatch.setattr(pairwise, "_sweep", lambda *args: sweeps.append(args[2]) or sweep(*args))
    monkeypatch.setattr(pairwise, "_count_above", None)  # an exact round would fail
    monkeypatch.setattr(pairwise, "COLLECT_CAP", 100)
    runs = overflowing_rounds(monkeypatch)
    r = solve_threshold(ds, 1e-2)
    assert _same_result(r, want)
    assert len(sweeps) == 2 and sweeps[0] < sweeps[1]
    assert len(runs) == 1 and runs[0][0] < runs[0][1]


@pytest.mark.parametrize("seed", [0, 1])
def test_no_solve_reaches_exact_counts(seed, monkeypatch):
    # the exact whole-tile count serves only the histogram: no route of the
    # solve computes every tile, ties or none, whatever the cap
    monkeypatch.setattr(pairwise, "_exact_counts", None)
    base = np.random.default_rng(seed).normal(size=(4, 6)).astype(np.float32)
    ties = EmbeddingSet(vectors=base[np.arange(48) % 4], identity=np.arange(48) // 3,
                        attribute=np.zeros(48, np.int64), labels=LabelTable.default(16, 1))
    plain = random_dataset(np.random.default_rng(seed), n=120, d=8, g=20, m=2)
    for ds in (ties, plain):
        for target in (1e-3, 0.05, 0.5, 1.0):
            for cap_offset in CAP_OFFSETS:
                r = solve_at_cap(ds, target, cap_offset)
                assert r.realized_fp == oracle_threshold(ds, target)[2]


def _mask_pairs(s, ids, i0, j0, where=None, negatives=True):
    """The pair selector as a whole-tile mask: identities compared everywhere, np.triu."""
    mask = np.ones(s.shape, dtype=bool)
    if negatives:
        mask = ids[i0:i0 + len(s), None] != ids[None, j0:j0 + s.shape[1]]
    if where is not None:
        mask &= where
    return np.flatnonzero(np.triu(mask, 1) if i0 == j0 else mask)


def test_pairs_match_mask_procedure():
    # unclipped tiles compared with an edge f: s >= f for f > -1 and s > f for
    # f >= -1, every entry otherwise, must pick what the clipped tile picks;
    # negatives only and every pair, on the sparse and the dense selection,
    # with int64 and int32 identities
    rng = np.random.default_rng(13)
    ids = rng.integers(0, 6, size=60)
    for i0, j0, h, w in ((0, 0, 20, 20), (20, 20, 20, 25), (0, 20, 20, 40), (40, 45, 13, 15)):
        s = rng.uniform(-1.0003, 1.0003, size=(h, w)).astype(np.float32)
        ends = rng.random(size=s.shape) < 0.04
        s[ends] = rng.choice(np.float32([-1, 1, -1.0001, 1.0001]), size=int(ends.sum()))
        c = np.clip(s, -1.0, 1.0)
        for kinds in (ids, pairwise._narrow(ids)):
            for negatives in (True, False):
                want = _mask_pairs(c, ids, i0, j0, None, negatives)
                assert np.array_equal(pairwise._pairs(s, kinds, i0, j0, None, negatives), want)
                for share in (0.01, 0.4):
                    where = rng.random(size=s.shape) < share
                    want = _mask_pairs(c, ids, i0, j0, where, negatives)
                    got = pairwise._pairs(s, kinds, i0, j0, where, negatives)
                    assert np.array_equal(got, want)
                # dense and sparse selections, and the clipped ends
                for f in (-1.5, np.nextafter(np.float32(-1), np.float32(-2)), -1.0, -0.999,
                          0.0, 0.5, 0.95, 1.0):
                    f = np.float32(f)
                    want = _mask_pairs(c, ids, i0, j0, c >= f, negatives)
                    got = pairwise._pairs(s, kinds, i0, j0, s >= f if f > -1 else None,
                                          negatives)
                    assert np.array_equal(got, want)
                    want = _mask_pairs(c, ids, i0, j0, c > f, negatives)
                    got = pairwise._pairs(s, kinds, i0, j0, s > f if f >= -1 else None,
                                          negatives)
                    if f < 1:
                        assert np.array_equal(got, want)
                    else:  # more than the clipped tile: callers clip what they gather
                        assert np.isin(want, got).all()


def test_threshold_massive_ties():
    # one similarity value repeated far beyond any bin's capacity to split
    vecs = np.tile(np.array([[1.0, 2.0, 2.0]], dtype=np.float32), (40, 1))
    ds = EmbeddingSet(vectors=vecs, identity=np.arange(40) // 2,
                      attribute=np.zeros(40, np.int64),
                      labels=LabelTable.default(20, 1))
    for cap_offset in CAP_OFFSETS:
        r = fused_matches_full(ds, 0.5, cap_offset)
        # every negative similarity is exactly 1.0: rank selection must return it
        assert r.threshold == 1.0
        assert r.realized_fp == 0  # nothing is strictly greater


@pytest.mark.parametrize("cap", [9, 10, 11, pairwise.COLLECT_CAP])  # k = 10
def test_zero_threshold_sign_is_schedule_free(cap, monkeypatch):
    # a.b = -1e-50 rounds to float32 -0.0 and b.c = +1e-50 to +0.0, so the
    # rank-k value is a zero that either sign could represent. At cap 9 no
    # pivots are read, so every one of the 15 pairs joins the band, which
    # overflows the cap and narrows to the band of the 8 zeros; every other
    # cap holds that band at once
    monkeypatch.setattr(pairwise, "COLLECT_CAP", cap)
    runs = overflowing_rounds(monkeypatch)
    if cap < 10:
        monkeypatch.setattr(pairwise, "_pivots", lambda rows, ids, k: (-math.inf, math.inf))
    a, b, c = [1e-25, 1.0, 0.0], [-1e-25, 0.0, 1.0], [-1e-25, 1.0, 0.0]
    ds = EmbeddingSet(vectors=np.array([a, a, b, b, c, c], dtype=np.float32),
                      identity=np.arange(6) // 2, attribute=np.zeros(6, np.int64),
                      labels=LabelTable.default(3, 1))
    s = oracle_sims(ds)
    assert math.copysign(1.0, s[0, 2]) == -1.0 and math.copysign(1.0, s[2, 4]) == 1.0
    payloads = set()
    for tile, workers in [(1, 1), (1, 3), (2, 2), (5, 1), (768, 1)]:
        with tile_size(tile):
            r = solve_threshold(ds, 0.4, workers=workers)
            cfg = metrics.EvalConfig(target_fpr=0.4, k=1, workers=workers)
            payloads.add(metrics.evaluate_dataset(ds, cfg).to_json())
        assert (r.allowed_fp, r.realized_fp) == (9, 8)
        assert r.threshold == 0.0 and math.copysign(1.0, r.threshold) == 1.0
    assert len(payloads) == 1
    assert len(runs) == (10 if cap < 10 else 0)  # one round in each of two solves on 5 schedules


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
    counts = sweep_histogram(small_set, bins=64)
    _, neg = ordered_pair_totals(small_set)
    assert counts.dtype == np.int64 and int(counts.sum()) == neg
    s = oracle_sims(small_set)
    mask = small_set.identity[:, None] != small_set.identity[None, :]
    want, _ = np.histogram(s[mask].astype(np.float64), bins=np.linspace(-1.0, 1.0, 65))
    assert np.array_equal(counts, want)
    with pytest.raises(DomainError):
        sweep_histogram(small_set, bins=1)


# --- nearest identity means ----------------------------------------------------

def _tied_means(g=40, seed=1):
    """Means along a few directions whose unit vectors and cosines are exact: many ties."""
    rng = np.random.default_rng(seed)
    dirs = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0],
                     [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]], dtype=np.float64)
    means = dirs[rng.integers(0, len(dirs), g)] * rng.integers(1, 4, size=(g, 1))
    return MeanVectors(means=means, counts=np.ones(g, dtype=np.int64))


def test_topk_matches_sort(small_set, monkeypatch):
    # blocks of 7 rows split the tie runs of the tied set across block edges
    for mv, every_k in ((mean_vectors(small_set), False), (_tied_means(), True)):
        mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
        sims = mu @ mu.T
        np.fill_diagonal(sims, -np.inf)
        g = sims.shape[0]
        for k in range(1, g) if every_k else (1, 3, g - 1):
            for block in (512, 7):
                monkeypatch.setattr(pairwise, "NEIGHBOR_BLOCK", block)
                nb = topk_neighbors(mv, k)
                for i in range(g):
                    # stable selection: sort by (-sim, index)
                    want = sorted(range(g), key=lambda j: (-sims[i, j], j))[:k]
                    assert list(nb[i]) == want


def test_topk_tie_breaks_to_lower_index(monkeypatch):
    base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    mv = mean_vectors(EmbeddingSet(
        vectors=base.astype(np.float32),
        identity=np.arange(4), attribute=np.zeros(4, np.int64),
        labels=LabelTable.default(4, 1)))
    for block in (512, 3):
        monkeypatch.setattr(pairwise, "NEIGHBOR_BLOCK", block)
        nb = topk_neighbors(mv, 2)
        assert list(nb[0]) == [1, 2]  # identities 1,2,3 tie; lower indices win
        assert list(nb[3]) == [1, 2]
    # 40 identities on six directions: the first K of each run of equal means win
    mv = _tied_means()
    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    for i in (0, 39):
        same = [j for j in range(40) if j != i and np.array_equal(mu[j], mu[i])]
        for block in (512, 7):
            monkeypatch.setattr(pairwise, "NEIGHBOR_BLOCK", block)
            assert list(topk_neighbors(mv, 3)[i]) == same[:3]


def test_neighbor_mean_similarity(small_set):
    mv = mean_vectors(small_set)
    nb = topk_neighbors(mv, 4)
    got = neighbor_mean_similarity(mv, nb)
    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    for i in range(len(mu)):
        want = float(np.mean([mu[i] @ mu[j] for j in nb[i]]))
        assert abs(got[i] - want) < 1e-12


def test_zero_mean_rejected():
    # identity 0 holds v and -v, so its mean is exactly zero and has no direction
    v = np.array([[1.0, 2.0], [-1.0, -2.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    ds = EmbeddingSet(vectors=v, identity=np.array([0, 0, 1, 2]),
                      attribute=np.zeros(4, np.int64), labels=LabelTable.default(3, 1))
    mv = mean_vectors(ds)
    for call in (lambda: topk_neighbors(mv, 1),
                 lambda: neighbor_mean_similarity(mv, np.array([[1], [2], [1]])),
                 lambda: metrics.intra_inter_similarity(ds, mv, 1)):
        with pytest.raises(DegenerateDataError, match="identity 0 has a zero mean"):
            call()


def _top_columns_by_mask(sims, i0, k):
    """The reference: the K-th value from `np.partition`, every entry above it,
    then each row's lowest-index ties until it holds K; largest first."""
    b, g = sims.shape
    own = np.arange(b)
    sims[own, i0 + own] = -np.inf
    kth = np.partition(sims, g - k, axis=1)[:, g - k].copy()
    take = sims > kth[:, None]
    r, c = np.nonzero(sims == kth[:, None])
    fill = np.arange(r.size) - np.searchsorted(r, r) < (k - np.count_nonzero(take, axis=1))[r]
    take[r[fill], c[fill]] = True
    cols = np.nonzero(take)[1].reshape(b, k)
    order = np.argsort(-np.take_along_axis(sims, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def test_top_columns_match_mask_procedure():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(300):
        g = int(rng.integers(2, 40))
        b = int(rng.integers(1, g + 1))
        levels = int(rng.integers(1, 5))  # few values: ties straddle the K-th one
        sims = rng.integers(-levels, levels + 1, size=(b, g)) / levels
        sims[rng.random(sims.shape) < 0.1] = -0.0
        cases.append((sims, int(rng.integers(0, g - b + 1)), int(rng.integers(1, g))))
    g = 12
    for k in (1, g - 1):
        cases += [(np.ones((5, g)), 7, k),  # all-equal rows
                  (rng.normal(size=(g, g)), 0, k),
                  (np.repeat(rng.normal(size=(1, g)), 4, axis=0), 3, k)]
    for sims, i0, k in cases:
        want = _top_columns_by_mask(sims.copy(), i0, k)
        assert np.array_equal(pairwise._top_columns(sims.copy(), i0, k), want)


def test_floor_first_pick_matches_mask_procedure(monkeypatch):
    # rows wide enough that the columns are halved before the floor is read:
    # G not a power of two, all-equal rows, K = G - 1, +-0.0 ties across the
    # floor, and the neighbour pass on one-row sub-blocks
    rng = np.random.default_rng(9)
    cases = []
    for g in (67, 200, 1001):
        for k in (1, 2, 5, g // 8, g - 1):
            levels = int(rng.integers(1, 4))
            sims = rng.integers(-levels, levels + 1, size=(9, g)) / levels
            sims[rng.random(sims.shape) < 0.2] = -0.0
            cases += [(sims, int(rng.integers(0, g - 8)), k),
                      (np.full((4, g), 0.25), g - 4, k),
                      (rng.normal(size=(3, g)), 1, k)]
    for sims, i0, k in cases:
        want = _top_columns_by_mask(sims.copy(), i0, k)
        assert np.array_equal(pairwise._top_columns(sims.copy(), i0, k), want)
    mv = _tied_means(g=300, seed=2)
    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    for k in (1, 7, 299):
        want = _top_columns_by_mask(mu @ mu.T, 0, k)
        for budget in (store.WORKING_SET, 1):
            with monkeypatch.context() as mp:
                mp.setattr(store, "WORKING_SET", budget)
                mp.setattr(pairwise, "NEIGHBOR_BLOCK", 64)
                nb, mean = pairwise._neighbor_pass(mu, k)
                _, means_only = pairwise._neighbor_pass(mu, k, table=False)
            assert np.array_equal(nb, want)
            assert means_only.tobytes() == mean.tobytes()


def test_values_pick_keeps_column_pick_bits(monkeypatch):
    # s_inter from the K largest values must keep the bits of the mean over
    # the K columns: exact zeros (orthogonal -1/0/1 means, -0.0 components)
    # tied across the floor, duplicate and all-equal means, K = 1 and G - 1,
    # G < 8K (the floor is the K-th largest entry itself) and one-row
    # sub-blocks
    rng = np.random.default_rng(12)
    cases = []
    for g in (9, 40, 150, 301):
        v = rng.integers(-1, 2, size=(g, 4)).astype(np.float64)
        v[~v.any(axis=1), 0] = 1.0
        v[v == 0.0] *= -1.0  # -0.0
        v[rng.random(g) < 0.3] = v[0]
        for k in sorted({1, 2, g // 8 + 1, g // 3, g - 1}):
            cases += [(v, k), (np.ones((g, 3)), k)]
    v = rng.normal(size=(1001, 16))
    cases += [(v, 50), (v, 125), (v, 126)]  # G > 8K, G = 8K + 1, G < 8K
    for v, k in cases:
        mu = v / np.linalg.norm(v, axis=1, keepdims=True)
        for budget in (store.WORKING_SET, 1):
            with monkeypatch.context() as mp:
                mp.setattr(store, "WORKING_SET", budget)
                want = pairwise._neighbor_pass(mu, k)[1]
                got = pairwise._neighbor_pass(mu, k, table=False)[1]
            assert got.tobytes() == want.tobytes(), (len(v), k, budget)
    # on entries with +-0.0 ties each row holds the column pick's values, in
    # its order; only the signs of tied zeros may differ
    for _ in range(200):
        g = int(rng.integers(2, 60))
        b = int(rng.integers(1, g + 1))
        levels = int(rng.integers(1, 4))
        sims = rng.integers(-levels, levels + 1, size=(b, g)) / levels
        sims[rng.random(sims.shape) < 0.2] = -0.0
        i0, k = int(rng.integers(0, g - b + 1)), int(rng.integers(1, g))
        cols = pairwise._top_columns(sims.copy(), i0, k)
        got = pairwise._top_values(sims.copy(), i0, k)
        sims[np.arange(b), i0 + np.arange(b)] = -np.inf
        assert got.flags.c_contiguous and got.shape == (b, k)
        assert np.array_equal(got, np.take_along_axis(sims, cols, axis=1))
    # whole 128-row blocks, as the neighbour pass partitions them,
    # at G = 1,001 and 3,204 (not multiples of 128), on tied and untied means,
    # and the pass itself on blocks of 4 and 64 rows
    for g in (1001, 3204):
        tied = rng.integers(-1, 2, size=(g, 8)).astype(np.float64)
        tied[~tied.any(axis=1), 0] = 1.0
        for v in (tied, rng.normal(size=(g, 16))):
            mu = v / np.linalg.norm(v, axis=1, keepdims=True)
            for k in (1, 50, 1000):  # K = G - 1 at 1,001
                for i0 in (0, 128, g - 128):
                    sims = mu[i0:i0 + 128] @ mu.T
                    cols = pairwise._top_columns(sims.copy(), i0, k)
                    got = pairwise._top_values(sims.copy(), i0, k)
                    sims[np.arange(128), i0 + np.arange(128)] = -np.inf
                    want = np.take_along_axis(sims, cols, axis=1)
                    assert got.flags.c_contiguous and np.array_equal(got, want)
                    assert got.mean(axis=1).tobytes() == want.mean(axis=1).tobytes()
                for block in (4, 64):
                    with monkeypatch.context() as mp:
                        mp.setattr(pairwise, "NEIGHBOR_BLOCK", block)
                        want = pairwise._neighbor_pass(mu, k)[1]
                        got = pairwise._neighbor_pass(mu, k, table=False)[1]
                    assert got.tobytes() == want.tobytes(), (g, k, block)


def test_neighbor_block_keeps_bits(monkeypatch):
    # 1,000 identities leave a short last block at 128 and at 512 rows. Blocks
    # of a multiple of 4 rows give the bits of one product of all G rows;
    # other row counts move them under Haswell's dgemm, which CI runs this
    # file on. G is a multiple of 8: past that, SkylakeX's edge columns follow
    # the partition whatever the block (`_neighbor_pass`)
    rng = np.random.default_rng(11)
    mu = rng.normal(size=(1000, 128))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    want = pairwise._neighbor_pass(mu, 50)
    for block in (512, len(mu)):
        monkeypatch.setattr(pairwise, "NEIGHBOR_BLOCK", block)
        for a, b in zip(pairwise._neighbor_pass(mu, 50), want):
            assert a.tobytes() == b.tobytes(), f"{block}-row blocks"


def test_topk_k_out_of_range(small_set):
    mv = mean_vectors(small_set)
    g = len(mv.counts)
    for bad in (0, g, g + 3):
        with pytest.raises(DomainError):
            topk_neighbors(mv, bad)


# --- working-set budget ----------------------------------------------------------

def _tied_set():
    """One record per tied mean (small integers, exact in float32)."""
    mv = _tied_means()
    g = len(mv.counts)
    return EmbeddingSet(vectors=mv.means.astype(np.float32), identity=np.arange(g),
                        attribute=np.zeros(g, np.int64), labels=LabelTable.default(g, 1))


def _budget_outputs(ds):
    mv = mean_vectors(ds)
    return (unit_rows(ds), mv.means, *metrics.intra_inter_similarity(ds, mv, 3),
            topk_neighbors(mv, 3))


def test_budget_does_not_change_values(small_set, monkeypatch):
    # one-row chunks and one-row neighbour sub-blocks against one chunk for all
    for ds in (small_set, _tied_set()):
        want = _budget_outputs(ds)
        with monkeypatch.context() as mp:
            mp.setattr(store, "WORKING_SET", 1)
            assert store.budget_rows(ds.dim) == 1
            got = _budget_outputs(ds)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_chunked_phases_stay_within_budget():
    # 6,000 x 256: one 4,096-row float64 chunk alone is 8 MiB
    ds = random_dataset(np.random.default_rng(3), n=6000, d=256, g=100, m=2)
    mv = mean_vectors(ds)
    for call in (lambda: (unit_rows(ds),), lambda: (mean_vectors(ds).means,),
                 lambda: metrics.intra_inter_similarity(ds, mv, 5)):
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = peak - sum(a.nbytes for a in out)
        assert scratch < 3 * store.WORKING_SET, f"{scratch / 2**20:.2f} MiB of scratch"


def test_similarity_scratch_beyond_one_gemm_block():
    # 1,200 identities: one NEIGHBOR_BLOCK-row float64 block of cosines is
    # 1.2 MiB, and the neighbour pick and the S_intra chunks must fit beside
    # it, the unit means and the outputs in under one WORKING_SET more
    ds = random_dataset(np.random.default_rng(5), n=2400, d=64, g=1200, m=2)
    mv = mean_vectors(ds)
    # the unit means and one block
    held = mv.means.nbytes + pairwise.NEIGHBOR_BLOCK * ds.n_identities * 8
    tracemalloc.start()
    try:
        out = metrics.intra_inter_similarity(ds, mv, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = peak - held - sum(a.nbytes for a in out)
    assert scratch < store.WORKING_SET, f"{scratch / 2**20:.2f} MiB of scratch"


def test_similarity_peak_on_many_identities():
    # eval-loose's shape, 3,200 identities: a 512-row float64 block of
    # cosines alone is 12.5 MiB, a 128-row one 3.1 MiB, and the block sets
    # the analysis's peak
    ds = random_dataset(np.random.default_rng(5), n=6400, d=128, g=3200, m=2)
    mv = mean_vectors(ds)
    tracemalloc.start()
    try:
        metrics.intra_inter_similarity(ds, mv, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"{peak / 2**20:.2f} MiB peak"


def test_tied_rows_stay_within_twice_the_budget():
    # 3,200 equal means: every entry of a row ties with its K-th largest. The
    # values pick partitions each block in place; a pick that packed every
    # entry at or above a floor on whole 128-row blocks peaked at 25 MiB
    g = 3200
    mu = np.full((g, 8), 8 ** -0.5)
    tracemalloc.start()
    try:
        _, mean = pairwise._neighbor_pass(mu, 50, table=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = peak - pairwise.NEIGHBOR_BLOCK * g * 8 - mean.nbytes
    assert scratch < 2 * store.WORKING_SET, f"{scratch / 2**20:.2f} MiB of scratch"


def test_tied_rows_values_pick_scratch_below_column_pick():
    # 3,200 equal means: every column passes the column pick's floor, and it
    # packs four G-wide 8-byte arrays and a mask per row of each
    # `budget_rows(4 G)` sub-block. The values pick partitions each block in
    # place and holds two (b, K) arrays (`_neighbor_pass`)
    g = 3200
    mu = np.full((g, 8), 8 ** -0.5)
    scratch = {}
    for table in (False, True):
        tracemalloc.start()
        try:
            out = pairwise._neighbor_pass(mu, 50, table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = pairwise.NEIGHBOR_BLOCK * g * 8 + sum(a.nbytes for a in out if a is not None)
        scratch[table] = peak - held
    assert scratch[False] < scratch[True], f"{scratch[False] / 2**20:.2f} MiB of scratch"
    assert scratch[False] < store.WORKING_SET, f"{scratch[False] / 2**20:.2f} MiB of scratch"


def test_values_pass_holds_one_block_and_its_output():
    # the values pick partitions each GEMM block in place, so beyond the block
    # and the output it holds two (b, K) arrays, on tied rows too: 3,200 equal
    # means took 1.54 MiB more when the pick packed the entries above a floor
    g = 3200
    v = np.random.default_rng(5).normal(size=(g, 128))
    for mu in (np.full((g, 8), 8 ** -0.5), v / np.linalg.norm(v, axis=1, keepdims=True)):
        tracemalloc.start()
        try:
            _, mean = pairwise._neighbor_pass(mu, 50, table=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = peak - pairwise.NEIGHBOR_BLOCK * g * 8 - mean.nbytes
        assert scratch < 0.25 * 2**20, f"{scratch / 2**20:.2f} MiB of scratch"


def test_evaluation_holds_no_n_by_d_copy():
    # 6,000 x 256: one N x d float32 array is 5.9 MiB. The rows are made from
    # the raw vectors as tiles need them; tile 256 keeps the tile buffers,
    # O(tile^2) whatever N and d, well below that size
    ds = random_dataset(np.random.default_rng(3), n=6000, d=256, g=100, m=2)
    tracemalloc.start()
    try:
        with tile_size(256):
            metrics.evaluate_dataset(ds, metrics.EvalConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.n * ds.dim * 4, f"{peak / 2**20:.2f} MiB traced"


# --- float32 screen, per-pair kernel and the half sweep ------------------------

def _all_pairs(n):
    i, j = np.triu_indices(n, 1)
    return i.astype(np.int64), j.astype(np.int64)


def _screen_matrix(u):
    """The float32 GEMM screen of every pair, tile by tile as the engine computes it.

    The half sweep leaves the tiles below the diagonal out; they are mirrored.
    """
    s = np.full((len(u), len(u)), np.nan, dtype=np.float32)
    with tile_size(37):
        for i0, i1 in pairwise._row_blocks(len(u), 37):
            for j0, g, c in pairwise._half_tiles(u, i0, i1):
                s[i0:i1, j0:j0 + g.shape[1]] = g if c is None else g * c
    return np.where(np.isnan(s), s.T, s)


def _adversarial_raw(rng, d):
    """Near-duplicates (s near +-1, clipped), cancellation-heavy and wide-range vectors."""
    base = rng.normal(size=(6, d))
    near = np.concatenate([base + eps * rng.normal(size=(6, d)) for eps in (0.0, 1e-7, 1e-4)])
    near = np.concatenate([near, -near[:6]])
    # large equal-magnitude components with opposite signs: s near 0, sum |u_k v_k| near 1
    signs = rng.choice([-1.0, 1.0], size=(12, d))
    flip = signs * np.where(rng.random(size=(12, d)) < 0.5, -1.0, 1.0)
    cancel = np.concatenate([signs, flip, signs + 1e-6 * rng.normal(size=(12, d))])
    wide = rng.normal(size=(8, d)) * 10.0 ** rng.integers(-30, 3, size=(8, d))
    return np.concatenate([near, cancel, wide]).astype(np.float32)


def _row_set(raw):
    """Every record its own identity; rows that a scaling zeroed are left out."""
    raw = raw[raw.any(axis=1)]
    return EmbeddingSet(vectors=raw, identity=np.arange(len(raw)),
                        attribute=np.zeros(len(raw), np.int64),
                        labels=LabelTable.default(len(raw), 1))


def _adversarial_rows(rng, d):
    return unit_rows(_row_set(_adversarial_raw(rng, d)))


@pytest.mark.parametrize("d", [2, 64, 512])
def test_screen_error_within_delta(d):
    u = _adversarial_rows(np.random.default_rng(d), d)
    delta = pairwise._screen_delta(u)
    i, j = _all_pairs(len(u))
    exact = pairwise._exact_pairs(u, i, j).astype(np.float64)
    tiles = _screen_matrix(u)[i, j].astype(np.float64)
    assert np.all(np.abs(tiles - exact) <= delta)
    assert exact.max() == 1.0 and exact.min() == -1.0  # the clipped ends are exercised
    gamma = d * 2.0**-24 / (1 - d * 2.0**-24)
    assert gamma < delta < gamma + 1e-6


def test_screen_delta_values():
    for d, want in ((512, 3.06e-5), (128, 7.7e-6)):
        u = np.eye(d, dtype=np.float32)
        assert abs(pairwise._screen_delta(u) - want) < 0.01 * want


# raw scales of the adversarial rows: every norm inside [2^-64, 2^64], where the
# screen scales raw columns, and outside it, where the guard screens unit rows
SCALED_BY = (1.0, 1e12, 1e-12, 2.0**40, 2.0**-40)
GUARDED_BY = (1e30, 1e-30, 2.0**70, 2.0**-70)


def _scaled_sets(d):
    """(scale, dataset) of the adversarial rows stored at each raw scale."""
    raw = _adversarial_raw(np.random.default_rng(d), d).astype(np.float64)
    for scale in SCALED_BY + GUARDED_BY:
        yield scale, _row_set((raw * scale).astype(np.float32))


@pytest.mark.parametrize("d", [2, 64, 512])
def test_unit_rows_source_gathers_bitwise(small_set, d):
    for scale, ds in [(1.0, small_set), *_scaled_sets(d)]:
        rows, want = pairwise.UnitRows(ds.vectors), unit_rows(ds)
        norm = np.linalg.norm(ds.vectors.astype(np.float64), axis=1)
        inside = 2.0**-64 <= norm.min() and norm.max() <= 2.0**64
        assert (rows.scale is not None) == inside
        if d > 2:  # at d = 2 a wide-range row alone can leave the range
            assert inside == (scale in SCALED_BY)
        idx = np.random.default_rng(0).permutation(ds.n)[:ds.n // 2 + 1]
        for key in (slice(None), slice(3, ds.n - 2), idx, np.sort(idx)):
            got = rows[key]
            assert got.dtype == np.float32 and got.tobytes() == want[key].tobytes()


@pytest.mark.parametrize("d", [64, 512])
def test_scaled_screen_error_within_delta(d):
    moved = False
    for scale, ds in _scaled_sets(d):
        rows, u = pairwise.UnitRows(ds.vectors), unit_rows(ds)
        i, j = _all_pairs(ds.n)
        exact = pairwise._exact_pairs(rows, i, j)
        assert np.array_equal(exact, pairwise._exact_pairs(u, i, j))
        screen = _screen_matrix(rows)
        assert np.all(np.abs(screen[i, j].astype(np.float64) - exact) <= rows.delta)
        if scale in GUARDED_BY:  # unit rows on both sides: the unit screen and delta
            assert rows.scale is None and rows.delta == pairwise._screen_delta(u)
            assert np.array_equal(screen, _screen_matrix(u))
        else:
            assert pairwise._screen_delta(u) < rows.delta < pairwise._screen_delta(u) + 2.0**-21
            moved |= bool(np.any(screen != _screen_matrix(u)))
    assert moved  # the scaled columns round differently from the unit ones


@pytest.mark.parametrize("d", [64, 512])
def test_column_edges_pass_every_screened_entry(d):
    # theta_j is the least raw GEMM value whose screened value fl32(g * c_j)
    # reaches lo, so the raw compare keeps exactly what the scaled tile would
    los = np.float32([-1.0001, -1, -0.3, -0.0, 0, 2.0**-140, 0.5, 1])
    for scale, ds in _scaled_sets(d):
        rows = pairwise.UnitRows(ds.vectors)
        g, c = rows.columns(rows[:], slice(None))
        assert (c is None) == (scale in GUARDED_BY)
        s = g if c is None else g * c
        for lo in los:
            theta = rows.edges(lo)
            assert theta.dtype == np.float32
            assert np.array_equal(g >= theta, s >= lo)
            if c is not None:  # theta_j reaches lo, and one ulp below it does not
                assert np.all(theta * c >= lo)
                assert np.all(np.nextafter(theta, np.float32(-np.inf)) * c < lo)


def _round_fraction(x):
    """The float32 nearest to the rational x, ties to the even significand."""
    near = np.float32(float(x))
    cands = [near, np.nextafter(near, np.float32(-2)), np.nextafter(near, np.float32(2))]
    return min(cands, key=lambda f: (abs(Fraction(float(f)) - x), int(f.view(np.uint32)) & 1))


def exact_sims(u):
    """Similarities from exact rational dot products of the unit rows, rounded once."""
    rows = [[Fraction(float(x)) for x in row] for row in u]
    s = np.empty((len(u), len(u)), dtype=np.float32)
    for a, x in enumerate(rows):
        for b, y in enumerate(rows[a:], a):
            s[a, b] = s[b, a] = _round_fraction(sum(p * q for p, q in zip(x, y)))
    return np.clip(s, -1.0, 1.0)


_EXACT_SIMS = {}


def exact_sims_of(ds):
    """`exact_sims` of the set's unit rows, computed once per set of vectors."""
    key = (ds.vectors.shape, ds.vectors.tobytes())
    if key not in _EXACT_SIMS:
        _EXACT_SIMS[key] = exact_sims(unit_rows(ds))
    return _EXACT_SIMS[key]


def test_exact_pairs_symmetric_and_batch_free():
    rng = np.random.default_rng(3)
    u = unit_rows(random_dataset(rng, n=600, d=512, g=50, m=2))
    i, j = _all_pairs(len(u))
    ref = pairwise._exact_pairs(u, i, j)
    assert np.array_equal(pairwise._exact_pairs(u, j, i), ref)
    perm = rng.permutation(len(i))
    assert np.array_equal(pairwise._exact_pairs(u, i[perm], j[perm]), ref[perm])
    pick = perm[:500]
    for tile in (1, 7, 600):  # other groupings into GEMMs
        with tile_size(tile):
            assert np.array_equal(pairwise._exact_pairs(u, i[pick], j[pick]), ref[pick])
    # the whole-tile path of the histogram agrees bitwise
    full = pairwise._exact_grid(u, np.arange(len(u)), np.arange(len(u)))
    assert np.array_equal(full[i, j], ref)
    few = rng.choice(len(u), size=12, replace=False)
    assert np.array_equal(full[np.ix_(few, few)], exact_sims(u[few]))


def test_sparse_refine_pools_pairs_and_ties_keep_one_grid_per_tile(monkeypatch):
    calls, grid = [], pairwise._exact_grid  # pairs each grid call computes

    def spy(u32, rows, cols, pick=None):
        calls.append(len(rows) * len(cols) if pick is None else len(pick[0]))
        return grid(u32, rows, cols, pick)
    monkeypatch.setattr(pairwise, "_exact_grid", spy)
    refined, exact = [], pairwise._exact_pairs
    monkeypatch.setattr(pairwise, "_exact_pairs",
                        lambda u, i, j: refined.append(len(i)) or exact(u, i, j))
    monkeypatch.setattr(pairwise, "TILE", 64)
    # a set without ties: the bracket's band refines a few pairs in many tiles
    ds = random_dataset(np.random.default_rng(4), n=600, d=32, g=60, m=2)
    r = solve_threshold(ds, 1e-2)
    assert (r.threshold, r.allowed_fp, r.realized_fp) == oracle_threshold(ds, 1e-2)
    assert sum(refined) > 0 and calls == []
    # a band of ties: 300 records on four directions refine only in grids,
    # each of a tile group holding more than a tile's worth of pairs
    rng = np.random.default_rng(6)
    tied = EmbeddingSet(vectors=rng.normal(size=(4, 16)).astype(np.float32)[np.arange(300) % 4],
                        identity=np.arange(300) // 3, attribute=np.zeros(300, np.int64),
                        labels=LabelTable.default(100, 1))
    r = solve_threshold(tied, 1e-3)
    assert (r.threshold, r.allowed_fp, r.realized_fp) == oracle_threshold(tied, 1e-3)
    assert calls and min(calls) > 64
    # rows 0..99 x 0..99 fall in four tiles of 64, each with more than 64
    # pairs: one grid each; 30 scattered pairs elsewhere are pooled
    calls.clear()
    u = unit_rows(ds)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(100), np.arange(100), indexing="ij"))
    i = np.concatenate([i, rng.integers(128, 600, 30)])
    j = np.concatenate([j, rng.integers(128, 600, 30)])
    got = exact(u, i, j)
    assert sorted(calls) == [36 * 36, 64 * 36, 64 * 36, 64 * 64]
    assert np.array_equal(got, grid(u, np.arange(600), np.arange(600))[i, j])


def test_near_midpoint_flags_exactly_the_margin():
    ulp = 2.0**-54  # float64 ulp in [0.25, 0.5)
    f = np.float32(0.3)
    mid = (float(f) + float(np.nextafter(f, np.float32(1)))) / 2  # a float32 midpoint
    k = np.arange(-6, 7)
    v = mid + k * ulp
    assert np.array_equal(pairwise._near_midpoint(v, 3 * ulp), np.abs(k) <= 3)
    assert np.array_equal(pairwise._near_midpoint(v, np.full(len(k), 3 * ulp)), np.abs(k) <= 3)
    assert not pairwise._near_midpoint(np.array([float(f)]), 1e-12)[0]  # half a gap away
    # above a power of two, the midpoint below it is half as far as the window's own
    above = np.array([0.5 + 2.0**-40])
    assert pairwise._near_midpoint(above, 2.0**-26 + 2.0**-39)[0]
    assert not pairwise._near_midpoint(above, 2.0**-26 - 2.0**-39)[0]
    # float32 subnormals and zero: flagged for any e > 0, never for e = 0
    tiny = np.array([0.0, 3e-45, -1e-40])
    assert pairwise._near_midpoint(tiny, 1e-300).all()
    assert not pairwise._near_midpoint(tiny, 0.0).any()


def _fsum_round(x, y):
    """Correct float32 rounding of a dot product: fsum, with exact tie-breaking."""
    p = x.astype(np.float64) * y
    f = math.fsum(p)
    near = np.float32(f)
    if float(near) == f:
        return near
    other = np.nextafter(near, np.float32(2 if f > float(near) else -2))
    if (float(near) + float(other)) / 2 != f:
        return near
    return _round_fraction(sum(Fraction(float(q)) for q in p))


def test_exact_grid_rounds_cancelling_sums_correctly():
    # rows nearly orthogonal to 60 random rows: dot products near 1e-6, where
    # the float64 GEMM's error reaches a float32 rounding midpoint now and then
    rng = np.random.default_rng(2)
    d = 512
    x = rng.normal(size=(60, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    q, _ = np.linalg.qr(x.T)
    w = rng.normal(size=(60, d))
    w -= (w @ q) @ q.T
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w += 1e-6 * rng.normal(size=(60, 60)) @ x
    v = np.concatenate([x, w])
    u = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    rows, cols = np.arange(60), np.arange(60, 120)
    want = np.array([[_fsum_round(u[i], u[j]) for j in cols] for i in rows])
    u64 = u.astype(np.float64)
    assert np.count_nonzero((u64[rows] @ u64[cols].T).astype(np.float32) != want) >= 2
    assert np.array_equal(pairwise._exact_grid(u, rows, cols), want)
    i, j = np.meshgrid(rows, cols, indexing="ij")
    with tile_size(7):
        assert np.array_equal(pairwise._exact_pairs(u, i.ravel(), j.ravel()), want.ravel())


def test_exact_grid_margin_holds_under_worst_case_gemm_error(monkeypatch):
    # d = 512 rows with two nonzero entries whose float64 dot products are
    # exact: some lie on a float32 rounding midpoint, others t * 2^-49 from
    # one, well inside the float64 margin e of `_exact_grid` (about 2^-43)
    d, steps = 512, np.array([0, 1, -1, 5, -5, 30, -30, 60, -60])
    x = np.zeros((20, d), dtype=np.float32)
    x[:, 0], x[:, 1] = 0.5 + np.arange(20) * 2.0**-24, 1.0
    y = np.zeros((len(steps), d), dtype=np.float32)
    y[:, 0], y[:, 1] = 1.0, 2.0**-25 + steps * 2.0**-49
    y[1::2, :2] *= -1.0  # negative similarities as well
    u = np.concatenate([x, y])
    rows, cols = np.arange(len(x)), np.arange(len(x), len(u))
    want = np.array([[_fsum_round(u[i], u[j]) for j in cols] for i in rows])
    u64 = u.astype(np.float64)
    assert np.array_equal(u64[rows] @ u64[cols].T, [[math.fsum(u64[i] * u64[j]) for j in cols]
                                                    for i in rows])  # the GEMM itself is exact
    g = d * 2.0**-53 / (1 - d * 2.0**-53)
    e = 2 * g * float(np.einsum("ij,ij->i", u64, u64).max())

    def push(s64):
        """Every value moved 0.9 e toward its nearest float32 rounding midpoint."""
        r = s64.astype(np.float32).astype(np.float64)
        return s64 + np.where(s64 >= r, 0.9, -0.9) * e

    # the move crosses a midpoint for every pair: no plain rounding is right
    assert np.all(push(u64[rows] @ u64[cols].T).astype(np.float32) != want)
    rounded = pairwise._rounded
    monkeypatch.setattr(pairwise, "_rounded", lambda s64, *args: rounded(push(s64), *args))
    assert np.array_equal(pairwise._exact_grid(u, rows, cols), want)
    i, j = np.meshgrid(rows, cols, indexing="ij")
    with tile_size(7):
        assert np.array_equal(pairwise._exact_pairs(u, i.ravel(), j.ravel()), want.ravel())


def test_round_dots_bound_covers_lost_fold_errors():
    # the big products cancel exactly and leave twice a TwoSum error of 2^-30
    # that cancels too, but only after 2^-84 (1 + 2^-23) has been added to the
    # first and lost in its float64 rounding; the exact sum lies that far above
    # 2^-60, just past the float32 midpoint 2^-60 + 2^-84, while the compensated
    # fold returns 2^-60 exactly, half a float32 ulp from the midpoint. Only the
    # second-stage bound, not the fold's own rounding, sends it to `_round_dot`.
    lost = 2.0**-84 * (1 + 2.0**-23)
    x = np.array([[2.0**23, 2.0**23, -2.0**23, -2.0**23, 2.0**-30, lost, -2.0**-30, 2.0**-60]],
                 dtype=np.float32)
    u = np.concatenate([x, np.ones((1, 8), dtype=np.float32)])
    want = _fsum_round(u[0], u[1])
    assert want == np.float32(2.0**-60 + 2.0**-83)
    assert pairwise._exact_grid(u, np.array([0]), np.array([1]))[0, 0] == want
    assert pairwise._exact_pairs(u, np.array([0]), np.array([1]))[0] == want


def _midpoint_pair_set():
    """Records 0 and 1 form a d = 3 pair whose float64 GEMM rounds the wrong way.

    Their large products sum exactly to a float32 rounding midpoint and the
    tiny product 2^-60 is lost in float64 in any summation order, so the
    float64 value rounds to the even neighbour while the exact dot product
    rounds to the other one. The rows are their own normalization. Random
    filler records make up the rest of the set.
    """
    m, c = 0.5646133422851562, 0.8253555297851562
    pair = np.array([[2.0**-30, m, c], [2.0**-30, m, -c]], dtype=np.float32)
    rng = np.random.default_rng(11)
    vecs = np.concatenate([pair, rng.normal(size=(22, 3)).astype(np.float32)])
    ident = np.concatenate([[0, 1], rng.integers(0, 6, size=22)]).astype(np.int64)
    return EmbeddingSet(vectors=vecs, identity=ident, attribute=ident % 2,
                        labels=LabelTable.default(6, 2)), pair


def test_one_similarity_on_every_path():
    ds, pair = _midpoint_pair_set()
    u = unit_rows(ds)
    assert np.array_equal(u[:2], pair)
    want = exact_sims(u)
    u64 = u.astype(np.float64)
    assert np.float32(u64[0] @ u64[1]) != want[0, 1]  # the plain float64 rounding differs
    assert pairwise._exact_pairs(u, np.array([0]), np.array([1]))[0] == want[0, 1]
    full = pairwise._exact_grid(u, np.arange(len(u)), np.arange(len(u)))
    off = ~np.eye(ds.n, dtype=bool)
    assert np.array_equal(full[off], want[off])
    neg = ds.identity[:, None] != ds.identity[None, :]
    vals = np.sort(want[neg])[::-1]
    rank = int(np.count_nonzero(vals > want[0, 1]))  # the pair holds ranks rank, rank + 1
    for allowed in range(rank - 2, rank + 4):
        target = (allowed + 0.5) / len(vals)
        t = vals[allowed]
        for cap_offset in CAP_OFFSETS:  # the narrowing rounds (-1) and the bracketed sweep
            for tile, workers in ((768, 1), (5, 3)):
                r = fused_matches_full(ds, target, cap_offset, tile, workers)
                assert (r.threshold, r.realized_fp) == (t, np.count_nonzero(vals > t))
                with tile_size(tile):
                    acc = confusion_sweep(ds, r.threshold, workers=workers)
                assert acc.overall[pairwise.FP] == r.realized_fp
    # the histogram's exact count buckets it by its exact value too
    lo = want[0, 1]
    counts = pairwise._exact_counts(u, ds.identity, lambda v: (v >= lo).astype(np.int64), 2, 5, 2)
    assert counts[1] == np.count_nonzero(vals >= want[0, 1])


def _boundary_set(steps=20):
    """Many pairs exactly on T and one float32 ulp on either side of it, plus filler.

    Probes step their cosine to e1 by single float32 ulps around 0.3, anchors
    are e1 perturbed by 1e-7, and a random rotation makes every product
    inexact, so the float32 screen and the exact value disagree near T. Rows
    are shuffled so the pairs near T fall into many slabs and tiles. Returns
    the set and the (anchor, probe) row indices.
    """
    rng = np.random.default_rng(0)
    d, n_anchor = 16, 8
    c = 0.3 + np.arange(-steps, steps + 1) * float(np.spacing(np.float32(0.3)))
    probes = np.zeros((len(c), d))
    probes[:, 0], probes[:, 1] = c, np.sqrt(1 - c ** 2)
    anchors = np.zeros((n_anchor, d))
    anchors[:, 0] = 1.0
    anchors[:, 2:] = 1e-7 * rng.normal(size=(n_anchor, d - 2))
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vecs = np.concatenate([np.concatenate([anchors, probes]) @ rotation,
                           rng.normal(size=(30, d))]).astype(np.float32)
    ident = np.concatenate([np.arange(n_anchor) % 5, np.arange(len(c)) % 5,
                            5 + rng.integers(0, 7, size=30)]).astype(np.int64)
    perm = rng.permutation(len(vecs))
    ds = EmbeddingSet(vectors=vecs[perm], identity=ident[perm], attribute=ident[perm] % 2,
                      labels=LabelTable.default(12, 2))
    row = np.argsort(perm)  # row[m]: where record m of the unshuffled layout went
    return ds, (row[:n_anchor], row[n_anchor:n_anchor + len(c)])


def test_counts_exact_on_and_one_ulp_around_threshold():
    ds, (a, p) = _boundary_set()
    s = oracle_sims(ds)
    vals, same = s[np.ix_(a, p)], ds.identity[a, None] == ds.identity[None, p]
    t = np.float32(np.median(vals))
    for near in (t, np.nextafter(t, np.float32(2)), np.nextafter(t, np.float32(-2))):
        assert np.count_nonzero((vals == near) & same) >= 1
        assert np.count_nonzero((vals == near) & ~same) >= 1
    u = unit_rows(ds)
    screen = _screen_matrix(u)[np.ix_(a, p)]
    assert np.count_nonzero((screen > t) != (vals > t)) >= 3  # the refine decides these
    gid, att = oracle_counts(ds, float(t))
    for tile in (7, 37, 768):
        for workers in (1, 3):
            with tile_size(tile):
                acc = confusion_sweep(ds, float(t), workers=workers)
            assert np.array_equal(acc.identity_counts, gid)
            assert np.array_equal(acc.attribute_counts, att)
    # the solver lands on the boundary values too, for every rank around them
    neg = ds.identity[:, None] != ds.identity[None, :]
    total = int(np.count_nonzero(neg))
    above = int(np.count_nonzero(s[neg] > np.nextafter(t, np.float32(2))))
    for allowed in range(above - 8, above + 40, 3):
        target = (allowed + 0.5) / total
        ot, oallowed, orealized = oracle_threshold(ds, target)
        for tile in (7, 37, 768):
            for workers in (1, 3):
                r = fused_matches_full(ds, target, None, tile, workers)
                assert (r.allowed_fp, r.threshold, r.realized_fp) == (oallowed, ot, orealized)


def _adversarial_screen(monkeypatch):
    """Replace every screened value by the exact one moved 0.9 delta up or down.

    The engine may assume no more than |s~ - s| <= delta of its screen, the
    `delta` of the `UnitRows` it sweeps, so counts and thresholds must stay
    exact under this worst-case-sized error. The push is a fixed function of
    the value's bits, the same in any thread.
    """
    def push(delta, exact):
        noise = np.where(exact.view(np.uint32).astype(np.uint64) * 2654435761 & 1 << 20, 1.0, -1.0)
        moved = exact + 0.9 * delta * noise
        return np.clip(moved.astype(np.float32), -1.0, 1.0)

    def tiles(u32, i0, i1):
        rows, tile = pairwise._rows_of(u32), pairwise.TILE  # the sweep's delta and tile
        for j0 in range(i0, len(rows), tile):
            s = pairwise._exact_grid(rows, np.arange(i0, i1),
                                     np.arange(j0, min(j0 + tile, len(rows))))
            yield j0, push(rows.delta, s), None  # no column scale: s~ itself

    monkeypatch.setattr(pairwise, "_half_tiles", tiles)


def test_exact_under_worst_case_screen_error(monkeypatch):
    ds, (a, p) = _boundary_set(steps=60)  # probe cosines span +-1.8e-6, about 2 delta
    s = oracle_sims(ds)
    t = float(np.median(s[np.ix_(a, p)]))
    gid, att = oracle_counts(ds, t)
    neg = ds.identity[:, None] != ds.identity[None, :]
    total = int(np.count_nonzero(neg))
    above = int(np.count_nonzero(s[neg] > t))
    targets = [(allowed + 0.5) / total for allowed in range(above - 300, above + 300, 23)]
    oracle = [oracle_threshold(ds, target) for target in targets]
    _adversarial_screen(monkeypatch)
    for tile, workers in ((7, 1), (37, 3), (768, 1)):
        with tile_size(tile):
            acc = confusion_sweep(ds, t, workers=workers)
        assert np.array_equal(acc.identity_counts, gid)
        assert np.array_equal(acc.attribute_counts, att)
        for target, (ot, oallowed, orealized) in zip(targets, oracle):
            r = fused_matches_full(ds, target, None, tile, workers)
            assert (r.allowed_fp, r.threshold, r.realized_fp) == (oallowed, ot, orealized)


def _magnitude_set(powers):
    """Five vectors stored at magnitudes 2^p across 13 identities, and which vector each is.

    A power-of-two scale changes no bit of a unit row, so all copies of a
    vector share one unit row: their pairs tie exactly, at 1.0 across
    identities, while the raw columns the screen scales differ.
    """
    rng = np.random.default_rng(12)
    base = rng.normal(size=(5, 6))
    pick = rng.integers(0, 5, size=60)
    p = np.asarray(powers)[rng.integers(0, len(powers), size=60)]
    ident = np.arange(60) % 13
    ds = EmbeddingSet(vectors=(base[pick] * 2.0 ** p[:, None]).astype(np.float32),
                      identity=ident, attribute=ident % 2, labels=LabelTable.default(13, 2))
    return ds, pick


@pytest.mark.parametrize("powers", [(-20, -3, 0, 7, 30), (-70, 0, 70)])
def test_duplicates_at_other_magnitudes_tie_exactly(powers):
    ds, pick = _magnitude_set(powers)
    u = unit_rows(ds)
    assert np.array_equal(u, u[[np.flatnonzero(pick == b)[0] for b in pick]])
    assert (pairwise.UnitRows(ds.vectors).scale is None) == (max(map(abs, powers)) > 64)
    s = oracle_sims(ds)
    neg = ds.identity[:, None] != ds.identity[None, :]
    total = int(np.count_nonzero(neg))
    assert np.count_nonzero(s[neg] == 1.0) > 100
    for allowed in (0, 7, 150, 900, total // 2, total - 1):
        target = (allowed + 0.5) / total
        ot, oallowed, orealized = oracle_threshold(ds, target)
        ofp = np.count_nonzero(neg & (s > np.float32(ot)), axis=1)
        gid, att = oracle_counts(ds, ot)
        for tile in (7, 37, 768):
            for workers in (1, 3):
                r = fused_matches_full(ds, target, None, tile, workers)
                assert (r.allowed_fp, r.threshold, r.realized_fp) == (oallowed, ot, orealized)
                assert np.array_equal(r.record_fp, ofp)
                with tile_size(tile):
                    acc = confusion_sweep(ds, r.threshold, workers=workers, fp=r.record_fp)
                assert np.array_equal(acc.identity_counts, gid)
                assert np.array_equal(acc.attribute_counts, att)


def test_threshold_ties_odd_and_even_rank():
    # four distinct vectors repeated across identities: a few similarity values,
    # each shared by many unordered pairs, so ceil(k/2) lands inside tie runs
    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 6)).astype(np.float32)
    vecs = base[np.arange(48) % 4]
    ident = (np.arange(48) // 3).astype(np.int64)
    ds = EmbeddingSet(vectors=vecs, identity=ident, attribute=np.zeros(48, np.int64),
                      labels=LabelTable.default(16, 1))
    total = ordered_pair_totals(ds)[1]
    ranks = set()
    for allowed in list(range(0, 40)) + list(range(total // 2 - 20, total // 2 + 20)):
        target = (allowed + 0.5) / total
        ot, oallowed, orealized = oracle_threshold(ds, target)
        ranks.add((oallowed + 1) % 2)
        for cap_offset in CAP_OFFSETS:
            for tile, workers in ((768, 1), (5, 3)):
                with tile_size(tile):
                    r = solve_at_cap(ds, target, cap_offset, workers=workers)
                assert (r.allowed_fp, r.threshold, r.realized_fp) == (oallowed, ot, orealized)
    assert ranks == {0, 1}
