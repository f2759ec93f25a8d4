import csv
import json
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairpair import metrics
from fairpair.errors import ConfigError, DegenerateDataError, DomainError
from fairpair.metrics import (
    AttributeRates,
    EvalConfig,
    IdentityRates,
    attribute_rates,
    build_histograms,
    dumps_stable,
    evaluate_dataset,
    identity_rates,
    intra_inter_similarity,
    overall_rates,
    population_std,
    report_from_json,
    write_histogram_csv,
    write_per_identity_csv,
    write_similarity_csv,
)
from fairpair.pairwise import (PairStatsAccumulator, confusion_sweep, neighbor_mean_similarity,
                              solve_threshold, topk_neighbors)
from fairpair.store import EmbeddingSet, LabelTable, mean_vectors

from conftest import random_dataset


def make_acc(identity_counts, attribute_counts):
    acc = PairStatsAccumulator.zeros(len(identity_counts), len(attribute_counts))
    acc.identity_counts += np.asarray(identity_counts, dtype=np.int64)
    acc.attribute_counts += np.asarray(attribute_counts, dtype=np.int64)
    return acc


def test_population_std_convention():
    vals = [94.1, 94.2, 96.3, 94.8]
    assert abs(population_std(vals) - np.std(vals)) < 1e-15  # ddof=0
    assert population_std([5.0]) == 0.0
    with pytest.raises(DomainError):
        population_std([])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_population_std_matches_numpy(vals):
    assert population_std(vals) == pytest.approx(float(np.std(vals)), abs=1e-9)


def test_rates_and_undefined_flags():
    # identity 1 has no positive pairs, identity 2 no negative pairs
    acc = make_acc([[4, 1, 9, 2], [0, 3, 7, 0], [5, 0, 0, 5]], [[9, 4, 16, 7]])
    idr = identity_rates(acc)
    np.testing.assert_allclose(idr.itpr[0], 4 / 6)
    assert not idr.itpr_defined[1] and math.isnan(idr.itpr[1])
    assert not idr.ifpr_defined[2] and math.isnan(idr.ifpr[2])
    np.testing.assert_allclose(idr.ifpr[1], 3 / 10)
    # undefined entries stay out of the spread
    assert idr.ifpr_std == population_std([1 / 10, 3 / 10])


def test_overall_equals_weighted_identity_rates():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 40, size=(7, 4))
    acc = make_acc(counts, counts.sum(axis=0, keepdims=True))
    tpr, fpr = overall_rates(acc)
    tot = counts.sum(axis=0)
    assert tpr == pytest.approx(tot[0] / (tot[0] + tot[3]))
    assert fpr == pytest.approx(tot[1] / (tot[1] + tot[2]))


def test_attribute_aggregates_skip_undefined():
    att = attribute_rates(make_acc(
        [[1, 1, 1, 1]],
        [[2, 1, 3, 2], [0, 2, 8, 0], [3, 0, 0, 1]],
    ))
    assert att.atpr_avg == pytest.approx(np.mean([2 / 4, 3 / 4]))
    assert att.atpr_std == pytest.approx(population_std([2 / 4, 3 / 4]))
    assert att.afpr_avg == pytest.approx(np.mean([1 / 4, 2 / 10]))


def test_all_undefined_aggregate_is_nan():
    att = attribute_rates(make_acc([[0, 1, 1, 0]], [[0, 1, 1, 0]]))
    assert math.isnan(att.atpr_avg) and math.isnan(att.atpr_std)


# --- similarity analysis -----------------------------------------------------

def test_intra_inter_against_loop(small_set):
    mv = mean_vectors(small_set)
    k = 4
    s_intra, s_inter = intra_inter_similarity(small_set, mv, k)

    mu = mv.means / np.linalg.norm(mv.means, axis=1, keepdims=True)
    for g in range(small_set.n_identities):
        rows = small_set.vectors[small_set.identity == g].astype(np.float64)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        assert s_intra[g] == pytest.approx(float(np.mean(rows @ mu[g])), abs=1e-12)
    nb = topk_neighbors(mv, k)
    for g in range(small_set.n_identities):
        want = float(np.mean([mu[g] @ mu[j] for j in nb[g]]))
        assert s_inter[g] == pytest.approx(want, abs=1e-12)
    assert np.array_equal(s_inter, neighbor_mean_similarity(mv, nb))  # bitwise


def test_means_not_renormalized_before_averaging(rng):
    # two images of one identity pointing apart: mean has norm < 1 and the
    # intra similarity must reflect the raw arithmetic mean's direction
    vecs = np.array([[1.0, 0.1], [-1.0, 0.1], [0.0, 1.0]], dtype=np.float32)
    ds = EmbeddingSet(vectors=vecs, identity=np.array([0, 0, 1]),
                      attribute=np.zeros(3, np.int64), labels=LabelTable.default(2, 1))
    mv = mean_vectors(ds)
    assert np.linalg.norm(mv.means[0]) < 0.2
    s_intra, _ = intra_inter_similarity(ds, mv, 1)
    u = vecs[:2].astype(np.float64)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    mu0 = mv.means[0] / np.linalg.norm(mv.means[0])
    assert s_intra[0] == pytest.approx(float(np.mean(u @ mu0)), abs=1e-12)


# --- histograms ---------------------------------------------------------------

def test_histogram_densities_integrate_to_one(rng):
    vals = rng.normal(size=500)
    groups = rng.integers(0, 3, size=500)
    table = build_histograms(vals, groups, 32, ("a", "b", "c"))
    widths = np.diff(table.edges)
    for gi in range(3):
        assert float(table.densities[gi] @ widths) == pytest.approx(1.0, abs=1e-12)


def test_histogram_empty_group_flagged(rng):
    vals = rng.normal(size=50)
    table = build_histograms(vals, np.zeros(50, dtype=int), 8, ("a", "b"))
    assert table.empty_groups == (1,)
    assert np.all(table.densities[1] == 0.0)


def test_histogram_constant_values():
    table = build_histograms(np.full(9, 2.5), np.zeros(9, dtype=int), 4, ("a",))
    assert table.edges[0] == 2.0 and table.edges[-1] == 3.0
    widths = np.diff(table.edges)
    assert float(table.densities[0] @ widths) == pytest.approx(1.0)


# --- stable JSON ----------------------------------------------------------------

def test_dumps_stable_forms():
    src = {"b": [1.5, float("nan"), float("inf")], "a": True, "c": None, "d": 0.1}
    text = dumps_stable(src)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed["b"][1] is None and parsed["b"][2] is None
    assert parsed["d"] == 0.1  # 17 significant digits round-trips float64
    assert dumps_stable(src) == text


def test_dumps_stable_numpy_scalars():
    text = dumps_stable({"x": np.float64(1 / 3), "n": np.int64(7), "f": np.bool_(False)})
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3 and parsed["n"] == 7 and parsed["f"] is False


def _dumps_item_by_item(items) -> str:
    """The reference: a list written by the generic element loop, item by item."""
    return "[" + ",".join(dumps_stable(x) for x in items) + "]"


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1.7e308, -1.7e308, 0.1]


# a list of finite floats is written in one call, one with nan or inf item by
# item; the examples hold each kind, and finite items whose sum overflows
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS), max_size=40))
@example([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308, 1 / 3])
@example([1.7e308, 1.7e308, -0.0])
@example([])
@example([-0.0, math.nan, 0.25])
@example([math.inf, 5e-324, -math.inf])
def test_dumps_stable_float_lists_as_item_by_item(values):
    assert dumps_stable(values) == _dumps_item_by_item(values)
    assert dumps_stable({"v": values}) == '{"v":' + _dumps_item_by_item(values) + "}"


def test_dumps_stable_mixed_lists_keep_their_types():
    mixed = [1.5, 2, True, np.float64(0.25), None, -0.0, math.nan]
    assert dumps_stable(mixed) == '[1.5,2,true,0.25,null,-0,null]'
    assert dumps_stable(mixed) == _dumps_item_by_item(mixed)
    assert dumps_stable([]) == "[]"
    assert dumps_stable((0.5, -0.0)) == "[0.5,-0]"


# --- full report -----------------------------------------------------------------

@pytest.fixture
def report(small_set):
    return evaluate_dataset(small_set, EvalConfig(target_fpr=5e-2, k=4, bins=16))


def test_report_json_roundtrip_exact(report):
    text = report.to_json()
    back = report_from_json(text)
    assert back.to_json() == text  # byte-stable through a full cycle
    assert back.threshold.threshold == report.threshold.threshold
    np.testing.assert_array_equal(back.identities.ifpr_defined, report.identities.ifpr_defined)
    assert back.identities.ifpr_std == pytest.approx(report.identities.ifpr_std, abs=0)


def test_report_stds_reproducible_from_json(report):
    parsed = json.loads(report.to_json())
    ifpr = np.array(parsed["identity_rates"]["ifpr"], dtype=np.float64)
    defined = ~np.isnan(ifpr)
    assert abs(population_std(ifpr[defined]) - parsed["identities_summary"]["ifpr_std"]) < 1e-12
    atpr = np.array([row["atpr"] for row in parsed["attributes"]], dtype=np.float64)
    kept = atpr[~np.isnan(atpr)]
    assert abs(population_std(kept) - parsed["attribute_stats"]["atpr_std"]) < 1e-12


def test_report_threshold_block_consistent(report, small_set):
    parsed = json.loads(report.to_json())
    t = parsed["threshold"]
    r = solve_threshold(small_set, t["target_fpr"])
    assert t["value"] == r.threshold
    assert t["realized_fp"] == r.realized_fp


def test_report_degenerate_threshold_roundtrip(small_set):
    rep = evaluate_dataset(small_set, EvalConfig(target_fpr=1.0, k=3, bins=8))
    parsed = json.loads(rep.to_json())
    assert parsed["threshold"]["value"] is None
    assert parsed["threshold"]["degenerate"] is True
    back = report_from_json(rep.to_json())
    assert np.isneginf(back.threshold.threshold)
    assert any("degenerate" in w for w in parsed["warnings"])


def test_report_k_clamp_warning(small_set):
    rep = evaluate_dataset(small_set, EvalConfig(target_fpr=1e-2, k=500, bins=8))
    assert rep.config.k == small_set.n_identities - 1
    assert any("clamped" in w for w in rep.warnings)


def test_report_single_attribute():
    # M = 1: every pair counts under the one attribute, so its rates are the
    # overall ones and both spreads are 0
    rng = np.random.default_rng(8)
    ds = EmbeddingSet(vectors=rng.normal(size=(40, 6)).astype(np.float32),
                      identity=np.repeat(np.arange(10), 4), attribute=np.zeros(40, np.int64),
                      labels=LabelTable.default(10, 1))
    rep = evaluate_dataset(ds, EvalConfig(target_fpr=5e-2, k=3, bins=8))
    stats = json.loads(rep.to_json())["attribute_stats"]
    assert stats == {"atpr_avg": rep.overall_tpr, "atpr_std": 0.0,
                     "afpr_avg": rep.overall_fpr, "afpr_std": 0.0}
    assert rep.warnings == []


def test_report_all_single_image_identities():
    # G = N: no positive pairs, so every iTPR and the overall TPR are undefined
    ds = random_dataset(np.random.default_rng(9), n=30, d=5, g=30, m=2)
    rep = evaluate_dataset(ds, EvalConfig(target_fpr=5e-2, k=3, bins=8))
    text = rep.to_json()
    doc = json.loads(text)
    assert all(v is None for v in doc["identity_rates"]["itpr"])
    assert doc["identities_summary"]["itpr_undefined_count"] == ds.n
    assert "30 single-image identities have undefined iTPR (excluded from aggregates)" in rep.warnings
    assert doc["overall"]["tpr"] is None
    assert report_from_json(text).to_json() == text


@pytest.mark.parametrize("field, value, message", [
    ("target_fpr", 0.0, "target FPR"),
    ("target_fpr", -1e-3, "target FPR"),
    ("target_fpr", 1.5, "target FPR"),
    ("target_fpr", math.nan, "target FPR"),
    ("k", 0, "K must be at least 1"),
    ("bins", 1, "bins must be at least 2"),
    ("workers", 0, "worker count must be at least 1"),
])
def test_eval_config_rejects_out_of_range(field, value, message):
    with pytest.raises(ConfigError, match=message):
        EvalConfig(**{field: value})


def test_eval_config_accepts_range_edges():
    EvalConfig(target_fpr=1.0, k=1, bins=2, workers=1)


def test_eval_config_clamped_k():
    cfg = EvalConfig(k=20)
    assert cfg.clamped_k(21) == (20, None)
    assert cfg.clamped_k(16) == (15, "K clamped from 20 to 15 (only 16 identities)")
    with pytest.raises(DegenerateDataError):
        cfg.clamped_k(1)


def test_report_matches_components(small_set):
    cfg = EvalConfig(target_fpr=2e-2, k=5, bins=12)
    rep = evaluate_dataset(small_set, cfg)
    r = solve_threshold(small_set, cfg.target_fpr)
    acc = confusion_sweep(small_set, r.threshold)
    idr = identity_rates(acc)
    np.testing.assert_array_equal(
        np.isnan(rep.identities.itpr), np.isnan(idr.itpr))
    np.testing.assert_allclose(rep.identities.ifpr[idr.ifpr_defined],
                               idr.ifpr[idr.ifpr_defined], rtol=0)
    tpr, fpr = overall_rates(acc)
    assert rep.overall_tpr == tpr and rep.overall_fpr == fpr


# a Python 3.10 caller holds its call's arguments until the call returns, so
# there the means live on under the neighbour pass whatever the callee drops
@pytest.mark.skipif(sys.version_info < (3, 11), reason="callee cannot free its caller's argument")
def test_means_freed_before_neighbor_pass(small_set, monkeypatch):
    made, neighbor_pass = metrics.mean_vectors, metrics._neighbor_pass
    refs, alive = [], []

    def means(dataset):
        mv = made(dataset)
        refs.append(weakref.ref(mv.means))
        return mv

    def spy(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return neighbor_pass(*args, **kwargs)

    monkeypatch.setattr(metrics, "mean_vectors", means)
    monkeypatch.setattr(metrics, "_neighbor_pass", spy)
    want = evaluate_dataset(small_set, EvalConfig(target_fpr=2e-2, k=5))
    assert alive == [False]
    monkeypatch.undo()
    assert evaluate_dataset(small_set, EvalConfig(target_fpr=2e-2, k=5)).to_json() == want.to_json()


def test_evaluation_picks_values_not_columns(small_set, monkeypatch):
    # s_inter keeps only the neighbours' mean cosine, so the evaluation
    # orders values (`_top_values`) and never builds the neighbour columns
    from fairpair import pairwise

    mv = mean_vectors(small_set)
    want = pairwise.neighbor_mean_similarity(mv, pairwise.topk_neighbors(mv, 5))

    def refuse(*args, **kwargs):
        raise AssertionError("the evaluation built neighbour columns")

    monkeypatch.setattr(pairwise, "_top_columns", refuse)
    rep = evaluate_dataset(small_set, EvalConfig(target_fpr=2e-2, k=5))
    assert rep.s_inter.tobytes() == want.tobytes()


def test_evaluation_reads_no_floor(small_set, monkeypatch):
    # the values pick partitions each block in place: the floor that
    # `_above_floor` reads serves the column pick alone
    from fairpair import pairwise

    calls = []
    real = pairwise._above_floor

    def spy(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(pairwise, "_above_floor", spy)
    evaluate_dataset(small_set, EvalConfig(target_fpr=2e-2, k=5))
    assert calls == []
    pairwise.topk_neighbors(mean_vectors(small_set), 5)
    assert calls  # the spy sees the column pick


# --- CSV writers ------------------------------------------------------------------

def test_per_identity_csv(tmp_path, small_set, report):
    acc = confusion_sweep(small_set, report.threshold.threshold)
    idr = identity_rates(acc)
    counts = np.bincount(small_set.identity, minlength=small_set.n_identities)
    p = tmp_path / "per_identity.csv"
    write_per_identity_csv(p, small_set, idr, report.s_intra, report.s_inter, counts)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "identity,name,attribute,attribute_name,n_images,itpr,ifpr,s_intra,s_inter"
    assert len(lines) == 1 + small_set.n_identities
    for k, row in enumerate(lines[1:]):
        fields = row.split(",")
        assert int(fields[0]) == k
        if idr.itpr_defined[k]:
            assert float(fields[5]) == pytest.approx(idr.itpr[k], rel=1e-8)
        else:
            assert fields[5] == ""


def _per_identity_rows(path, dataset, idr, s_intra, s_inter, counts):
    """The per-identity CSV written row by row, each value formatted on its own."""
    ident_attr = dataset.identity_attribute()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["identity", "name", "attribute", "attribute_name", "n_images",
                    "itpr", "ifpr", "s_intra", "s_inter"])
        for k in range(dataset.n_identities):
            w.writerow([
                k, dataset.labels.identities[k], int(ident_attr[k]),
                dataset.labels.attributes[ident_attr[k]], int(counts[k]),
                f"{idr.itpr[k]:.9g}" if idr.itpr_defined[k] else "",
                f"{idr.ifpr[k]:.9g}" if idr.ifpr_defined[k] else "",
                f"{s_intra[k]:.9g}", f"{s_inter[k]:.9g}",
            ])


def _similarity_rows(path, dataset, s_intra, s_inter):
    """The similarity CSV written row by row."""
    ident_attr = dataset.identity_attribute()
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["identity", "name", "attribute", "attribute_name", "s_intra", "s_inter"])
        for k in range(dataset.n_identities):
            w.writerow([k, dataset.labels.identities[k], int(ident_attr[k]),
                        dataset.labels.attributes[ident_attr[k]],
                        f"{s_intra[k]:.9g}", f"{s_inter[k]:.9g}"])


@pytest.mark.parametrize("g", [2, 9])
def test_csv_writers_match_row_by_row(tmp_path, g):
    # the writers convert their arrays once and write all rows in one call;
    # the bytes must be those of formatting each numpy value on its own
    rng = np.random.default_rng(g)
    names = ['say "hi"', "comma, inside", "plain", "Zoë", "名前", "tab\there", "x,\"y\"",
             "naïve", "ok"]
    ident = np.arange(3 * g) % g
    ds = EmbeddingSet(vectors=rng.normal(size=(3 * g, 4)).astype(np.float32),
                      identity=ident, attribute=ident % 2,
                      labels=LabelTable(identities=tuple(names[:g]),
                                        attributes=("group, one", 'grüppe "2"')))
    idr = IdentityRates(itpr=rng.random(g), ifpr=np.r_[1 / 3, 0.0, rng.random(g - 2)],
                        itpr_defined=np.arange(g) % 3 != 0, ifpr_defined=np.arange(g) % 2 == 0)
    s_intra, counts = rng.normal(size=g), np.bincount(ident)
    for s_inter in (rng.normal(size=g), rng.normal(size=g).astype(np.float32)):
        write_per_identity_csv(tmp_path / "new.csv", ds, idr, s_intra, s_inter, counts)
        _per_identity_rows(tmp_path / "old.csv", ds, idr, s_intra, s_inter, counts)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        write_similarity_csv(tmp_path / "new.csv", ds, s_intra, s_inter)
        _similarity_rows(tmp_path / "old.csv", ds, s_intra, s_inter)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert '"say ""hi"""' in (tmp_path / "new.csv").read_text()


def test_histogram_csv(tmp_path, report):
    p = tmp_path / "hist.csv"
    write_histogram_csv(p, report.intra_hist)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "group,bin_lo,bin_hi,density"
    assert len(lines) == 1 + len(report.intra_hist.group_names) * (len(report.intra_hist.edges) - 1)
