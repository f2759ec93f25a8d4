"""Rates and fairness statistics from confusion counts, plus report assembly.

Rates with empty denominators are flagged undefined and excluded from the
aggregate Avg/Std statistics (never silently treated as zero). Every "Std"
uses the population convention (divisor = count); the convention is echoed
in the report so downstream readers can tell.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError, ValidationError
from .pairwise import (FN, FP, TILE, TP, TN, PairStatsAccumulator,
                       ThresholdResult, _neighbor_pass, _unit_chunks,
                       _unit_means, confusion_sweep, solve_threshold)
from .store import EmbeddingSet, MeanVectors, mean_vectors

STD_CONVENTION = "population"


def population_std(values) -> float:
    """Square root of the mean squared deviation (divisor = count)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("population_std of an empty array")
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def _rates(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tpr, fpr, tpr_defined, fpr_defined) from (..., 4) count quadruples."""
    counts = np.asarray(counts, dtype=np.float64)
    pos = counts[..., TP] + counts[..., FN]
    neg = counts[..., FP] + counts[..., TN]
    with np.errstate(invalid="ignore", divide="ignore"):
        tpr = np.where(pos > 0, counts[..., TP] / pos, np.nan)
        fpr = np.where(neg > 0, counts[..., FP] / neg, np.nan)
    return tpr, fpr, pos > 0, neg > 0


def overall_rates(acc: PairStatsAccumulator) -> tuple[float, float]:
    """Dataset-wide TPR and FPR; NaN marks an empty denominator."""
    tpr, fpr, _, _ = _rates(acc.overall)
    return float(tpr), float(fpr)


@dataclass(frozen=True)
class AttributeRates:
    atpr: np.ndarray
    afpr: np.ndarray
    atpr_defined: np.ndarray
    afpr_defined: np.ndarray

    def _agg(self, values, defined):
        if not defined.any():
            return math.nan, math.nan
        kept = values[defined]
        return float(kept.mean()), population_std(kept)

    @property
    def atpr_avg(self): return self._agg(self.atpr, self.atpr_defined)[0]

    @property
    def atpr_std(self): return self._agg(self.atpr, self.atpr_defined)[1]

    @property
    def afpr_avg(self): return self._agg(self.afpr, self.afpr_defined)[0]

    @property
    def afpr_std(self): return self._agg(self.afpr, self.afpr_defined)[1]


def attribute_rates(acc: PairStatsAccumulator) -> AttributeRates:
    """Per-attribute rates over pairs whose first element carries the attribute.

    Cross-attribute pairs count under the first element's attribute, so the
    comparison spans other groups as well.
    """
    atpr, afpr, tdef, fdef = _rates(acc.attribute_counts)
    return AttributeRates(atpr=atpr, afpr=afpr, atpr_defined=tdef, afpr_defined=fdef)


@dataclass(frozen=True)
class IdentityRates:
    itpr: np.ndarray
    ifpr: np.ndarray
    itpr_defined: np.ndarray
    ifpr_defined: np.ndarray

    @property
    def ifpr_std(self) -> float:
        if not self.ifpr_defined.any():
            return math.nan
        return population_std(self.ifpr[self.ifpr_defined])


def identity_rates(acc: PairStatsAccumulator) -> IdentityRates:
    """Per-identity rates; iTPR is undefined for single-image identities."""
    itpr, ifpr, tdef, fdef = _rates(acc.identity_counts)
    return IdentityRates(itpr=itpr, ifpr=ifpr, itpr_defined=tdef, ifpr_defined=fdef)


def intra_inter_similarity(dataset: EmbeddingSet, means: MeanVectors,
                           k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-identity mean cosine to the own mean, and to the K closest other means.

    Only the counts of `means` are kept past its unit rows, so the G x d
    means are freed before the neighbour pass when the caller holds none.
    """
    mu, counts = _unit_means(means), means.counts
    del means
    s_inter = _neighbor_pass(mu, k, table=False)[1]
    intra_sums = np.zeros(dataset.n_identities, dtype=np.float64)
    for i0, i1, v64, _ in _unit_chunks(dataset.vectors):
        ids = dataset.identity[i0:i1]
        np.add.at(intra_sums, ids, np.einsum("ij,ij->i", v64, mu[ids]))
    return intra_sums / counts, s_inter


@dataclass(frozen=True)
class HistogramTable:
    """Per-group normalized densities over shared bin edges."""

    edges: np.ndarray           # (B+1,)
    densities: np.ndarray      # (n_groups, B); rows of empty groups are zero
    group_names: tuple[str, ...]
    empty_groups: tuple[int, ...]


def build_histograms(values, groups, bins: int, group_names) -> HistogramTable:
    """Histogram `values` split by integer `groups` over shared edges."""
    values = np.asarray(values, dtype=np.float64)
    groups = np.asarray(groups)
    if values.shape != groups.shape:
        raise DomainError("values and groups must have the same length")
    if values.size:
        lo, hi = float(values.min()), float(values.max())
    else:
        lo, hi = 0.0, 1.0
    # a range below float spacing would collapse adjacent edges to zero width
    floor = max(1e-12, 1e-9 * max(abs(lo), abs(hi)))
    if hi - lo < floor:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    widths = np.diff(edges)
    densities = np.zeros((len(group_names), bins), dtype=np.float64)
    empty = []
    for gi in range(len(group_names)):
        vals = values[groups == gi]
        if vals.size == 0:
            empty.append(gi)
            continue
        counts, _ = np.histogram(vals, bins=edges)
        densities[gi] = counts / (vals.size * widths)
    return HistogramTable(edges=edges, densities=densities,
                          group_names=tuple(group_names), empty_groups=tuple(empty))


@dataclass(frozen=True)
class DatasetDigest:
    n: int
    d: int
    g: int
    m: int
    hash: str

    @staticmethod
    def of(dataset: EmbeddingSet) -> "DatasetDigest":
        return DatasetDigest(n=dataset.n, d=dataset.dim, g=dataset.n_identities,
                             m=dataset.n_attributes, hash=dataset.content_hash())


@dataclass(frozen=True)
class ReportConfig:
    k: int
    bins: int


@dataclass
class FairnessReport:
    """Everything the evaluation produces, serializable to a stable JSON form."""

    dataset: DatasetDigest
    threshold: ThresholdResult
    overall_tpr: float
    overall_fpr: float
    attributes: AttributeRates
    identities: IdentityRates
    s_intra: np.ndarray
    s_inter: np.ndarray
    intra_hist: HistogramTable
    inter_hist: HistogramTable
    attribute_names: tuple[str, ...]
    config: ReportConfig
    per_identity_csv_path: str = ""
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        att = self.attributes
        idr = self.identities
        ifpr_def = idr.ifpr[idr.ifpr_defined]
        return {
            "dataset": {"n": self.dataset.n, "d": self.dataset.d, "g": self.dataset.g,
                        "m": self.dataset.m, "hash": self.dataset.hash},
            "threshold": {
                "value": None if self.threshold.degenerate else self.threshold.threshold,
                "target_fpr": self.threshold.target_fpr,
                "allowed_fp": self.threshold.allowed_fp,
                "realized_fp": self.threshold.realized_fp,
                "total_neg": self.threshold.total_negatives,
                "degenerate": self.threshold.degenerate,
            },
            "overall": {"tpr": self.overall_tpr, "fpr": self.overall_fpr},
            "attributes": [
                {"id": t, "name": self.attribute_names[t],
                 "atpr": float(att.atpr[t]), "afpr": float(att.afpr[t])}
                for t in range(len(self.attribute_names))
            ],
            "attribute_stats": {"atpr_avg": att.atpr_avg, "atpr_std": att.atpr_std,
                                "afpr_avg": att.afpr_avg, "afpr_std": att.afpr_std},
            "identities_summary": {
                "ifpr_std": idr.ifpr_std,
                "itpr_undefined_count": int(np.sum(~idr.itpr_defined)),
                "ifpr_min": float(ifpr_def.min()) if ifpr_def.size else math.nan,
                "ifpr_max": float(ifpr_def.max()) if ifpr_def.size else math.nan,
            },
            "identity_rates": {"itpr": self.identities.itpr.tolist(),
                               "ifpr": self.identities.ifpr.tolist()},
            "similarity": {"s_intra": self.s_intra.tolist(), "s_inter": self.s_inter.tolist()},
            "histograms": (_hist_json("s_intra", self.intra_hist)
                           + _hist_json("s_inter", self.inter_hist)),
            "per_identity_csv_path": self.per_identity_csv_path,
            "config": {"k": self.config.k, "bins": self.config.bins,
                       "seed": None, "std_convention": STD_CONVENTION},
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return dumps_stable(self.to_json_dict())


def _hist_json(kind: str, table: HistogramTable) -> list[dict]:
    return [
        {"kind": kind, "group": table.group_names[gi],
         "edges": table.edges.tolist(), "density": table.densities[gi].tolist(),
         "empty": gi in table.empty_groups}
        for gi in range(len(table.group_names))
    ]


def _hist_from_json(rows: list[dict], kind: str) -> HistogramTable:
    rows = [r for r in rows if r["kind"] == kind]
    edges = np.asarray(rows[0]["edges"], dtype=np.float64)
    densities = np.array([r["density"] for r in rows], dtype=np.float64)
    return HistogramTable(edges=edges, densities=densities,
                          group_names=tuple(r["group"] for r in rows),
                          empty_groups=tuple(i for i, r in enumerate(rows) if r["empty"]))


def report_from_json(text: str) -> FairnessReport:
    """Inverse of FairnessReport.to_json."""
    doc = json.loads(text)
    thr = doc["threshold"]
    att = doc["attributes"]
    idr = doc["identity_rates"]

    def arr(values):
        return np.array([math.nan if v is None else v for v in values], dtype=np.float64)

    atpr, afpr = arr([a["atpr"] for a in att]), arr([a["afpr"] for a in att])
    itpr, ifpr = arr(idr["itpr"]), arr(idr["ifpr"])
    return FairnessReport(
        dataset=DatasetDigest(**doc["dataset"]),
        threshold=ThresholdResult(
            threshold=-math.inf if thr["degenerate"] else thr["value"],
            target_fpr=thr["target_fpr"], allowed_fp=thr["allowed_fp"],
            realized_fp=thr["realized_fp"], total_negatives=thr["total_neg"],
            degenerate=thr["degenerate"]),
        overall_tpr=_nan_if_none(doc["overall"]["tpr"]),
        overall_fpr=_nan_if_none(doc["overall"]["fpr"]),
        attributes=AttributeRates(atpr=atpr, afpr=afpr,
                                  atpr_defined=~np.isnan(atpr), afpr_defined=~np.isnan(afpr)),
        identities=IdentityRates(itpr=itpr, ifpr=ifpr,
                                 itpr_defined=~np.isnan(itpr), ifpr_defined=~np.isnan(ifpr)),
        s_intra=arr(doc["similarity"]["s_intra"]),
        s_inter=arr(doc["similarity"]["s_inter"]),
        intra_hist=_hist_from_json(doc["histograms"], "s_intra"),
        inter_hist=_hist_from_json(doc["histograms"], "s_inter"),
        attribute_names=tuple(a["name"] for a in att),
        config=ReportConfig(k=doc["config"]["k"], bins=doc["config"]["bins"]),
        per_identity_csv_path=doc["per_identity_csv_path"],
        warnings=list(doc["warnings"]),
    )


def _nan_if_none(v):
    return math.nan if v is None else float(v)


def build_report(dataset: EmbeddingSet, threshold: ThresholdResult,
                 acc: PairStatsAccumulator, s_intra: np.ndarray, s_inter: np.ndarray,
                 config: ReportConfig, warnings: list | None = None) -> FairnessReport:
    """Assemble the report, checking that the pieces describe the same dataset."""
    g, m = dataset.n_identities, dataset.n_attributes
    if acc.identity_counts.shape != (g, 4) or acc.attribute_counts.shape != (m, 4):
        raise ValidationError("confusion counts do not match the dataset's G/M")
    if len(s_intra) != g or len(s_inter) != g:
        raise ValidationError("similarity arrays do not match the dataset's G")
    if threshold.total_negatives != int(acc.overall[FP] + acc.overall[TN]):
        raise ValidationError("threshold result comes from a different dataset (negative totals differ)")

    warnings = list(warnings or [])
    att = attribute_rates(acc)
    idr = identity_rates(acc)
    for t in np.flatnonzero(~att.atpr_defined):
        warnings.append(f"attribute {int(t)} ({dataset.labels.attributes[t]}) has no positive pairs; aTPR undefined")
    for t in np.flatnonzero(~att.afpr_defined):
        warnings.append(f"attribute {int(t)} ({dataset.labels.attributes[t]}) has no negative pairs; aFPR undefined")
    n_single = int(np.sum(~idr.itpr_defined))
    if n_single:
        warnings.append(f"{n_single} single-image identities have undefined iTPR (excluded from aggregates)")

    tpr, fpr = overall_rates(acc)
    ident_attr = dataset.identity_attribute()
    hist_bins = config.bins
    intra_hist = build_histograms(s_intra, ident_attr, hist_bins, dataset.labels.attributes)
    inter_hist = build_histograms(s_inter, ident_attr, hist_bins, dataset.labels.attributes)
    return FairnessReport(
        dataset=DatasetDigest.of(dataset), threshold=threshold,
        overall_tpr=tpr, overall_fpr=fpr, attributes=att, identities=idr,
        s_intra=np.asarray(s_intra, dtype=np.float64),
        s_inter=np.asarray(s_inter, dtype=np.float64),
        intra_hist=intra_hist, inter_hist=inter_hist,
        attribute_names=dataset.labels.attributes, config=config, warnings=warnings,
    )


def _g9(values: np.ndarray, defined: np.ndarray | None = None) -> list[str]:
    """Each value with 9 significant digits, blank where not `defined`."""
    if defined is None:
        return [f"{x:.9g}" for x in values.tolist()]
    return [f"{x:.9g}" if ok else "" for x, ok in zip(values.tolist(), defined.tolist())]


def _identity_columns(dataset: EmbeddingSet) -> tuple[list, list]:
    """(attribute, attribute name) of each identity, as Python lists."""
    attr = dataset.identity_attribute().tolist()
    return attr, [dataset.labels.attributes[a] for a in attr]


def write_per_identity_csv(path, dataset: EmbeddingSet, idr: IdentityRates,
                           s_intra: np.ndarray, s_inter: np.ndarray,
                           counts: np.ndarray) -> None:
    """One row per identity: rates (blank when undefined) and Eq-style similarities."""
    attr, attr_name = _identity_columns(dataset)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["identity", "name", "attribute", "attribute_name", "n_images",
                    "itpr", "ifpr", "s_intra", "s_inter"])
        w.writerows(zip(range(dataset.n_identities), dataset.labels.identities, attr,
                        attr_name, counts.tolist(), _g9(idr.itpr, idr.itpr_defined),
                        _g9(idr.ifpr, idr.ifpr_defined), _g9(s_intra), _g9(s_inter)))


def write_similarity_csv(path, dataset: EmbeddingSet, s_intra: np.ndarray,
                         s_inter: np.ndarray) -> None:
    """One row per identity: its attribute and Eq-style similarities."""
    attr, attr_name = _identity_columns(dataset)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["identity", "name", "attribute", "attribute_name",
                    "s_intra", "s_inter"])
        w.writerows(zip(range(dataset.n_identities), dataset.labels.identities, attr,
                        attr_name, _g9(s_intra), _g9(s_inter)))


def write_histogram_csv(path, table: HistogramTable) -> None:
    """Rows of group,bin_lo,bin_hi,density with 9 significant digits."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["group", "bin_lo", "bin_hi", "density"])
        for gi, name in enumerate(table.group_names):
            for b in range(table.densities.shape[1]):
                w.writerow([name, f"{table.edges[b]:.9g}", f"{table.edges[b + 1]:.9g}",
                            f"{table.densities[gi, b]:.9g}"])


@dataclass(frozen=True)
class EvalConfig:
    target_fpr: float = 1e-5
    k: int = 50
    bins: int = 200
    workers: int = 1
    # not fields: read only by perfbench's histogram probe, and go with it
    tile: ClassVar[int] = TILE
    threshold_bins: ClassVar[int] = 200

    def __post_init__(self):
        if not 0 < self.target_fpr <= 1:
            raise ConfigError("target FPR must lie in (0, 1]")
        if self.k < 1:
            raise ConfigError("K must be at least 1")
        if self.bins < 2:
            raise ConfigError("histogram bins must be at least 2")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")

    def clamped_k(self, n_identities: int) -> tuple[int, str | None]:
        """K cut to the G - 1 other identities, and the note saying so if it was.

        Fewer than 2 identities leave no neighbour at all: degenerate data.
        """
        if n_identities < 2:
            raise DegenerateDataError(f"neighbour analysis needs 2 identities, got {n_identities}")
        k = min(self.k, n_identities - 1)
        if k == self.k:
            return k, None
        return k, f"K clamped from {self.k} to {k} (only {n_identities} identities)"


def evaluate_dataset(dataset: EmbeddingSet, config: EvalConfig,
                     progress=None) -> FairnessReport:
    """Threshold solve, confusion sweep, similarity analysis, and report."""
    def say(msg):
        if progress is not None:
            progress(msg)

    say(f"solving threshold for target FPR {config.target_fpr:g}")
    thresh = solve_threshold(dataset, config.target_fpr, workers=config.workers)
    say(f"threshold {thresh.threshold:.9g} (allowed {thresh.allowed_fp}, "
        f"realized {thresh.realized_fp} of {thresh.total_negatives})")

    say("confusion counts")
    acc = confusion_sweep(dataset, thresh.threshold, workers=config.workers,
                          fp=thresh.record_fp, tp=thresh.record_tp)
    # the per-record counts are not held through the similarity analysis (the peak)
    thresh = replace(thresh, record_fp=None, record_tp=None)

    k, note = config.clamped_k(dataset.n_identities)
    warnings = [note] if note else []
    say(f"similarity analysis with K={k}")
    s_intra, s_inter = intra_inter_similarity(dataset, mean_vectors(dataset), k)
    if thresh.degenerate:
        warnings.append("degenerate threshold: target admits every negative pair")

    say("assembling report")
    rep_cfg = ReportConfig(k=k, bins=config.bins)
    return build_report(dataset, thresh, acc, s_intra, s_inter, rep_cfg,
                        warnings=warnings)


def dumps_stable(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats (byte-stable)."""
    out: list[str] = []
    _dump(obj, out)
    return "".join(out)


def _dump(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _dump(obj[key], out)
        out.append("}")
    elif type(obj) is list and all(type(x) is float for x in obj):
        # the float branch above, without a call per item: in one call when
        # the sum is finite, as it is only when every item is; nan and inf
        # (or a sum that overflows) take the per-item path, which writes null
        if math.isfinite(sum(obj)):
            out.append("[" + ",".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
        else:
            out.append("[" + ",".join(format(x, ".17g") if math.isfinite(x) else "null"
                                      for x in obj) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
