"""Fidelity metrics, per-class breakdowns, and k-NN class affinity.

All metrics run in double precision. Undefined cases (constant target
for R^2/Pearson) raise rather than returning 0; the row metrics hold
them as NaN, and report assembly records them as missing.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .contrastive import embed_all
from .dataset import TARGET_LEADS, segment_record_nonoverlap
from .errors import DataError, MetricUndefinedError
from .reconstruction import overlap_add, reconstruct_segments


def rmse(y_hat, y):
    y_hat, y = np.asarray(y_hat, float).ravel(), np.asarray(y, float).ravel()
    if y_hat.shape != y.shape or y.size < 2:
        raise DataError(f"rmse needs equal lengths >= 2, got {y_hat.size}/{y.size}")
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def r2(y_hat, y):
    y_hat, y = np.asarray(y_hat, float).ravel(), np.asarray(y, float).ravel()
    if y_hat.shape != y.shape or y.size < 2:
        raise DataError(f"r2 needs equal lengths >= 2, got {y_hat.size}/{y.size}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricUndefinedError("r2 undefined for constant target")
    ss_res = float(np.sum((y - y_hat) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(y_hat, y):
    y_hat, y = np.asarray(y_hat, float).ravel(), np.asarray(y, float).ravel()
    if y_hat.shape != y.shape or y.size < 2:
        raise DataError(f"pearson needs equal lengths >= 2, got {y_hat.size}/{y.size}")
    a, b = y_hat - y_hat.mean(), y - y.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0.0:
        raise MetricUndefinedError("pearson undefined for constant input")
    return float(np.clip(np.sum(a * b) / denom, -1.0, 1.0))


def delta_pct(base, other, higher_is_better=False):
    """Improvement percentage relative to the baseline value.

    Error metrics (RMSE): (base - other) / base * 100, positive = better.
    Score metrics (R^2, Pearson): (other - base) / base * 100.
    """
    if base == 0:
        raise MetricUndefinedError("delta undefined for zero baseline")
    if higher_is_better:
        return (other - base) / base * 100.0
    return (base - other) / base * 100.0


@dataclass
class LeadMetrics:
    lead: str
    rmse: float
    r2: float | None
    pearson: float | None
    n: int
    level: str                     # "segment" or "record"
    rmse_sem: float | None = None  # record-level dispersion (SEM over records)


@dataclass
class AffinityMatrix:
    classes: list
    a: np.ndarray     # [C, C]; row i = mean neighbor-class proportions for class i
    k: int

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["class"] + list(self.classes))
        for i, c in enumerate(self.classes):
            w.writerow([c] + [f"{v:.6f}" for v in self.a[i]])
        return buf.getvalue()


def knn_affinity(vectors, labels, k=10):
    """Class-to-class affinity under cosine k-NN (self excluded,
    ties broken by index order)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = list(labels)
    n = vectors.shape[0]
    if n <= k:
        raise DataError(f"need more than k={k} samples, got {n}")
    classes = sorted(set(labels))
    cls_index = {c: i for i, c in enumerate(classes)}
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0
    unit = vectors / norms[:, None]
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    # stable sort on -sims gives descending similarity, index-order ties
    nbr = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    lab_arr = np.array([cls_index[l] for l in labels])
    c = len(classes)
    # each sample's neighbour-class proportions [n, C], summed per class in
    # sample order
    rows = (lab_arr[nbr][:, :, None] == np.arange(c)).sum(axis=1) / k
    a = np.zeros((c, c))
    np.add.at(a, lab_arr, rows)
    return AffinityMatrix(classes=classes, a=a / np.bincount(lab_arr)[:, None], k=k)


def diagonal_consistency(affinity):
    """Mean of the diagonal (intra-class consistency)."""
    return float(np.mean(np.diag(affinity.a)))


def _row_metrics(y_hat, y):
    """Float64 array [3, ...] of the rmse, r2 and pearson of every row along
    the last axis of `y_hat` and `y` [..., n], each what `rmse`, `r2` and
    `pearson` return for that row, bit for bit. r2 is NaN where the target
    row is constant, pearson where either row is."""
    y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
    if y_hat.shape != y.shape or y.shape[-1] < 2:
        raise DataError(f"metrics need equal shapes with rows >= 2, got "
                        f"{y_hat.shape}/{y.shape}")
    d = y_hat - y
    a = y_hat - y_hat.mean(axis=-1, keepdims=True)
    b = y - y.mean(axis=-1, keepdims=True)
    ss_res, ss_tot = np.sum(d * d, axis=-1), np.sum(b * b, axis=-1)
    denom = np.sqrt(np.sum(a * a, axis=-1) * ss_tot)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2s = np.where(ss_tot == 0.0, np.nan, 1.0 - ss_res / ss_tot)
        pears = np.where(denom == 0.0, np.nan,
                         np.clip(np.sum(a * b, axis=-1) / denom, -1.0, 1.0))
    return np.stack([np.sqrt(ss_res / y.shape[-1]), r2s, pears])


def _mean_or_none(values):
    """Mean of the scores that are not NaN; None if none is."""
    values = values[~np.isnan(values)]
    return float(values.mean()) if values.size else None


def _lead_metrics(scores, level):
    """{lead: LeadMetrics} of `scores`, a list of `_row_metrics` arrays
    [3, ..., 5] over the target leads, in record order. R^2 and Pearson
    skip undefined (NaN) scores; at record level the RMSE also gets its
    SEM over records."""
    m = np.concatenate([s.reshape(3, -1, len(TARGET_LEADS)) for s in scores], axis=1)
    m = np.ascontiguousarray(m.transpose(2, 0, 1))   # [5, 3, N]: one row per lead and metric
    n = m.shape[2]
    return {lead: LeadMetrics(
        lead=lead, rmse=float(e.mean()), r2=_mean_or_none(r), pearson=_mean_or_none(p),
        n=n, level=level,
        rmse_sem=float(e.std(ddof=1) / np.sqrt(n)) if level == "record" and n > 1 else None)
        for lead, (e, r, p) in zip(TARGET_LEADS, m)}


@dataclass
class EvaluationReport:
    segment_metrics: dict = field(default_factory=dict)   # lead -> LeadMetrics
    record_metrics: dict = field(default_factory=dict)    # lead -> LeadMetrics
    per_class_rmse: dict = field(default_factory=dict)    # class -> lead -> rmse
    mean_segment_rmse: float = 0.0


def evaluate_model(records, encoder, decoder_sets):
    """One report per `(decoders, stats, conditioned)` set, from one pass
    over `records` that windows each once and embeds it at most once:
    segment-level metrics over non-overlapping test segments plus
    record-level metrics over the full signals reassembled from the same
    window predictions, each record scored in one `_row_metrics` pass over
    every target lead. No record, or one shorter than a window, is a DataError."""
    scores = [([], [], {}) for _ in decoder_sets]
    for rec in records:
        segments = segment_record_nonoverlap(rec)
        if not len(segments):
            raise DataError(f"record {rec.record_id} shorter than one window")
        h = embed_all(segments, encoder) if any(c for *_, c in decoder_sets) else None
        hc = sorted(rec.labels.high_confidence())
        truth = np.stack([rec.lead(l) for l in TARGET_LEADS])
        for (decoders, stats, cond), (seg, rec_level, by_class) in zip(decoder_sets, scores):
            preds = reconstruct_segments(segments, h if cond else None, decoders, stats)
            seg.append(_row_metrics(preds, segments.y))
            if len(hc) == 1:
                by_class.setdefault(hc[0], []).append(seg[-1])
            full = overlap_add(preds, segments.start, rec.n_samples)
            rec_level.append(_row_metrics(full, truth))
    return [_report(*s) for s in scores]


def _report(seg, rec_level, by_class):
    """The EvaluationReport of one decoder set's per-record scores."""
    if not seg:
        raise DataError("no records to evaluate")
    segment_metrics = _lead_metrics(seg, "segment")
    return EvaluationReport(
        segment_metrics=segment_metrics, record_metrics=_lead_metrics(rec_level, "record"),
        per_class_rmse={cls: {lead: m.rmse for lead, m in _lead_metrics(rows, "segment").items()}
                        for cls, rows in sorted(by_class.items())},
        mean_segment_rmse=float(np.mean([m.rmse for m in segment_metrics.values()])))


def comparison_table(baseline, proposed):
    """Per-lead deltas between two configurations (baseline C vs C-h),
    mirroring the benchmark-table column layout."""
    rows = []
    for lead in TARGET_LEADS:
        b = baseline.segment_metrics.get(lead)
        p = proposed.segment_metrics.get(lead)
        if b is None or p is None:
            continue
        row = {"lead": lead, "rmse_c": b.rmse, "rmse_ch": p.rmse,
               "rmse_delta_pct": delta_pct(b.rmse, p.rmse)}
        for name in ("r2", "pearson"):
            bv, pv = getattr(b, name), getattr(p, name)
            row[f"{name}_c"], row[f"{name}_ch"] = bv, pv
            row[f"{name}_delta_pct"] = (delta_pct(bv, pv, higher_is_better=True)
                                        if bv not in (None, 0) and pv is not None
                                        else None)
        rows.append(row)
    return rows


def comparison_csv(rows):
    buf = io.StringIO()
    if not rows:
        return ""
    w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    w.writeheader()
    for row in rows:
        w.writerow({k: ("" if v is None else f"{v:.4f}" if isinstance(v, float) else v)
                    for k, v in row.items()})
    return buf.getvalue()
