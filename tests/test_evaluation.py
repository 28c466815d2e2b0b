from dataclasses import asdict

import numpy as np
import pytest

from ecgrecon.errors import DataError, MetricUndefinedError
from ecgrecon.evaluation import (AffinityMatrix, comparison_csv,
                                 comparison_table, delta_pct,
                                 diagonal_consistency, knn_affinity, pearson,
                                 r2, rmse)


# ---------------------------------------------------------------- metrics

def test_rmse_trivial_cases():
    y = np.array([1.0, 2.0, 3.0])
    assert rmse(y, y) == 0.0
    assert rmse(y + 1.0, y) == pytest.approx(1.0, abs=1e-12)
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == \
        pytest.approx(np.sqrt(12.5), abs=1e-12)


def test_r2_trivial_cases():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r2(y, y) == pytest.approx(1.0, abs=1e-12)
    mean_pred = np.full_like(y, y.mean())
    assert r2(mean_pred, y) == pytest.approx(0.0, abs=1e-12)
    assert r2(-y, y) < 0.0


def test_pearson_trivial_cases():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(y, y) == pytest.approx(1.0, abs=1e-12)
    assert pearson(-y, y) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=500)
    yh = rng.normal(size=500)
    base = pearson(yh, y)
    scaled = pearson(3.7 * yh + 11.0, y)
    assert abs(scaled - base) < 1e-9


def test_metrics_against_loop_oracle():
    rng = np.random.default_rng(1)
    y = rng.normal(size=200)
    yh = y + rng.normal(0, 0.3, size=200)
    # direct elementwise oracles
    se = sum((a - b) ** 2 for a, b in zip(yh, y))
    assert rmse(yh, y) == pytest.approx(np.sqrt(se / 200), abs=1e-12)
    ss_res = se
    ss_tot = sum((b - np.mean(y)) ** 2 for b in y)
    assert r2(yh, y) == pytest.approx(1 - ss_res / ss_tot, abs=1e-9)
    assert pearson(yh, y) == pytest.approx(np.corrcoef(yh, y)[0, 1], abs=1e-12)


def test_metrics_undefined_on_constant_target():
    y = np.full(10, 2.0)
    yh = np.arange(10, dtype=float)
    with pytest.raises(MetricUndefinedError):
        r2(yh, y)
    with pytest.raises(MetricUndefinedError):
        pearson(yh, y)
    # rmse stays defined
    assert np.isfinite(rmse(yh, y))


def test_metrics_reject_shape_mismatch():
    with pytest.raises(DataError):
        rmse(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------- deltas

def test_delta_pct_error_metric():
    # lower-is-better: improvement from 1.0 to 0.8 is +20%
    assert delta_pct(1.0, 0.8) == pytest.approx(20.0, abs=1e-12)
    assert delta_pct(1.0, 1.2) == pytest.approx(-20.0, abs=1e-12)


def test_delta_pct_score_metric():
    # higher-is-better: improvement from 0.5 to 0.6 is +20%
    assert delta_pct(0.5, 0.6, higher_is_better=True) == \
        pytest.approx(20.0, abs=1e-12)


def test_delta_pct_published_figure():
    # headline relative RMSE improvement reproduced from reported means
    base, ours = 0.192, 0.157
    assert abs(delta_pct(base, ours) - 18.2) < 1.0


# ---------------------------------------------------------------- affinity

def _two_clusters(n_per, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=dim)
    a /= np.linalg.norm(a)
    vecs, labels = [], []
    for sign, name in ((1.0, "A"), (-1.0, "B")):
        for _ in range(n_per):
            v = sign * a + rng.normal(0, 0.01, size=dim)
            vecs.append(v)
            labels.append(name)
    return np.array(vecs), labels


def test_knn_affinity_antipodal_clusters_identity():
    vecs, labels = _two_clusters(30)
    mat = knn_affinity(vecs, labels, k=10)
    assert mat.classes == ["A", "B"]
    np.testing.assert_allclose(mat.a, np.eye(2), atol=0.01)


def test_knn_affinity_single_class():
    vecs, _ = _two_clusters(15)
    mat = knn_affinity(vecs, ["A"] * len(vecs), k=5)
    np.testing.assert_allclose(mat.a, [[1.0]], atol=1e-12)


def test_knn_affinity_shuffled_labels_near_uniform():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(400, 16))
    labels = list(rng.permutation(["A"] * 200 + ["B"] * 200))
    mat = knn_affinity(vecs, labels, k=10)
    assert abs(diagonal_consistency(mat) - 0.5) < 0.05


def test_knn_affinity_rows_sum_to_one():
    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(60, 8))
    labels = ["A"] * 20 + ["B"] * 20 + ["C"] * 20
    mat = knn_affinity(vecs, labels, k=7)
    np.testing.assert_allclose(mat.a.sum(axis=1), 1.0, atol=1e-9)


def test_knn_affinity_excludes_self():
    # two tight clusters, k=1: nearest neighbour of each point is a
    # same-cluster point, never itself (self-match would also give 1.0,
    # so probe with a lone outlier whose nearest point is in cluster A)
    vecs, labels = _two_clusters(5)
    outlier = vecs[0] + 0.001
    vecs = np.vstack([vecs, outlier[None]])
    labels = labels + ["C"]
    mat = knn_affinity(vecs, labels, k=1)
    ci = mat.classes.index("C")
    ai = mat.classes.index("A")
    assert mat.a[ci, ai] == pytest.approx(1.0)
    assert mat.a[ci, ci] == 0.0


def _affinity_loop(vectors, labels, k):
    """`knn_affinity`'s matrix summed one sample at a time."""
    vectors = np.asarray(vectors, dtype=np.float64)
    classes = sorted(set(labels))
    lab = np.array([classes.index(l) for l in labels])
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    nbr = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    a, counts = np.zeros((len(classes), len(classes))), np.zeros(len(classes))
    for i in range(len(vectors)):
        a[lab[i]] += np.bincount(lab[nbr[i]], minlength=len(classes)) / k
        counts[lab[i]] += 1
    return a / counts[:, None]


def test_knn_affinity_equals_per_sample_loop():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, c, k = int(rng.integers(12, 200)), int(rng.integers(1, 7)), int(rng.integers(1, 11))
        vecs = rng.normal(size=(n, 6))
        labels = [f"C{i}" for i in rng.integers(0, c, size=n)]
        assert np.array_equal(knn_affinity(vecs, labels, k=k).a,
                              _affinity_loop(vecs, labels, k))


def test_knn_affinity_needs_enough_samples():
    rng = np.random.default_rng(5)
    with pytest.raises(DataError):
        knn_affinity(rng.normal(size=(5, 4)), ["A"] * 5, k=10)


def test_affinity_csv_round_numbers():
    mat = AffinityMatrix(classes=["A", "B"],
                         a=np.array([[0.9, 0.1], [0.25, 0.75]]), k=3)
    text = mat.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].split(",")[1:] == ["A", "B"]
    assert lines[1].startswith("A,")
    assert "0.9" in lines[1]


def test_diagonal_consistency_identity():
    mat = AffinityMatrix(classes=["A", "B", "C"], a=np.eye(3), k=5)
    assert diagonal_consistency(mat) == pytest.approx(1.0)


# ---------------------------------------------------------------- tables

def _fake_report(rmse_by_lead):
    from ecgrecon.evaluation import EvaluationReport, LeadMetrics
    seg = {l: LeadMetrics(lead=l, rmse=v, r2=0.8, pearson=0.9, n=10,
                          level="segment", rmse_sem=0.01)
           for l, v in rmse_by_lead.items()}
    recm = {l: LeadMetrics(lead=l, rmse=v * 1.1, r2=0.78, pearson=0.89, n=4,
                           level="record", rmse_sem=0.02)
            for l, v in rmse_by_lead.items()}
    return EvaluationReport(segment_metrics=seg, record_metrics=recm,
                            per_class_rmse={"NORM": {l: v for l, v in
                                                     rmse_by_lead.items()}},
                            mean_segment_rmse=float(np.mean(list(rmse_by_lead.values()))))


def test_comparison_table_deltas():
    base = _fake_report({"V1": 0.20, "V3": 0.10})
    prop = _fake_report({"V1": 0.16, "V3": 0.09})
    rows = comparison_table(base, prop)
    by_lead = {r["lead"]: r for r in rows}
    assert by_lead["V1"]["rmse_delta_pct"] == pytest.approx(20.0, abs=1e-9)
    assert by_lead["V3"]["rmse_delta_pct"] == pytest.approx(10.0, abs=1e-9)


def test_comparison_csv_has_header_and_rows():
    base = _fake_report({"V1": 0.20})
    prop = _fake_report({"V1": 0.16})
    text = comparison_csv(comparison_table(base, prop))
    lines = text.strip().splitlines()
    assert "lead" in lines[0]
    assert len(lines) == 2


def test_report_round_trip_dict():
    rep = _fake_report({"V1": 0.2, "V3": 0.1})
    d = asdict(rep)
    assert d["mean_segment_rmse"] == pytest.approx(0.15)
    assert set(d["segment_metrics"]) == {"V1", "V3"}
    assert d["per_class_rmse"]["NORM"]["V1"] == 0.2


def test_evaluate_model_with_stub_decoders():
    from ecgrecon.dataset import ALL_LEADS
    from ecgrecon.evaluation import evaluate_model
    from ecgrecon.nn import Encoder
    from ecgrecon.reconstruction import EPS, NormStats
    from ecgrecon.tensor import Tensor
    from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord

    class ZeroDecoder:
        def __call__(self, xb, hb):
            return Tensor(np.zeros((xb.shape[0], xb.shape[2]), dtype=np.float32))

    rng = np.random.default_rng(0)
    records = []
    for i, cls in enumerate(["NORM", "NORM", "TALLR"]):
        samples = rng.normal(0, 0.3, size=(len(ALL_LEADS), 1000))
        records.append(SignalRecord(samples=samples, fs=100.0,
                                    lead_names=list(ALL_LEADS),
                                    record_id=f"r{i}", patient_id=f"p{i}",
                                    labels=DiagnosticLabels({cls: 100.0}),
                                    fold=10))
    stats = NormStats(h_mu=np.zeros(128), h_sigma=np.ones(128) - EPS,
                      y_mu=np.zeros(5), y_sigma=np.ones(5) - EPS)
    decoders = {lead: ZeroDecoder() for lead in
                ("V1", "V3", "V4", "V5", "V6")}
    (rep,) = evaluate_model(records, Encoder(seed=0), [(decoders, stats, True)])
    assert set(rep.segment_metrics) == {"V1", "V3", "V4", "V5", "V6"}
    # 3 records x 4 non-overlapping windows each
    assert rep.segment_metrics["V1"].n == 12
    assert rep.record_metrics["V1"].n == 3
    assert set(rep.per_class_rmse) == {"NORM", "TALLR"}
    # zero predictor: rmse equals the target rms, r2 <= 0
    assert rep.segment_metrics["V1"].rmse == pytest.approx(0.3, abs=0.05)
    assert rep.segment_metrics["V1"].r2 <= 0.0
    # a constant prediction leaves Pearson undefined in every window and record
    assert rep.segment_metrics["V1"].pearson is None
    assert rep.record_metrics["V1"].pearson is None
    with pytest.raises(DataError, match="no records to evaluate"):
        evaluate_model([], Encoder(seed=0), [(decoders, stats, True)])


def test_evaluate_model_decodes_each_window_once():
    from ecgrecon.dataset import ALL_LEADS, TARGET_LEADS
    from ecgrecon.evaluation import evaluate_model
    from ecgrecon.nn import Encoder
    from ecgrecon.reconstruction import EPS, NormStats
    from ecgrecon.tensor import Tensor
    from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord

    class CountingDecoder:
        windows = 0

        def __call__(self, xb, hb):
            self.windows += xb.shape[0]
            return Tensor(np.zeros((xb.shape[0], xb.shape[2]), dtype=np.float32))

    rng = np.random.default_rng(0)
    records = [SignalRecord(samples=rng.normal(0, 0.3, size=(len(ALL_LEADS), 1000)),
                            fs=100.0, lead_names=list(ALL_LEADS), record_id=f"r{i}",
                            patient_id=f"p{i}", labels=DiagnosticLabels({"NORM": 100.0}),
                            fold=10) for i in range(3)]
    stats = NormStats(h_mu=np.zeros(128), h_sigma=np.ones(128) - EPS,
                      y_mu=np.zeros(5), y_sigma=np.ones(5) - EPS)
    decoders = {lead: CountingDecoder() for lead in TARGET_LEADS}
    (rep,) = evaluate_model(records, Encoder(seed=0), [(decoders, stats, True)])
    assert rep.segment_metrics["V1"].n == 12
    assert rep.record_metrics["V1"].n == 3
    assert [d.windows for d in decoders.values()] == [12] * 5


def _metric_or_none(fn, y_hat, y):
    try:
        return fn(y_hat, y)
    except MetricUndefinedError:
        return None


def test_row_metrics_equal_scalar_metrics():
    from ecgrecon.evaluation import _row_metrics
    rng = np.random.default_rng(6)
    y_hat = rng.normal(size=(4, 5, 300))
    y = rng.normal(size=(4, 5, 300)).astype(np.float32)
    y[1, 2] = 0.5          # constant target: r2 and pearson undefined
    y_hat[2, 3] = -1.25    # constant prediction: pearson undefined
    got = _row_metrics(y_hat, y)
    assert got.dtype == np.float64 and got.shape == (3, 4, 5)
    for i, j in np.ndindex(4, 5):
        for m, f in zip(got, (rmse, r2, pearson)):
            # NaN exactly where the scalar metric is undefined
            want = _metric_or_none(f, y_hat[i, j], y[i, j])
            assert np.isnan(m[i, j]) if want is None else m[i, j] == want
    assert np.isnan([got[1][1, 2], got[2][1, 2], got[2][2, 3]]).all()


def _scalar_report(records, encoder, decoders, stats):
    """`evaluate_model`'s report built one window, one lead and one scalar
    metric call at a time; also returns how many window scores were None."""
    from ecgrecon.contrastive import embed_all
    from ecgrecon.dataset import TARGET_LEADS, segment_record_nonoverlap
    from ecgrecon.evaluation import EvaluationReport, LeadMetrics
    from ecgrecon.reconstruction import overlap_add, reconstruct_segments

    def mean_or_none(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    seg = {lead: ([], [], []) for lead in TARGET_LEADS}
    rec_level = {lead: ([], [], []) for lead in TARGET_LEADS}
    by_class, undefined = {}, {"r2": 0, "pearson": 0}
    for rec in records:
        segments = segment_record_nonoverlap(rec)
        preds = reconstruct_segments(segments, embed_all(segments, encoder), decoders,
                                     stats)
        hc = sorted(rec.labels.high_confidence())
        for pred, y in zip(preds, segments.y):
            for li, lead in enumerate(TARGET_LEADS):
                scores = [_metric_or_none(f, pred[li], y[li]) for f in (rmse, r2, pearson)]
                undefined["r2"] += scores[1] is None
                undefined["pearson"] += scores[2] is None
                for values, v in zip(seg[lead], scores):
                    values.append(v)
                if len(hc) == 1:
                    by_class.setdefault(hc[0], {l: [] for l in TARGET_LEADS})
                    by_class[hc[0]][lead].append(scores[0])
        full = overlap_add(preds, segments.start, rec.n_samples)
        for li, lead in enumerate(TARGET_LEADS):
            for values, f in zip(rec_level[lead], (rmse, r2, pearson)):
                values.append(_metric_or_none(f, full[li], rec.lead(lead)))
    report = EvaluationReport()
    for lead in TARGET_LEADS:
        (e, r, p), (re, rr, rp) = seg[lead], rec_level[lead]
        report.segment_metrics[lead] = LeadMetrics(
            lead=lead, rmse=float(np.mean(e)), r2=mean_or_none(r),
            pearson=mean_or_none(p), n=len(e), level="segment")
        vals = np.asarray(re)
        report.record_metrics[lead] = LeadMetrics(
            lead=lead, rmse=float(vals.mean()), r2=mean_or_none(rr),
            pearson=mean_or_none(rp), n=len(re), level="record",
            rmse_sem=float(vals.std(ddof=1) / np.sqrt(len(re))))
    report.per_class_rmse = {cls: {lead: float(np.mean(v)) for lead, v in leads.items()}
                             for cls, leads in sorted(by_class.items())}
    report.mean_segment_rmse = float(np.mean(
        [m.rmse for m in report.segment_metrics.values()]))
    return report, undefined


def test_evaluate_model_equals_per_window_scalar_report():
    from ecgrecon.dataset import ALL_LEADS, TARGET_LEADS
    from ecgrecon.evaluation import evaluate_model
    from ecgrecon.nn import Encoder
    from ecgrecon.reconstruction import EPS, NormStats
    from ecgrecon.tensor import Tensor
    from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord

    class InputLeadDecoder:
        """Predicts a scaled input lead; flat for the first window of a batch."""

        def __init__(self, li):
            self.li = li

        def __call__(self, xb, hb):
            y = xb.data[:, self.li % 3] * (0.5 + 0.1 * self.li) + hb.data[:, :1] * 0.01
            y[0] = 0.0
            return Tensor(y)

    rng = np.random.default_rng(8)
    records = []
    for i, labels in enumerate([{"NORM": 100.0}, {"NORM": 100.0}, {"TALLR": 90.0},
                                {"NORM": 100.0, "TALLR": 85.0}]):
        samples = rng.normal(0, 0.3, size=(len(ALL_LEADS), 1000 + 37 * i))
        records.append(SignalRecord(samples=samples, fs=100.0, lead_names=list(ALL_LEADS),
                                    record_id=f"r{i}", patient_id=f"p{i}",
                                    labels=DiagnosticLabels(labels), fold=10))
    # record 0's second window of V1 is flat
    records[0].samples[ALL_LEADS.index("V1"), 256:512] = 0.1
    stats = NormStats(h_mu=np.zeros(128), h_sigma=np.ones(128) - EPS,
                      y_mu=np.zeros(5), y_sigma=np.full(5, 1.5))
    decoders = {lead: InputLeadDecoder(li) for li, lead in enumerate(TARGET_LEADS)}
    encoder = Encoder(seed=0)
    (got,) = evaluate_model(records, encoder, [(decoders, stats, True)])
    want, undefined = _scalar_report(records, encoder, decoders, stats)
    # one flat target window (r2 and pearson undefined), and one flat
    # prediction per record and lead (pearson undefined)
    assert undefined == {"r2": 1, "pearson": 1 + 4 * len(TARGET_LEADS)}
    assert asdict(got) == asdict(want)
    assert set(got.per_class_rmse) == {"NORM", "TALLR"}
