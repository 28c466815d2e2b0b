import tracemalloc

import numpy as np
import pytest

from ecgrecon.dataset import (ALL_LEADS, BLOCK, CHUNK, HOP, WINDOW, Segments,
                              apply_qc, chunked, compact, fit_qc_bounds, load_segments,
                              load_vectors, save_segments, save_vectors, segment_record,
                              segment_record_nonoverlap, segment_records, segment_stats,
                              split_by_fold)
from ecgrecon.errors import DataError, LeakageError
from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord


def _record(n_samples, record_id="r", patient_id="p", fold=1, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 0.3 * scale, size=(len(ALL_LEADS), n_samples))
    return SignalRecord(samples=samples, fs=100.0, lead_names=list(ALL_LEADS),
                        record_id=record_id, patient_id=patient_id,
                        labels=DiagnosticLabels({"NORM": 100.0}), fold=fold)


def test_segment_count_1000_samples():
    segs = segment_record(_record(1000))
    assert len(segs) == 12
    assert segs.start.tolist() == [64 * i for i in range(12)]
    assert segs.start[-1] == 704


def test_segment_too_short():
    assert len(segment_record(_record(255))) == 0


def test_segment_exact_window():
    segs = segment_record(_record(256))
    assert len(segs) == 1 and segs.start[0] == 0


def test_segment_shapes_and_lead_order():
    rec = _record(256)
    segs = segment_record(rec)
    x, y = segs.x[0], segs.y[0]
    assert x.shape == (3, 256) and y.shape == (5, 256)
    np.testing.assert_allclose(x[0], rec.lead("I"), atol=1e-6)
    np.testing.assert_allclose(x[2], rec.lead("V2"), atol=1e-6)
    np.testing.assert_allclose(y[0], rec.lead("V1"), atol=1e-6)
    np.testing.assert_allclose(y[4], rec.lead("V6"), atol=1e-6)


def test_nonoverlap_offsets_1000():
    segs = segment_record_nonoverlap(_record(1000))
    assert segs.start.tolist() == [0, 256, 512, 744]


def test_nonoverlap_exact_tiling_512():
    segs = segment_record_nonoverlap(_record(512))
    assert segs.start.tolist() == [0, 256]


def test_nonoverlap_right_aligned_300():
    segs = segment_record_nonoverlap(_record(300))
    assert segs.start.tolist() == [0, 44]


def test_segmentation_deterministic():
    a = segment_record(_record(1000)).start.tolist()
    b = segment_record(_record(1000, seed=9)).start.tolist()
    assert a == b


def test_non_finite_window_rejected():
    rec = _record(1000, record_id="nan-rec")
    rec.samples[4, 300] = np.nan      # inside the windows at 64, 128, ..., 256
    with pytest.raises(DataError, match="non-finite segment from nan-rec@64"):
        segment_record(rec)


def test_non_finite_window_past_the_first_chunk_named():
    w = np.zeros((2 * CHUNK + 3, len(ALL_LEADS), WINDOW), np.float32)
    w[CHUNK + 5, 2, 7] = np.inf
    w[2 * CHUNK + 1, 0, 0] = np.nan
    n = len(w)
    with pytest.raises(DataError, match=f"non-finite segment from r{CHUNK + 5}@{CHUNK + 5}"):
        Segments(w=w, record_id=[f"r{i}" for i in range(n)], start=np.arange(n),
                 fold=[1] * n, labels=[frozenset()] * n)


def test_segments_finite_check_makes_no_whole_store_temporary():
    n = 3 * CHUNK + 5
    w = np.zeros((n, len(ALL_LEADS), WINDOW), np.float32)
    meta = dict(record_id=["r"] * n, start=np.arange(n), fold=[1] * n,
                labels=[frozenset()] * n)
    tracemalloc.start()
    try:
        Segments(w=w, **meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one CHUNK of booleans at a time, not an [N, 8, T] mask (a quarter of w)
    assert peak < w.nbytes / 8


def _old_extract(rec, offsets):
    """The windows as the fancy-index gather in float64, then cast."""
    rows = np.array([rec.lead_names.index(l) for l in ALL_LEADS])
    offsets = np.asarray(offsets, dtype=np.int64)
    return rec.samples[rows[None, :, None],
                       offsets[:, None, None] + np.arange(WINDOW)].astype(np.float32)


@pytest.mark.parametrize("n", [255, 256, 300, 319, 320, 512, 1000, 1001])
def test_windows_equal_a_gather_of_the_record(n):
    rec = _record(n, seed=n)
    rec.lead_names = list(reversed(ALL_LEADS))    # rows are picked by name
    for segs, offsets in (
            (segment_record(rec), range(0, n - WINDOW + 1, HOP)),
            (segment_record_nonoverlap(rec),
             sorted(set(range(0, n - WINDOW + 1, WINDOW))
                    | ({n - WINDOW} if n >= WINDOW else set())))):
        assert segs.start.tolist() == list(offsets)
        assert segs.w.dtype == np.float32
        assert np.array_equal(segs.w, _old_extract(rec, list(offsets)))


def test_segment_records_fills_one_array_record_by_record():
    recs = [_record(n, record_id=f"r{i}", fold=i + 1, seed=i)
            for i, n in enumerate((1000, 200, 600, 256))]
    recs[1].labels = DiagnosticLabels({"MI": 90.0, "NORM": 10.0})
    asked = []

    def lazily():
        for rec in recs:
            asked.append(rec.record_id)
            yield rec

    for nonoverlap, one in ((False, segment_record), (True, segment_record_nonoverlap)):
        asked.clear()
        segs = segment_records(lazily(), [r.n_samples for r in recs], nonoverlap)
        assert asked == ["r0", "r1", "r2", "r3"]
        parts = Segments.concat(one(r) for r in recs)
        assert np.array_equal(segs.w, parts.w)
        for f in ("record_id", "start", "fold", "labels"):
            assert getattr(segs, f).tolist() == getattr(parts, f).tolist()
    empty = segment_records([], [])
    assert empty.w.shape == (0, len(ALL_LEADS), WINDOW) and len(empty.labels) == 0


def test_segment_records_refuses_a_record_of_another_length():
    with pytest.raises(DataError, match="r holds 1000 samples, not the 1064"):
        segment_records([_record(1000)], [1064])


def test_segment_record_makes_no_float64_copy_of_its_windows():
    rec = _record(10_000)
    n_windows = len(range(0, 10_000 - WINDOW + 1, HOP))
    window_bytes = n_windows * len(ALL_LEADS) * WINDOW * 4
    tracemalloc.start()
    try:
        segment_record(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 windows and one float64 copy of the record's leads; a
    # float64 gather of the windows would add twice window_bytes
    assert peak < 1.5 * window_bytes + rec.samples.nbytes


def test_segments_indexing_and_concat():
    segs = segment_record(_record(1000))
    assert segs[3].start.tolist() == [192] and segs[-1].start.tolist() == [704]
    assert segs[2:5].start.tolist() == [128, 192, 256]
    assert segs[np.array([5, 0])].start.tolist() == [320, 0]
    mask = segs.start % 128 == 0
    picked = segs[mask]
    assert picked.start.tolist() == [0, 128, 256, 384, 512, 640]
    np.testing.assert_array_equal(picked.y, segs.y[mask])
    assert len(picked.labels) == 6
    both = Segments.concat([segs[:2], segs[10:]])
    assert both.start.tolist() == [0, 64, 640, 704]
    np.testing.assert_array_equal(both.x[2:], segs.x[10:])
    assert len(Segments.concat([])) == 0
    with pytest.raises(TypeError):
        iter(segs)


def test_record_missing_lead_rejected():
    rec = _record(256)
    rec.lead_names[0] = "X"
    with pytest.raises(DataError, match="missing leads"):
        segment_record(rec)


def _windows(full):
    # a batch from [N, 8, T] lead data, in canonical lead order
    n = len(full)
    return Segments(w=full, record_id=["r"] * n,
                    start=[0] * n, fold=[1] * n, labels=[frozenset()] * n)


def _segment_with_stat(value, seed=0):
    # scale a base segment so lead statistics track `value`
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(8, 256))
    base = base / np.abs(base).max()
    return _windows(base[None] * value)


def test_qc_bounds_uniform_grid_oracle():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(8, 256))
    values = np.linspace(0.0, 1.0, 1000)
    segs = _windows(base[None] * values[:, None, None] + 0.001)
    bounds = fit_qc_bounds(segment_stats(segs))
    # statistics scale linearly with v; percentile targets land near the
    # 0.1% / 99.9% grid points
    stats = segment_stats(segs)[0][:, 0]
    lo = np.percentile(stats, 0.1)
    hi = np.percentile(stats, 99.9)
    assert bounds.ptp_lo[0] == pytest.approx(lo, abs=1e-9)
    assert bounds.ptp_hi[0] == pytest.approx(hi, abs=1e-9)
    span = stats.max() - stats.min()
    assert abs(lo - stats.min()) / span < 0.002
    assert abs(hi - stats.max()) / span < 0.002


def test_qc_bounds_single_segment_degenerate():
    seg = _segment_with_stat(0.5)
    bounds = fit_qc_bounds(segment_stats(seg))
    np.testing.assert_allclose(bounds.ptp_lo, bounds.ptp_hi)
    np.testing.assert_allclose(bounds.rms_lo, bounds.rms_hi)


def test_qc_bounds_identical_segments():
    segs = Segments.concat([_segment_with_stat(0.5)] * 10)
    bounds = fit_qc_bounds(segment_stats(segs))
    np.testing.assert_allclose(bounds.ptp_lo, bounds.ptp_hi)


def test_apply_qc_boundary_is_kept():
    seg = _segment_with_stat(0.5)
    # bounds equal the statistic exactly
    bounds = fit_qc_bounds(segment_stats(seg))
    kept, rejected = apply_qc(seg, segment_stats(seg), bounds)
    assert len(kept) == 1 and np.array_equal(kept.x, seg.x) and rejected == []


def test_apply_qc_rejects_and_names_lead():
    segs = Segments.concat(_segment_with_stat(v) for v in np.linspace(0.4, 0.6, 50))
    bounds = fit_qc_bounds(segment_stats(segs))
    outlier = _segment_with_stat(5.0)
    both = Segments.concat([segs, outlier])
    kept, rejected = apply_qc(both, segment_stats(both), bounds)
    assert len(rejected) >= 1
    bad, reasons = rejected[-1]
    assert bad == len(segs)         # the outlier's row
    assert any(":" in r for r in reasons)
    lead = reasons[0].split(":")[0]
    assert lead in ALL_LEADS


def test_apply_qc_idempotent():
    segs = Segments.concat(_segment_with_stat(v, seed=i) for i, v in
                           enumerate(np.linspace(0.3, 0.7, 100)))
    bounds = fit_qc_bounds(segment_stats(segs))
    kept, _ = apply_qc(segs, segment_stats(segs), bounds)
    kept2, rejected2 = apply_qc(kept, segment_stats(kept), bounds)
    assert rejected2 == []
    assert len(kept2) == len(kept)


def _numbered_windows(n, seed=0):
    """n random float32 windows whose metadata columns all differ by row."""
    w = np.random.default_rng(seed).normal(size=(n, len(ALL_LEADS), WINDOW))
    return Segments(w=w.astype(np.float32), record_id=[f"r{i}" for i in range(n)],
                    start=np.arange(n) * 7, fold=np.arange(n) % 10 + 1,
                    labels=[frozenset({f"c{i % 5}"}) for i in range(n)])


def _masks(n):
    rng = np.random.default_rng(3)
    masks = {"none-rejected": np.ones(n, bool), "all-rejected": np.zeros(n, bool),
             "first-rejected": np.arange(n) != 0, "last-rejected": np.arange(n) != n - 1}
    for p in (0.02, 0.5, 0.95):
        masks[f"random-{p}"] = rng.random(n) > p
    return masks


def _address(array):
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize("name", list(_masks(1)))
def test_compact_equals_boolean_selection(name):
    n = 3 * CHUNK + 7                     # the masks cross BLOCK and CHUNK boundaries
    keep = _masks(n)[name]
    segs = _numbered_windows(n)
    want = segs[keep]                     # a copy, made before the rows move
    kept = compact(segs, keep)
    assert len(kept) == keep.sum()
    assert _address(kept.w) == _address(segs.w)    # a leading view, not a copy
    assert np.array_equal(kept.w, want.w)
    for f in ("record_id", "start", "fold", "labels"):
        assert getattr(kept, f).tolist() == getattr(want, f).tolist()


def test_apply_qc_compacts_in_place():
    segs = _numbered_windows(3 * CHUNK + 7)
    stats = segment_stats(segs)
    bounds = fit_qc_bounds(stats, lo_pct=5, hi_pct=95)
    ptp, rms = stats
    keep = ~((ptp < bounds.ptp_lo) | (ptp > bounds.ptp_hi)
             | (rms < bounds.rms_lo) | (rms > bounds.rms_hi)).any(axis=1)
    want = segs[keep]
    kept, rejected = apply_qc(segs, stats, bounds)
    assert 0 < len(rejected) and [i for i, _ in rejected] == np.flatnonzero(~keep).tolist()
    assert _address(kept.w) == _address(segs.w) and np.array_equal(kept.w, want.w)
    assert kept.record_id.tolist() == want.record_id.tolist()


def test_segment_stats_equal_per_window_float64():
    segs = _numbered_windows(3 * BLOCK + 5, seed=1)
    ptp, rms = segment_stats(segs)
    for i, w in enumerate(segs.w):
        w = w.astype(np.float64)
        assert np.array_equal(ptp[i], w.max(axis=-1) - w.min(axis=-1))
        assert np.array_equal(rms[i], np.sqrt(np.mean(np.square(w), axis=-1)))


def test_split_by_fold_examples():
    recs = [_record(300, record_id=f"r{f}", patient_id=f"p{f}", fold=f)
            for f in (1, 5, 9, 10)]
    splits = split_by_fold(recs)
    assert [r.record_id for r in splits["train"]] == ["r1", "r5"]
    assert [r.record_id for r in splits["val"]] == ["r9"]
    assert [r.record_id for r in splits["test"]] == ["r10"]


def test_split_partition_is_exhaustive():
    recs = [_record(300, record_id=f"r{i}", patient_id=f"p{i}", fold=(i % 10) + 1)
            for i in range(30)]
    splits = split_by_fold(recs)
    ids = [r.record_id for part in splits.values() for r in part]
    assert sorted(ids) == sorted(r.record_id for r in recs)


def test_split_detects_patient_leakage():
    recs = [_record(300, record_id="a", patient_id="p1", fold=3),
            _record(300, record_id="b", patient_id="p1", fold=10)]
    with pytest.raises(LeakageError):
        split_by_fold(recs)


def test_segment_store_round_trip(tmp_path):
    rec = _record(1000)
    segs = segment_record(rec)
    save_segments(tmp_path / "store", segs, qc_provenance={"fit_on": "train"})
    loaded, manifest = load_segments(tmp_path / "store")
    assert manifest["format"] == "ecgrecon-segstore-v1"
    assert manifest["qc"] == {"fit_on": "train"}
    assert len(loaded) == len(segs)
    np.testing.assert_array_equal(loaded.x, segs.x)
    np.testing.assert_array_equal(loaded.y, segs.y)
    for a, b in ((loaded.record_id, segs.record_id), (loaded.start, segs.start),
                 (loaded.fold, segs.fold)):
        assert a.tolist() == b.tolist()
    assert loaded.labels.tolist() == segs.labels.tolist()
    assert np.shares_memory(loaded.x, loaded.w) and np.shares_memory(loaded.y, loaded.w)


def test_save_segments_writes_the_windows_without_a_copy(tmp_path):
    segs = _windows(np.random.default_rng(0).normal(size=(1024, 8, 256)))
    tracemalloc.start()
    try:
        save_segments(tmp_path / "store", segs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the blob is written from the window array itself, not from a joined copy
    assert peak < segs.w.nbytes / 2


def test_chunked_yields_views_of_at_most_chunk_rows():
    rows = np.arange(600)
    parts = list(chunked(rows))
    assert [len(p) for p in parts] == [CHUNK, CHUNK, 600 - 2 * CHUNK]
    assert all(np.shares_memory(p, rows) for p in parts)
    np.testing.assert_array_equal(np.concatenate(parts), rows)
    assert list(chunked(rows[:0])) == []


def test_segment_store_missing_errors(tmp_path):
    with pytest.raises(DataError):
        load_segments(tmp_path / "nope")


def test_truncated_stores_are_data_errors(tmp_path):
    save_segments(tmp_path / "segs", segment_record(_record(1000)))
    save_vectors(tmp_path / "vecs", np.zeros((7, 128), dtype=np.float32))
    for prefix, load in (("segs", load_segments), ("vecs", load_vectors)):
        blob = tmp_path / f"{prefix}.f32"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(DataError, match="bytes, expected"):
            load(tmp_path / prefix)


def test_vector_store_round_trip(tmp_path):
    mat = np.random.default_rng(0).normal(size=(7, 128)).astype(np.float32)
    save_vectors(tmp_path / "vecs", mat, meta={"split": "train"})
    loaded, manifest = load_vectors(tmp_path / "vecs")
    np.testing.assert_array_equal(loaded, mat)
    assert manifest["meta"]["split"] == "train"
