import json

import numpy as np
import pytest
from scipy import ndimage

from ecgrecon import cli, dsp
from ecgrecon.cli import main
from ecgrecon.dsp import (FilterSpec, bandpass_filter, baseline_remove,
                          clean_signal, design_bandpass, detect_r_peaks,
                          notch_filter, resample_to_100hz)
from ecgrecon.errors import DataError, FilterSpecError, UnsupportedRateError
from ecgrecon.synth import builtin_class_specs, generate_record
from ecgrecon.wfdb_io import SignalRecord, load_record, write_record

from _utils import mixed_rate_corpus


def _rms(x):
    return np.sqrt(np.mean(np.square(x)))


def _tone(freq, fs, seconds):
    t = np.arange(int(seconds * fs)) / fs
    return np.sin(2 * np.pi * freq * t)


def _gain_db(filt, freq, fs, seconds=10.0, settle=1.0):
    x = _tone(freq, fs, seconds)
    y = filt(x, fs)
    s = int(settle * fs)
    return 20 * np.log10(_rms(y[s:-s]) / _rms(x[s:-s]))


def test_notch_attenuates_50hz():
    assert _gain_db(notch_filter, 50.0, 200.0) <= -20.0


def test_notch_passes_5hz():
    assert abs(_gain_db(notch_filter, 5.0, 200.0)) <= 0.5


def test_notch_zero_in_zero_out():
    out = notch_filter(np.zeros(1000), 200.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_notch_rejects_nyquist_spec():
    with pytest.raises(FilterSpecError):
        notch_filter(np.zeros(100), 100.0)  # 50 Hz == Nyquist


def test_bandpass_passes_10hz():
    assert abs(_gain_db(bandpass_filter, 10.0, 100.0)) <= 0.5


def test_bandpass_rejects_dc():
    out = bandpass_filter(np.ones(2000), 100.0)
    assert np.abs(out[500:1500]).max() < 1e-3


def test_bandpass_attenuates_49hz():
    assert _gain_db(bandpass_filter, 49.0, 100.0) <= -20.0


def test_bandpass_attenuates_005hz():
    x = _tone(0.05, 100.0, 80.0)
    y = bandpass_filter(x, 100.0)
    s = 2000
    db = 20 * np.log10(_rms(y[s:-s]) / _rms(x[s:-s]))
    assert db <= -20.0


def test_bandpass_no_fallback_needed_at_100hz():
    _, high, fell_back = design_bandpass(100.0)
    assert high == 45.0 and not fell_back


def test_design_bandpass_returns_callers_own_copy():
    sos, _, _ = design_bandpass(100.0)
    want = sos.copy()
    assert sos.flags.writeable
    sos[:] = 0.0
    np.testing.assert_array_equal(design_bandpass(100.0)[0], want)


def _assert_cleaned_record_by_record(raw, pre, want_dir, n):
    """Each cleaned record R0..R<n-1> under `pre` has the bytes of
    `clean_signal` of its raw record alone, written to `want_dir`."""
    for i in range(n):
        rec = load_record(raw / "records" / f"R{i}.hea")
        write_record(SignalRecord(clean_signal(rec.samples, rec.fs), 100.0,
                                  rec.lead_names, rec.record_id), want_dir)
        for ext in (".dat", ".hea"):
            assert ((pre / "cleaned" / f"R{i}{ext}").read_bytes()
                    == (want_dir / f"R{i}{ext}").read_bytes())


def test_preprocess_designs_one_bandpass_per_rate(tmp_path, monkeypatch):
    raw, pre = tmp_path / "raw", tmp_path / "pre"
    mixed_rate_corpus(raw)
    butter = dsp.signal.butter
    designs = []

    def counting_butter(*args, **kwargs):
        if kwargs.get("btype") == "bandpass":
            designs.append(kwargs["fs"])
        return butter(*args, **kwargs)

    dsp._bandpass_sos.cache_clear()
    monkeypatch.setattr(dsp.signal, "butter", counting_butter)
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
    assert sorted(designs) == [100.0, 500.0]
    _assert_cleaned_record_by_record(raw, pre, tmp_path / "want", 4)


def test_preprocess_chunks_clean_as_record_by_record(tmp_path, monkeypatch):
    """Records of one rate and shape are cleaned as one stack, at most
    CLEAN_CHUNK_SAMPLES raw samples of them (here three 10-s 100 Hz
    records), and a new rate or length starts a new chunk. Every cleaned
    file is byte-identical to cleaning its record alone, and the index
    keeps the database's order."""
    layout = ([(100.0, 10.0)] * 4 + [(100.0, 40.0)] + [(100.0, 10.0)] * 2
              + [(500.0, 10.0)] * 2 + [(100.0, 40.0)] * 2 + [(100.0, 10.0)])
    raw, pre = tmp_path / "raw", tmp_path / "pre"
    mixed_rate_corpus(raw, layout)
    clean, chunks = dsp.clean_signal, []

    def recorded(samples, fs, spec=None):
        chunks.append((len(samples), fs))
        return clean(samples, fs, spec)

    monkeypatch.setattr(cli, "CLEAN_CHUNK_SAMPLES", 3 * 8 * 1000)
    monkeypatch.setattr(dsp, "clean_signal", recorded)
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
    monkeypatch.undo()
    assert chunks == [(3, 100.0), (1, 100.0), (1, 100.0), (2, 100.0), (1, 500.0),
                      (1, 500.0), (1, 100.0), (1, 100.0), (1, 100.0)]
    index = json.loads((pre / "records_index.json").read_text())
    assert [e["record_id"] for e in index] == [f"R{i}" for i in range(len(layout))]
    _assert_cleaned_record_by_record(raw, pre, tmp_path / "want", len(layout))


def test_preprocess_fails_on_the_first_bad_record_as_record_by_record(tmp_path, capsys):
    """R1's 50 Hz cannot hold the 45 Hz band edge (exit 2) and R2 of the
    same rate and shape has no signal file (exit 4): R1 is cleaned before
    R2's load error propagates, so R1's error is the one reported."""
    raw = tmp_path / "raw"
    mixed_rate_corpus(raw, [(100.0, 10.0), (50.0, 10.0), (50.0, 10.0)])
    (raw / "records" / "R2.dat").unlink()
    assert main(["preprocess", "--out", str(tmp_path / "pre"), "--data", str(raw)]) == 2
    assert "invalid for fs=50.0" in capsys.readouterr().err


@pytest.mark.parametrize("fs", [100.0, 500.0])
def test_preprocess_short_record_exit_4_naming_the_first(tmp_path, capsys, fs):
    """A record of 27 samples is no longer than the band-pass's edge pad:
    a data error that names it. R2, as short and of the same rate, also
    lacks its signal file; R1 is cleaned first, so R1 is the one named."""
    raw = tmp_path / "raw"
    mixed_rate_corpus(raw, [(fs, 10.0), (fs, 27 / fs), (fs, 27 / fs)])
    (raw / "records" / "R2.dat").unlink()
    assert main(["preprocess", "--out", str(tmp_path / "pre"), "--data", str(raw)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data: record R1: 27 samples") and "R2" not in err


@pytest.mark.parametrize("fs, n, ok", [(100.0, 27, False), (100.0, 28, True),
                                       (500.0, 9, False), (500.0, 27, False),
                                       (500.0, 28, True), (100.0, 1, False)])
def test_clean_signal_needs_more_samples_than_the_edge_pad(fs, n, ok):
    """Each zero-phase filter (a 3-tap notch at 500 Hz, the 9-tap band-pass
    and anti-alias cascades) pads an edge with three times its taps."""
    x = np.random.default_rng(0).normal(size=(8, n))
    if ok:
        assert clean_signal(x, fs).shape == (8, n * 100 // int(fs))
    else:
        with pytest.raises(DataError, match=f"{n} samples at {fs:g} Hz"):
            clean_signal(x, fs)


def test_preprocess_designs_notch_and_anti_alias_once_per_chunk(tmp_path, monkeypatch):
    """Above 100 Hz the notch and the anti-alias low-pass are designed on
    each `clean_signal` call: once per chunk of records, not per record.
    The 500 Hz chunks clean as record by record."""
    n, samples = 5, 8 * 5000        # 10-s records of 8 leads at 500 Hz
    raw, pre = tmp_path / "raw", tmp_path / "pre"
    mixed_rate_corpus(raw, [(500.0, 10.0)] * n)
    butter, iirnotch, designs = dsp.signal.butter, dsp.signal.iirnotch, []

    def counting_butter(*args, **kwargs):
        designs.append(kwargs.get("btype"))
        return butter(*args, **kwargs)

    def counting_iirnotch(*args, **kwargs):
        designs.append("notch")
        return iirnotch(*args, **kwargs)

    monkeypatch.setattr(dsp.signal, "butter", counting_butter)
    monkeypatch.setattr(dsp.signal, "iirnotch", counting_iirnotch)
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
    per_chunk = cli.CLEAN_CHUNK_SAMPLES // samples
    n_chunks = -(-n // per_chunk)
    assert 1 < n_chunks < n
    assert designs.count("low") == n_chunks
    assert designs.count("notch") == n_chunks
    _assert_cleaned_record_by_record(raw, pre, tmp_path / "want", n)


def test_filters_length_preserving_and_linear():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=1000), rng.normal(size=1000)
    for filt in (notch_filter, bandpass_filter):
        fx, fy = filt(x, 200.0), filt(y, 200.0)
        combo = filt(2.0 * x + 3.0 * y, 200.0)
        assert len(fx) == len(x)
        np.testing.assert_allclose(combo, 2.0 * fx + 3.0 * fy, rtol=1e-9, atol=1e-9)


def test_zero_phase_no_lag():
    fs = 100.0
    x = _tone(10.0, fs, 10.0)
    y = bandpass_filter(x, fs)
    s = slice(200, 800)
    lags = np.arange(-4, 5)  # under half the 10-sample period, avoids aliases
    corr = [np.dot(x[s], np.roll(y, l)[s]) for l in lags]
    assert lags[int(np.argmax(corr))] == 0


def test_baseline_constant_cancels():
    out = baseline_remove(np.full(500, 1.0), 100.0)
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_baseline_offset_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    a = baseline_remove(x, 100.0)
    b = baseline_remove(x + 3.25, 100.0)
    np.testing.assert_allclose(a, b, atol=1e-9)


def _nd_baseline_remove(x, fs):
    """The two median stages as one n-D filter over time only: the reference
    that the per-lead running medians of `baseline_remove` must equal."""
    spec = FilterSpec()
    lead_axes = (1,) * (x.ndim - 1)
    baseline = x
    for seconds in (spec.median_win_short, spec.median_win_long):
        w = dsp._odd_window(seconds, fs)
        baseline = ndimage.median_filter(baseline, size=lead_axes + (w,), mode="reflect")
    return x - baseline


@pytest.mark.parametrize("shape", [(1000,), (8, 1000), (2, 8, 1000), (8, 5), (8, 1),
                                   (3, 0), (0, 100)])
def test_baseline_rows_equal_nd_median_filter(shape):
    x = np.random.default_rng(6).normal(size=shape)
    out = baseline_remove(x, 100.0)
    assert out.shape == shape
    np.testing.assert_array_equal(out, _nd_baseline_remove(x, 100.0))


def _brute_baseline_remove(x, fs):
    """The two median stages by definition: np.median over each window of
    every row, the row extended by whole-sample reflection (scipy's
    "reflect": d c b a | a b c d | d c b a ...), as far as the window needs."""
    spec = FilterSpec()
    baseline = x
    for seconds in (spec.median_win_short, spec.median_win_long):
        w = dsp._odd_window(seconds, fs)
        n, p = x.shape[-1], w // 2
        at = np.arange(-p, n + p) % (2 * n)
        padded = baseline[..., np.where(at < n, at, 2 * n - 1 - at)]
        baseline = np.median(np.lib.stride_tricks.sliding_window_view(padded, w, axis=-1),
                             axis=-1)
    return x - baseline


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 11, 30, 31, 100])
def test_baseline_rows_shorter_than_the_window_equal_definition(n):
    """Rows shorter than the 61-sample long window reflect more than once.
    scipy's 1-D running-median kernel, called on such a row alone, returns
    values that are no sample of it (n = 2 and 4)."""
    x = np.random.default_rng(n).normal(size=(4, n))
    np.testing.assert_array_equal(baseline_remove(x, 100.0), _brute_baseline_remove(x, 100.0))


def test_baseline_kills_slow_wander_keeps_impulses():
    fs = 100.0
    t = np.arange(3000) / fs
    wander = 1.0 * np.sin(2 * np.pi * 0.1 * t)
    impulses = np.zeros_like(t)
    peak_idx = np.arange(100, 2900, 90)
    impulses[peak_idx] = 1.5
    out = baseline_remove(wander + impulses, fs)
    residual = out.copy()
    residual[peak_idx] = 0.0
    # ignore a couple of samples around each impulse
    for i in peak_idx:
        residual[max(0, i - 2):i + 3] = 0.0
    atten_db = 20 * np.log10(_rms(residual[200:-200]) / _rms(wander[200:-200]))
    assert atten_db <= -10.0
    recovered = out[peak_idx]
    np.testing.assert_allclose(recovered, 1.5, rtol=0.1)


def test_resample_identity_at_100hz():
    x = np.random.default_rng(2).normal(size=500)
    np.testing.assert_array_equal(resample_to_100hz(x, 100.0), x)


def test_resample_length_1000hz():
    assert len(resample_to_100hz(np.zeros(1000), 1000.0)) == 100


def test_resample_preserves_5hz_amplitude():
    x = _tone(5.0, 1000.0, 10.0)
    y = resample_to_100hz(x, 1000.0)
    s = 100
    db = 20 * np.log10(_rms(y[s:-s]) / _rms(x[1000:-1000]))
    assert abs(db) <= 0.5


def test_resample_rejects_non_integer_ratio():
    with pytest.raises(UnsupportedRateError):
        resample_to_100hz(np.zeros(100), 250.0)


def _qrs_train(fs, peak_idx, n, width=0.012, amp=1.0, noise=0.0, seed=0):
    t = np.arange(n) / fs
    x = np.zeros(n)
    for p in peak_idx:
        x += amp * np.exp(-0.5 * ((t - p / fs) / width) ** 2)
    if noise:
        x += np.random.default_rng(seed).normal(0, noise, size=n)
    return x


def test_rpeaks_within_3_samples():
    fs = 100.0
    truth = [100, 200, 300]
    x = _qrs_train(fs, truth, 400)
    peaks = detect_r_peaks(x, fs)
    assert len(peaks) == 3
    for p, want in zip(peaks, truth):
        assert abs(p - want) <= 3


def test_rpeaks_empty_for_flat():
    assert detect_r_peaks(np.zeros(500), 100.0) == []


def test_rpeaks_single_beat():
    x = _qrs_train(100.0, [150], 300)
    peaks = detect_r_peaks(x, 100.0)
    assert len(peaks) == 1
    assert 147 <= peaks[0] <= 153


def test_rpeaks_strictly_increasing_with_refractory():
    fs = 100.0
    truth = list(range(80, 2900, 70))
    x = _qrs_train(fs, truth, 3000, noise=0.02, seed=4)
    peaks = detect_r_peaks(x, fs)
    diffs = np.diff(peaks)
    assert np.all(diffs >= 0.2 * fs)
    assert np.all(diffs > 0)


def test_rpeaks_sensitivity_under_noise():
    fs = 100.0
    hits = total = 0
    for seed in range(5):
        truth = list(range(100, 5900, 80))
        x = _qrs_train(fs, truth, 6000, noise=0.02, seed=seed)
        peaks = np.array(detect_r_peaks(x, fs))
        total += len(truth)
        for want in truth:
            if len(peaks) and np.min(np.abs(peaks - want)) <= 3:
                hits += 1
    assert hits / total >= 0.99


def test_clean_signal_chain_runs():
    rng = np.random.default_rng(5)
    x = _qrs_train(100.0, [100, 200, 300], 400) + 0.3 + rng.normal(0, 0.02, 400)
    y = clean_signal(x, 100.0)
    assert len(y) == 400
    assert abs(np.mean(y)) < 0.05


def _per_lead_chain(samples, fs):
    """The cleaning chain applied one lead at a time, step by step."""
    spec = FilterSpec()
    out = []
    for x in samples:
        if spec.notch_freq < fs / 2.0:
            x = notch_filter(x, fs, spec)
        x = bandpass_filter(x, fs, spec)
        x = resample_to_100hz(x, fs)
        out.append(baseline_remove(x, 100.0, spec))
    return np.stack(out)


@pytest.mark.parametrize("fs", [100.0, 500.0, 1000.0])
def test_clean_signal_whole_record_matches_per_lead_chain(fs):
    rec = generate_record(builtin_class_specs()[1], 10.0, fs, seed=3)
    out = clean_signal(rec.samples, fs)
    assert out.shape == (8, 1000)
    np.testing.assert_array_equal(out, _per_lead_chain(rec.samples, fs))


@pytest.mark.parametrize("fs", [100.0, 500.0, 1000.0])
def test_clean_signal_stack_matches_each_record_alone(fs):
    records = [generate_record(spec, 10.0, fs, seed=i).samples
               for i, spec in enumerate(builtin_class_specs()[:3])]
    out = clean_signal(np.stack(records), fs)
    assert out.shape == (3, 8, 1000)
    for samples, row in zip(records, out):
        np.testing.assert_array_equal(row, clean_signal(samples, fs))


def test_rpeaks_batch_matches_row_calls():
    rec = generate_record(builtin_class_specs()[0], 30.0, 100.0, seed=2)
    x = np.stack([rec.lead("II")[i * 64:i * 64 + 256] for i in range(40)])
    x[3] = 0.0
    peaks = detect_r_peaks(x, 100.0)
    assert peaks == [detect_r_peaks(row, 100.0) for row in x]
    assert peaks[3] == []
    assert all(peaks[i] for i in range(40) if i != 3)


def test_filterspec_serialization_round_trip():
    spec = FilterSpec(notch_freq=60.0, bandpass_high=40.0)
    assert FilterSpec.from_dict(spec.to_dict()) == spec
