import dataclasses
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ecgrecon.dataset import ALL_LEADS
from ecgrecon.synth import (SynthClassSpec, builtin_class_specs, generate_corpus,
                            generate_record)


def _single_qrs_spec(amp=1.0, lead="V3"):
    waves = {lead: [(0.30, 0.012, amp)]}
    return SynthClassSpec("TEST", waves, hr_range=(60.0, 60.0),
                          noise_sigma=0.0, wander_amp=0.0)


def test_closed_form_single_beat():
    spec = _single_qrs_spec()
    fs, hr = 100.0, 60.0
    rec = generate_record(spec, duration=1.0, fs=fs, seed=0, heart_rate=hr)
    t = np.arange(100) / fs
    expect = np.exp(-0.5 * ((t - 0.30) / 0.012) ** 2)
    got = rec.lead("V3")
    assert np.max(np.abs(got - expect)) < 1e-9
    np.testing.assert_allclose(rec.lead("I"), 0.0, atol=1e-30)


def test_same_seed_bit_identical():
    spec = builtin_class_specs()[0]
    a = generate_record(spec, 10.0, 100.0, seed=42)
    b = generate_record(spec, 10.0, 100.0, seed=42)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_labels_attached():
    spec = builtin_class_specs()[1]
    rec = generate_record(spec, 10.0, 100.0, seed=0)
    assert rec.labels.likelihoods == {"TALLR": 100.0}
    assert rec.labels.high_confidence() == {"TALLR"}


def _whole_record(spec, duration, fs, seed, amp_scale=None):
    """generate_record with every bump evaluated over the whole record."""
    rng = np.random.default_rng(seed)
    period = 60.0 / rng.uniform(*spec.hr_range)
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    wander_phase = rng.uniform(0.0, 2.0 * np.pi)
    n_beats = int(np.ceil(duration / period)) + 1
    samples = np.zeros((len(ALL_LEADS), n))
    for li, lead in enumerate(ALL_LEADS):
        sig = np.zeros(n)
        scale = (amp_scale or {}).get(lead, 1.0)
        for center, width, amp in spec.waves.get(lead, []):
            for k in range(-1, n_beats + 1):
                mu = (k + center) * period
                sig += (amp * scale) * np.exp(-0.5 * ((t - mu) / width) ** 2)
        sig = sig + spec.wander_amp * np.sin(
            2.0 * np.pi * spec.wander_freq * t + wander_phase)
        samples[li] = sig
    return samples + rng.normal(0.0, spec.noise_sigma, size=samples.shape)


_NORM = builtin_class_specs()[0]
# per-lead widths, an R wave twice as wide on V2 as on I, and V1 with no waves
_CUSTOM = SynthClassSpec("CUSTOM", {"I": [(0.15, 0.02, 0.1), (0.3, 0.01, 1.0)],
                                    "V1": [],
                                    "V2": [(0.3, 0.02, -0.6), (0.55, 0.08, 0.3)],
                                    "V5": [(0.3, 0.004, 0.9)]},
                         hr_range=(100.0, 100.0), noise_sigma=0.0, wander_amp=0.0)
# one (center, width) on two leads with amplitudes of opposite sign, and
# twice on II: a lead that scaled the shared block in place would show here
_SHARED = SynthClassSpec("SHARED", {"I": [(0.3, 0.012, 1.0), (0.5, 0.06, 0.3)],
                                    "II": [(0.3, 0.012, -0.7), (0.5, 0.06, -0.2),
                                           (0.3, 0.012, 0.4)]},
                         hr_range=(70.0, 70.0), noise_sigma=0.0, wander_amp=0.0)
_TALLR = builtin_class_specs()[1]
# a per-lead scale within the 0.8 to 1.2 that generate_corpus draws from
_AMP_SCALE = {lead: 0.8 + 0.4 * i / (len(ALL_LEADS) - 1) for i, lead in enumerate(ALL_LEADS)}


@pytest.mark.parametrize("spec, duration, fs, amp_scale", [
    *[pytest.param(spec, 30.0, 100.0, None, id=spec.class_name)
      for spec in builtin_class_specs()],
    pytest.param(_NORM, 10.0, 500.0, None, id="NORM-500hz"),
    pytest.param(_NORM, 10.0, 1000.0, None, id="NORM-1000hz"),
    pytest.param(_NORM, 0.01, 100.0, None, id="NORM-one-sample"),
    pytest.param(_NORM, 0.5, 100.0, None, id="NORM-shorter-than-a-beat"),
    pytest.param(_NORM, 40.0, 100.0, None, id="NORM-40s"),
    pytest.param(_CUSTOM, 10.0, 100.0, None, id="CUSTOM"),
    pytest.param(_CUSTOM, 10.0, 1000.0, None, id="CUSTOM-1000hz"),
    pytest.param(dataclasses.replace(_NORM, wander_amp=0.0), 10.0, 100.0, None,
                 id="NORM-no-wander"),
    pytest.param(dataclasses.replace(_NORM, noise_sigma=0.0), 10.0, 100.0, None,
                 id="NORM-no-noise"),
    pytest.param(_TALLR, 10.0, 100.0, _AMP_SCALE, id="TALLR-amp-scale"),
    pytest.param(_SHARED, 10.0, 100.0, None, id="SHARED"),
    pytest.param(_SHARED, 10.0, 500.0, None, id="SHARED-500hz"),
    pytest.param(_CUSTOM, 10.0, 1000.0, _AMP_SCALE, id="CUSTOM-amp-scale-1000hz"),
])
def test_bumps_rendered_locally_match_whole_record(spec, duration, fs, amp_scale):
    rec = generate_record(spec, duration, fs, seed=11, amp_scale=amp_scale)
    np.testing.assert_array_equal(rec.samples,
                                  _whole_record(spec, duration, fs, 11, amp_scale))


def test_synth_rates_tool_prints_four_rates():
    """`tools/synth_rates.py`, which shows a change to rendering keeps its
    bytes, runs and prints one line per (rate, length) with a sha256."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "synth_rates.py"
    done = subprocess.run([sys.executable, str(tool), "--records", "1"],
                          capture_output=True, text=True, check=True, timeout=300)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(line["fs"], line["seconds"]) for line in lines] == [
        (100.0, 10.0), (100.0, 40.0), (500.0, 10.0), (1000.0, 30.0)]
    assert all(re.fullmatch("[0-9a-f]{64}", line["sha256"]) for line in lines)


def test_narrow_wave_pads_its_block_without_overflow_warning():
    # the bump covers only the sample at its center, and only beat 0's center
    # (t = 0) is that exact; padding the other beats' empty windows to one
    # sample squares past the float range
    spec = SynthClassSpec("NARROW", {"I": [(0.0, 1e-300, 1.0)]}, hr_range=(60.0, 60.0),
                          noise_sigma=0.0, wander_amp=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = generate_record(spec, 3.0, 100.0, seed=0)
    expect = np.zeros(300)
    expect[0] = 1.0
    np.testing.assert_array_equal(rec.lead("I"), expect)


def test_disjoint_qrs_amplitudes_separate_classes():
    lo = _single_qrs_spec(amp=1.0)
    hi = _single_qrs_spec(amp=2.0)
    lo.noise_sigma = hi.noise_sigma = 0.02
    peaks = {"lo": [], "hi": []}
    for name, spec in (("lo", lo), ("hi", hi)):
        for seed in range(50):
            rec = generate_record(spec, 2.0, 100.0, seed=seed, heart_rate=60.0)
            peaks[name].append(rec.lead("V3").max())
    gap = np.mean(peaks["hi"]) - np.mean(peaks["lo"])
    assert gap > 5 * 0.02


def test_corpus_counts_and_fold_balance():
    specs = builtin_class_specs()[:3]
    records = generate_corpus(specs, n_patients_per_class=10,
                              records_per_patient=2, seed=0)
    assert len(records) == 60
    patients = {r.patient_id for r in records}
    assert len(patients) == 30
    fold_patients = {}
    for r in records:
        fold_patients.setdefault(r.fold, set()).add(r.patient_id)
    counts = [len(v) for v in fold_patients.values()]
    assert max(counts) - min(counts) <= 1


def test_corpus_patient_fold_consistency():
    records = generate_corpus(builtin_class_specs()[:1], 1, 4, seed=3)
    folds = {r.fold for r in records}
    assert len(folds) == 1


def test_corpus_seed_changes_content_not_shape():
    specs = builtin_class_specs()[:2]
    a = generate_corpus(specs, 3, 2, seed=0)
    b = generate_corpus(specs, 3, 2, seed=1)
    assert [r.record_id for r in a] == [r.record_id for r in b]
    assert [r.fold for r in a] == [r.fold for r in b]
    assert any(not np.array_equal(x.samples, y.samples) for x, y in zip(a, b))


def test_intra_patient_similarity_exceeds_inter():
    records = generate_corpus(builtin_class_specs()[:1], 20, 2, seed=7,
                              duration=10.0)
    by_patient = {}
    for r in records:
        by_patient.setdefault(r.patient_id, []).append(r.lead("V4"))
    intra, inter = [], []
    patients = sorted(by_patient)
    for p in patients:
        a, b = by_patient[p]
        intra.append(np.corrcoef(a, b)[0, 1])
    for i in range(len(patients) - 1):
        a = by_patient[patients[i]][0]
        b = by_patient[patients[i + 1]][0]
        inter.append(np.corrcoef(a, b)[0, 1])
    assert np.mean(intra) > np.mean(inter)


def test_invalid_hr_range_rejected():
    with pytest.raises(ValueError):
        SynthClassSpec("X", {"I": [(0.3, 0.01, 1.0)]}, hr_range=(20.0, 60.0))


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        SynthClassSpec("X", {"I": [(0.3, 0.0, 1.0)]})


def test_spec_json_round_trip():
    spec = builtin_class_specs()[2]
    back = SynthClassSpec.from_dict(spec.to_dict())
    assert back == spec


def test_record_covers_all_pipeline_leads():
    rec = generate_record(builtin_class_specs()[0], 10.0, 100.0, seed=0)
    assert set(ALL_LEADS) <= set(rec.lead_names)
