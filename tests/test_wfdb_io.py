import numpy as np
import pytest

from ecgrecon import wfdb_io
from ecgrecon.errors import (ChecksumError, HeaderParseError, SchemaError,
                             TruncationError, UnsupportedFormatError)
from ecgrecon.wfdb_io import (DiagnosticLabels, SignalRecord, fold_to_split,
                              parse_header, parse_ptbxl_metadata, read_signals,
                              write_signals)

TWELVE_LEADS = ["I", "II", "III", "AVL", "AVR", "AVF",
                "V1", "V2", "V3", "V4", "V5", "V6"]


def _header_text(n_signals=12, fs=100, n_samples=1000):
    lines = [f"rec001 {n_signals} {fs} {n_samples}"]
    for lead in TWELVE_LEADS[:n_signals]:
        lines.append(f"rec001.dat 16 1000(0)/mV 16 0 0 0 0 {lead}")
    return "\n".join(lines) + "\n"


def test_parse_header_hand_built():
    h = parse_header(_header_text())
    assert h.record_name == "rec001"
    assert h.n_signals == 12
    assert h.fs == 100
    assert h.n_samples == 1000
    assert [s.lead_name for s in h.signals] == TWELVE_LEADS
    assert all(s.adc_gain == 1000 and s.baseline == 0 for s in h.signals)


def test_parse_header_ptbxl_style_line():
    text = ("HR00001 12 100 1000\n"
            + "\n".join(f"HR00001_lr.dat 16 1000.0(0)/mV 16 0 -119 -1508 0 {l}"
                        for l in TWELVE_LEADS) + "\n")
    h = parse_header(text)
    assert h.signals[0].adc_gain == 1000.0
    assert h.signals[0].checksum == -1508


def test_zero_signals_rejected():
    with pytest.raises(HeaderParseError):
        parse_header("rec001 0 100 1000\n")


def test_format_212_rejected():
    text = "rec001 1 100 10\nrec001.dat 212 1000(0)/mV 16 0 0 0 0 I\n"
    with pytest.raises(UnsupportedFormatError):
        parse_header(text)


def test_malformed_line_reports_line_number():
    text = "rec001 1 100 10\nrec001.dat 16 oops 16 0 0 0 0 I\n"
    with pytest.raises(HeaderParseError, match="line 2"):
        parse_header(text)


@pytest.mark.parametrize("units", ["uV", "V"])
def test_units_other_than_mv_rejected(units):
    """read_signals returns millivolts: a signal in other units is refused
    with the record, the line and the units, not scaled by 1000."""
    text = _header_text(n_signals=2).replace("/mV 16 0 0 0 0 II", f"/{units} 16 0 0 0 0 II")
    with pytest.raises(HeaderParseError, match=f"line 3: record rec001: signal units '{units}'"):
        parse_header(text)


def test_units_default_to_mv():
    h = parse_header("rec001 1 100 10\nrec001.dat 16 1000(0) 16 0 0 0 0 I\n")
    assert h.signals[0].units == "mV"


def _small_header(n_signals, n_samples, gain=1000.0, baseline=0):
    sigs = [wfdb_io.SignalSpec("r.dat", 16, gain, baseline, "mV",
                               lead_name=f"L{i}") for i in range(n_signals)]
    return wfdb_io.WfdbHeader("r", n_signals, 100.0, n_samples, sigs)


def test_read_signals_physical_conversion():
    h = _small_header(1, 2, gain=1000.0, baseline=1024)
    data = np.array([0, 2048], dtype="<i2").tobytes()
    rec = read_signals(h, data)
    assert rec.samples[0, 0] == pytest.approx(-1.024)
    assert rec.samples[0, 1] == pytest.approx((2048 - 1024) / 1000.0)


def test_read_signals_zero_case():
    h = _small_header(1, 1)
    rec = read_signals(h, np.array([0], dtype="<i2").tobytes())
    assert rec.samples[0, 0] == 0.0


def test_interleaving_two_signals():
    h = _small_header(2, 2, gain=1.0)
    data = np.array([10, 20, 11, 21], dtype="<i2").tobytes()  # a0 b0 a1 b1
    rec = read_signals(h, data)
    np.testing.assert_array_equal(rec.samples[0], [10, 11])
    np.testing.assert_array_equal(rec.samples[1], [20, 21])


def test_truncation_error():
    h = _small_header(2, 3)
    with pytest.raises(TruncationError):
        read_signals(h, b"\x00" * 10)


def _random_record(seed=0, n=100):
    rng = np.random.default_rng(seed)
    raw = rng.integers(-2000, 2000, size=(3, n))
    return SignalRecord(samples=raw / 1000.0, fs=100.0,
                        lead_names=["I", "II", "V2"], record_id="fix")


def test_round_trip_bit_exact():
    rec = _random_record()
    header, dat = write_signals(rec)
    rec2 = read_signals(header, dat, verify_checksum=True)
    header2, dat2 = write_signals(rec2)
    assert dat2 == dat
    np.testing.assert_array_equal(rec2.samples, rec.samples)


def test_conversion_affine_invertible():
    rng = np.random.default_rng(3)
    raw = rng.integers(-32000, 32000, size=500)
    gain, baseline = 775.0, -12
    mv = (raw - baseline) / gain
    back = np.round(mv * gain + baseline).astype(int)
    np.testing.assert_array_equal(back, raw)


@pytest.mark.parametrize("flip_idx", [0, 57, 299])
def test_checksum_detects_single_sample_flip(flip_idx):
    rec = _random_record(seed=1)
    header, dat = write_signals(rec)
    raw = np.frombuffer(dat, dtype="<i2").copy()
    raw[flip_idx] += 1
    with pytest.raises(ChecksumError):
        read_signals(header, raw.tobytes(), verify_checksum=True)
    # and verification off ingests it fine
    read_signals(header, raw.tobytes(), verify_checksum=False)


SCP_CSV = "code,description,diagnostic_class\nNORM,normal,NORM\nIMI,inferior MI,MI\n"


def _db_csv(rows):
    head = "ecg_id,patient_id,scp_codes,strat_fold,filename_lr\n"
    return head + "\n".join(rows) + "\n"


def test_metadata_single_entry_high_confidence():
    csv_text = _db_csv(['1,100,"{\'NORM\': 100.0}",1,records/00001_lr'])
    result = parse_ptbxl_metadata(csv_text, SCP_CSV)
    row = result.rows["1"]
    assert row.labels.likelihoods == {"NORM": 100.0}
    assert row.labels.high_confidence() == {"NORM"}
    assert row.labels.superclass["NORM"] == "NORM"


def test_metadata_threshold_80():
    csv_text = _db_csv(['2,101,"{\'IMI\': 50.0, \'NORM\': 80.0}",2,records/00002_lr'])
    result = parse_ptbxl_metadata(csv_text, SCP_CSV)
    assert result.rows["2"].labels.high_confidence() == {"NORM"}


def test_metadata_zero_likelihood_excluded():
    csv_text = _db_csv(['3,102,"{\'NORM\': 0.0}",3,records/00003_lr'])
    result = parse_ptbxl_metadata(csv_text, SCP_CSV)
    assert result.rows["3"].labels.high_confidence() == set()


def test_metadata_fold_partition_tags():
    csv_text = _db_csv([
        '1,100,"{\'NORM\': 100.0}",1,records/a',
        '2,101,"{\'NORM\': 100.0}",9,records/b',
        '3,102,"{\'NORM\': 100.0}",10,records/c'])
    result = parse_ptbxl_metadata(csv_text, SCP_CSV)
    tags = [fold_to_split(result.rows[k].fold) for k in ("1", "2", "3")]
    assert tags == ["train", "val", "test"]


def test_metadata_bad_literal_collected_and_skipped():
    csv_text = _db_csv([
        '1,100,"{\'NORM\': 100.0}",1,records/a',
        '2,101,"not a dict {",2,records/b'])
    result = parse_ptbxl_metadata(csv_text, SCP_CSV)
    assert set(result.rows) == {"1"}
    assert len(result.errors) == 1
    assert "ecg_id=2" in result.errors[0]


def test_metadata_missing_column_schema_error():
    bad = "ecg_id,patient_id,strat_fold\n1,100,1\n"
    with pytest.raises(SchemaError):
        parse_ptbxl_metadata(bad, SCP_CSV)


def test_labels_reject_out_of_range():
    with pytest.raises(ValueError):
        DiagnosticLabels(likelihoods={"NORM": 150.0})
