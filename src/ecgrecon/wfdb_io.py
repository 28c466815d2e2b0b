"""WFDB format-16 record I/O and PTB-XL metadata parsing.

Only signal format 16 (little-endian signed 16-bit, sample-interleaved)
is supported; everything else is rejected explicitly. Headers follow the
public WFDB grammar: one record line, then one line per signal.
"""

from __future__ import annotations

import ast
import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ChecksumError, DataError, HeaderParseError, SchemaError,
                     TruncationError, UnsupportedFormatError, read_text)

SUPPORTED_FORMAT = 16
WRITE_GAIN = 1000.0   # adc units per mV of every written signal
HIGH_CONFIDENCE_THRESHOLD = 80.0

# adc_gain token: gain, optional (baseline), optional /units
_GAIN_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?\d+)?)(?:\(([-+]?\d+)\))?(?:/(\S+))?$")


@dataclass
class SignalSpec:
    file_name: str
    format_code: int
    adc_gain: float
    baseline: int
    units: str
    adc_res: int = 16
    adc_zero: int = 0
    init_value: int = 0
    checksum: int = 0
    block_size: int = 0
    lead_name: str = ""


@dataclass
class WfdbHeader:
    record_name: str
    n_signals: int
    fs: float
    n_samples: int
    signals: list[SignalSpec]


@dataclass
class DiagnosticLabels:
    """SCP statement likelihoods (0-100) plus code -> diagnostic class."""

    likelihoods: dict[str, float] = field(default_factory=dict)
    superclass: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for code, lik in self.likelihoods.items():
            if not (0.0 <= lik <= 100.0):
                raise ValueError(f"likelihood for {code} outside [0,100]: {lik}")

    def high_confidence(self):
        """Codes with likelihood >= 80. Likelihood 0 (PTB-XL 'unknown')
        is below threshold by construction."""
        return {c for c, v in self.likelihoods.items() if v >= HIGH_CONFIDENCE_THRESHOLD}


@dataclass
class SignalRecord:
    """A multi-lead ECG in millivolts."""

    samples: np.ndarray          # [n_leads, n_samples], mV
    fs: float
    lead_names: list[str]
    record_id: str
    patient_id: str = ""
    labels: DiagnosticLabels = field(default_factory=DiagnosticLabels)
    fold: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] != len(self.lead_names):
            raise ValueError("lead_names length must equal sample matrix row count")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"non-finite samples in record {self.record_id}")

    @property
    def n_samples(self):
        return self.samples.shape[1]

    def lead(self, name):
        return self.samples[self.lead_names.index(name)]


def parse_header(text):
    """Parse a WFDB .hea file into a WfdbHeader."""
    lines = text.splitlines()
    content = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
               if ln.strip() and not ln.strip().startswith("#")]
    if not content:
        raise HeaderParseError("empty header")
    line_no, record_line = content[0]
    fields = record_line.split()
    if len(fields) < 4:
        raise HeaderParseError("record line needs name, n_signals, fs, n_samples", line_no)
    record_name = fields[0].split("/")[0]
    try:
        n_signals = int(fields[1])
        fs = float(fields[2].split("/")[0])
        n_samples = int(fields[3])
    except ValueError as exc:
        raise HeaderParseError(f"bad record line field: {exc}", line_no)
    if n_signals < 1:
        raise HeaderParseError(f"n_signals must be >= 1, got {n_signals}", line_no)
    if fs <= 0:
        raise HeaderParseError(f"fs must be > 0, got {fs}", line_no)
    if n_samples <= 0:
        raise HeaderParseError(f"n_samples must be > 0, got {n_samples}", line_no)
    if len(content) - 1 < n_signals:
        raise HeaderParseError(
            f"header declares {n_signals} signals but has {len(content) - 1} signal lines",
            line_no)

    signals = []
    for line_no, line in content[1:1 + n_signals]:
        parts = line.split()
        if len(parts) < 3:
            raise HeaderParseError("signal line needs file, format, gain", line_no)
        file_name = parts[0]
        fmt_token = parts[1].split("x")[0].split(":")[0].split("+")[0]
        try:
            format_code = int(fmt_token)
        except ValueError:
            raise HeaderParseError(f"bad format token {parts[1]!r}", line_no)
        if format_code != SUPPORTED_FORMAT:
            raise UnsupportedFormatError(
                f"line {line_no}: signal format {format_code} not supported (only 16)")
        m = _GAIN_RE.match(parts[2])
        if not m:
            raise HeaderParseError(f"bad gain token {parts[2]!r}", line_no)
        adc_gain = float(m.group(1))
        if adc_gain == 0:
            adc_gain = 200.0  # WFDB default for unspecified gain
        if adc_gain <= 0:
            raise HeaderParseError(f"adc_gain must be > 0, got {adc_gain}", line_no)
        units = m.group(3) or "mV"
        if units != "mV":   # read_signals returns millivolts
            raise HeaderParseError(f"record {record_name}: signal units {units!r}, "
                                   "not mV", line_no)

        def _int(idx, default=0):
            if len(parts) > idx:
                try:
                    return int(parts[idx])
                except ValueError:
                    raise HeaderParseError(f"bad integer field {parts[idx]!r}", line_no)
            return default

        adc_res = _int(3, 16)
        adc_zero = _int(4, 0)
        init_value = _int(5, adc_zero)
        checksum = _int(6, 0)
        block_size = _int(7, 0)
        lead_name = " ".join(parts[8:]) if len(parts) > 8 else ""
        baseline = int(m.group(2)) if m.group(2) is not None else adc_zero
        signals.append(SignalSpec(file_name, format_code, adc_gain, baseline, units,
                                  adc_res, adc_zero, init_value, checksum, block_size,
                                  lead_name))
    return WfdbHeader(record_name, n_signals, fs, n_samples, signals)


def _signal_checksum(raw_column):
    """16-bit signed wraparound sum of one signal's raw samples."""
    total = int(np.sum(raw_column, dtype=np.int64)) & 0xFFFF
    return total - 0x10000 if total >= 0x8000 else total


def read_signals(header, data, verify_checksum=False):
    """Decode a format-16 .dat byte string into a SignalRecord (mV)."""
    expected = 2 * header.n_signals * header.n_samples
    if len(data) != expected:
        raise TruncationError(
            f"{header.record_name}: expected {expected} bytes, got {len(data)}")
    raw = np.frombuffer(data, dtype="<i2").reshape(header.n_samples, header.n_signals)
    if verify_checksum:
        for i, sig in enumerate(header.signals):
            got = _signal_checksum(raw[:, i])
            if got != sig.checksum:
                raise ChecksumError(
                    f"{header.record_name} signal {sig.lead_name or i}: "
                    f"checksum {got} != declared {sig.checksum}")
    gains = np.array([s.adc_gain for s in header.signals])
    baselines = np.array([s.baseline for s in header.signals])
    mv = (raw.astype(np.float64) - baselines) / gains
    return SignalRecord(samples=mv.T, fs=header.fs,
                        lead_names=[s.lead_name for s in header.signals],
                        record_id=header.record_name)


def write_signals(rec):
    """Encode a SignalRecord as (header, dat_bytes) in format 16.

    Inverse of read_signals for representable values: raw = round(mV * WRITE_GAIN),
    with baseline 0.
    """
    with np.errstate(over="ignore"):    # a product past float64 is refused below
        raw = np.round(rec.samples * WRITE_GAIN)
    if raw.min() < -32768 or raw.max() > 32767:
        raise ValueError(f"{rec.record_id}: samples exceed int16 range at given gain")
    raw = raw.astype("<i2").T  # sample-interleaved
    signals = []
    for i, name in enumerate(rec.lead_names):
        signals.append(SignalSpec(
            file_name=f"{rec.record_id}.dat", format_code=SUPPORTED_FORMAT,
            adc_gain=WRITE_GAIN, baseline=0, units="mV", adc_res=16, adc_zero=0,
            init_value=int(raw[0, i]), checksum=_signal_checksum(raw[:, i]),
            block_size=0, lead_name=name))
    header = WfdbHeader(rec.record_id, len(rec.lead_names), rec.fs, rec.n_samples, signals)
    return header, raw.tobytes()


def format_header(header):
    """Render a WfdbHeader back to .hea text."""
    fs = int(header.fs) if float(header.fs).is_integer() else header.fs
    lines = [f"{header.record_name} {header.n_signals} {fs} {header.n_samples}"]
    for s in header.signals:
        gain = int(s.adc_gain) if float(s.adc_gain).is_integer() else s.adc_gain
        lines.append(
            f"{s.file_name} {s.format_code} {gain}({s.baseline})/{s.units} "
            f"{s.adc_res} {s.adc_zero} {s.init_value} {s.checksum} {s.block_size} "
            f"{s.lead_name}".rstrip())
    return "\n".join(lines) + "\n"


def write_record(rec, directory):
    """Write <record_id>.hea and <record_id>.dat under `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header, dat = write_signals(rec)
    (directory / f"{rec.record_id}.hea").write_text(format_header(header))
    (directory / f"{rec.record_id}.dat").write_bytes(dat)
    return header


def load_record(hea_path, verify_checksum=False):
    """Read a record given its .hea path; .dat is resolved next to it."""
    hea_path = Path(hea_path)
    return read_record(hea_path, parse_header(read_text(hea_path)), verify_checksum)


def read_record(hea_path, header, verify_checksum):
    """The record whose .hea file `hea_path` parsed to `header`; .dat is
    resolved next to it."""
    dat_path = Path(hea_path).parent / header.signals[0].file_name
    if not dat_path.is_file():
        raise DataError(f"signal file missing: {dat_path}")
    return read_signals(header, dat_path.read_bytes(), verify_checksum=verify_checksum)


@dataclass
class PtbxlRow:
    ecg_id: str
    patient_id: str
    fold: int
    labels: DiagnosticLabels
    filename_lr: str


@dataclass
class MetadataResult:
    rows: dict[str, PtbxlRow]
    errors: list[str]


def fold_to_split(fold):
    """PTB-XL protocol: folds 1-8 train, 9 validation, 10 test."""
    if 1 <= fold <= 8:
        return "train"
    if fold == 9:
        return "val"
    if fold == 10:
        return "test"
    raise ValueError(f"fold must be in 1..10, got {fold}")


def _parse_scp_statements(scp_csv):
    reader = csv.DictReader(io.StringIO(scp_csv))
    if reader.fieldnames is None or "diagnostic_class" not in reader.fieldnames:
        raise SchemaError("scp_statements CSV missing 'diagnostic_class' column")
    key = reader.fieldnames[0]
    mapping = {}
    for row in reader:
        mapping[row[key]] = row.get("diagnostic_class") or ""
    return mapping


def parse_ptbxl_metadata(csv_text, scp_csv_text):
    """Parse PTB-XL database + statements CSVs.

    Returns a MetadataResult: rows keyed by ecg_id, plus a report of
    skipped rows (unparseable scp_codes literals). An ecg_id on two rows
    is a DataError naming both.
    """
    class_of = _parse_scp_statements(scp_csv_text)
    reader = csv.DictReader(io.StringIO(csv_text))
    required = {"ecg_id", "patient_id", "scp_codes", "strat_fold", "filename_lr"}
    have = set(reader.fieldnames or [])
    missing = required - have
    if missing:
        raise SchemaError(f"metadata CSV missing columns: {sorted(missing)}")
    rows, errors, line_of = {}, [], {}
    for i, row in enumerate(reader, start=2):
        ecg_id = row["ecg_id"]
        if ecg_id in line_of:
            raise DataError(f"ecg_id {ecg_id} is on rows {line_of[ecg_id]} and {i}")
        line_of[ecg_id] = i
        try:
            codes = ast.literal_eval(row["scp_codes"])
            if not isinstance(codes, dict):
                raise ValueError("scp_codes is not a mapping")
            likelihoods = {str(c): float(v) for c, v in codes.items()}
            labels = DiagnosticLabels(
                likelihoods=likelihoods,
                superclass={c: class_of.get(c, "") for c in likelihoods})
            fold = int(row["strat_fold"])
            fold_to_split(fold)
        except (ValueError, SyntaxError) as exc:
            errors.append(f"row {i} (ecg_id={ecg_id}): {exc}")
            continue
        rows[str(ecg_id)] = PtbxlRow(
            ecg_id=str(ecg_id), patient_id=str(row["patient_id"]),
            fold=fold, labels=labels, filename_lr=row["filename_lr"])
    return MetadataResult(rows=rows, errors=errors)
