"""Windowing, quality control, patient-wise splits, and segment stores.

Lead roles are fixed: inputs (I, II, V2), targets (V1, V3, V4, V5, V6).
Stores are a JSON manifest plus a raw little-endian float32 blob,
row-major, so they are language-neutral and memory-mappable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, LeakageError, json_field, read_json, require_finite
from .wfdb_io import fold_to_split

INPUT_LEADS = ("I", "II", "V2")
TARGET_LEADS = ("V1", "V3", "V4", "V5", "V6")
ALL_LEADS = INPUT_LEADS + TARGET_LEADS
WINDOW = 256
HOP = 64
CHUNK = 256   # windows per step wherever a whole store is processed
BLOCK = 32    # windows per step where a step copies its windows (8 KiB float32 each)

SEGSTORE_FORMAT = "ecgrecon-segstore-v1"
VECSTORE_FORMAT = "ecgrecon-vecstore-v1"
_FIELDS = ("w", "record_id", "start", "fold", "labels")   # of Segments


@dataclass
class Segments:
    """A batch of windows: row i of every field describes window i. An int,
    slice, integer array or boolean mask selects a `Segments`."""

    w: np.ndarray            # [N, 8, T] mV, leads in ALL_LEADS order
    record_id: np.ndarray    # [N] str
    start: np.ndarray        # [N] int, offset of the window in its record
    fold: np.ndarray         # [N] int
    labels: np.ndarray       # [N] frozensets: high-confidence codes of the source record
    __iter__ = None          # windows are handled as arrays, never one at a time

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float32)
        self.record_id = np.asarray(self.record_id, dtype=str)
        self.start = np.asarray(self.start, dtype=np.int64)
        self.fold = np.asarray(self.fold, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=object)
        for lo, w in zip(range(0, len(self.w), CHUNK), chunked(self.w)):
            finite = np.isfinite(w).all(axis=(1, 2))
            if not finite.all():
                i = lo + int(np.argmin(finite))
                raise DataError(f"non-finite segment from {self.record_id[i]}@{self.start[i]}")

    @property
    def x(self):
        """[N, 3, T] view of `w`: I, II, V2."""
        return self.w[:, :len(INPUT_LEADS)]

    @property
    def y(self):
        """[N, 5, T] view of `w`: V1, V3, V4, V5, V6."""
        return self.w[:, len(INPUT_LEADS):]

    def __len__(self):
        return len(self.w)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            key = [key]
        return Segments(**{f: getattr(self, f)[key] for f in _FIELDS})

    @classmethod
    def concat(cls, parts):
        # an empty batch first, so that no parts still gives [0, 8, T] windows
        parts = [cls(np.empty((0, len(ALL_LEADS), WINDOW), np.float32), [], [], [], []),
                 *parts]
        return cls(**{f: np.concatenate([getattr(p, f) for p in parts]) for f in _FIELDS})


def chunked(array, rows=CHUNK):
    """Consecutive row slices of `array`, views of at most `rows` rows each."""
    return (array[lo:lo + rows] for lo in range(0, len(array), rows))


@dataclass
class QcBounds:
    """Closed per-lead intervals for peak-to-peak amplitude and RMS."""

    leads: list
    ptp_lo: np.ndarray
    ptp_hi: np.ndarray
    rms_lo: np.ndarray
    rms_hi: np.ndarray

    def to_dict(self):
        return {"leads": list(self.leads),
                "ptp_lo": self.ptp_lo.tolist(), "ptp_hi": self.ptp_hi.tolist(),
                "rms_lo": self.rms_lo.tolist(), "rms_hi": self.rms_hi.tolist()}


def _window_offsets(n_samples, nonoverlap=False):
    """Offsets of the windows of a record of `n_samples`: every HOP while
    a window fits; with `nonoverlap`, every WINDOW plus one final
    right-aligned window where the last does not end the record."""
    offsets = np.arange(0, n_samples - WINDOW + 1, WINDOW if nonoverlap else HOP)
    if nonoverlap and len(offsets) and offsets[-1] != n_samples - WINDOW:
        offsets = np.append(offsets, n_samples - WINDOW)
    return offsets


def _extract(rec, nonoverlap, out):
    """Write the windows of `rec` at `_window_offsets` into `out`, a float32
    [n, 8, WINDOW] array, and return their offsets. They are copied from
    strided views of the record, so no float64 copy of them is made."""
    if rec.fs != 100:
        raise DataError(f"record {rec.record_id} not at 100 Hz (fs={rec.fs})")
    missing = [l for l in ALL_LEADS if l not in rec.lead_names]
    if missing:
        raise DataError(f"record {rec.record_id} missing leads {missing}")
    offsets = _window_offsets(rec.n_samples, nonoverlap)
    if len(offsets):
        leads = rec.samples[[rec.lead_names.index(l) for l in ALL_LEADS]]
        # [n_samples - WINDOW + 1, 8, WINDOW]: row o is the window at offset o
        windows = sliding_window_view(leads, WINDOW, axis=1).transpose(1, 0, 2)
        run = windows[::WINDOW if nonoverlap else HOP]
        out[:len(run)] = run
        out[len(run):] = windows[offsets[len(run):]]   # the right-aligned window
    return offsets


def segment_records(records, lengths, nonoverlap=False):
    """One `Segments` of the windows of `records`, in order. `lengths`
    holds each record's sample count, known before the record is read
    (from its header), so the window array is allocated once and each
    record's windows go straight into their rows: `records` may load each
    record as it is asked for, and it is dropped once windowed. A record
    of another length than its entry in `lengths` is a DataError."""
    counts = [len(_window_offsets(n, nonoverlap)) for n in lengths]
    w = np.empty((sum(counts), len(ALL_LEADS), WINDOW), np.float32)
    start = np.empty(len(w), np.int64)
    ids, folds, labels = [], [], []
    lo = 0
    for rec, n, k in zip(records, lengths, counts):
        if rec.n_samples != n:
            raise DataError(f"record {rec.record_id} holds {rec.n_samples} samples, "
                            f"not the {n} its windows were counted for")
        start[lo:lo + k] = _extract(rec, nonoverlap, w[lo:lo + k])
        ids.append(rec.record_id)
        folds.append(rec.fold if rec.fold is not None else 0)
        labels.append(frozenset(rec.labels.high_confidence()))
        lo += k
    return Segments(w=w, record_id=np.repeat(np.array(ids, dtype=str), counts), start=start,
                    fold=np.repeat(np.array(folds, dtype=np.int64), counts),
                    labels=np.repeat(np.array(labels, dtype=object), counts))


def segment_record(rec):
    """Overlapping training windows at offsets 0, HOP, 2*HOP, ..."""
    return segment_records([rec], [rec.n_samples])


def segment_record_nonoverlap(rec):
    """Non-overlapping tiling plus one final right-aligned window."""
    return segment_records([rec], [rec.n_samples], nonoverlap=True)


def segment_stats(segments):
    """Per-window, per-lead (ptp, rms) over all 8 leads in canonical order,
    each [N, 8]."""
    ptp = np.empty((len(segments), len(ALL_LEADS)))
    rms = np.empty_like(ptp)
    # float64 work in BLOCK rows at a time; each statistic reduces one row
    for w, p, r in zip(*(chunked(a, BLOCK) for a in (segments.w, ptp, rms))):
        w = w.astype(np.float64)
        p[:] = w.max(axis=-1) - w.min(axis=-1)
        r[:] = np.sqrt(np.mean(np.square(w, out=w), axis=-1))
    return ptp, rms


def fit_qc_bounds(stats, lo_pct=0.1, hi_pct=99.9):
    """Empirical percentile bounds over `segment_stats` of training-fold
    segments only."""
    ptps, rmss = stats
    if not len(ptps):
        raise DataError("cannot fit QC bounds on zero segments")
    return QcBounds(
        leads=list(ALL_LEADS),
        ptp_lo=np.percentile(ptps, lo_pct, axis=0),
        ptp_hi=np.percentile(ptps, hi_pct, axis=0),
        rms_lo=np.percentile(rmss, lo_pct, axis=0),
        rms_hi=np.percentile(rmss, hi_pct, axis=0))


def compact(segments, keep):
    """`segments[keep]` for a boolean mask `keep`, made in place: the kept
    rows of every field move to the front, in order, BLOCK rows at a
    time, and the result is a view of them. A block's rows land at or
    before their own, never on a row of a later block. The rows past the
    kept ones are left undefined; `segments` must be writable."""
    n = 0
    for lo in range(0, len(keep), BLOCK):
        rows = lo + np.flatnonzero(keep[lo:lo + BLOCK])
        for f in _FIELDS:
            column = getattr(segments, f)
            column[n:n + len(rows)] = column[rows]
        n += len(rows)
    return segments[:n]


def apply_qc(segments, stats, bounds):
    """Reject a segment iff any lead statistic in `stats`, the
    `segment_stats` of `segments`, falls strictly outside its closed
    interval. Returns (kept, rejected): the kept `Segments`, `compact`ed
    in place into the front of `segments`, and, per rejected window, (its
    row in `segments`, its "<lead>:ptp" / "<lead>:rms" reasons)."""
    ptp, rms = stats
    names = [f"{lead}:{stat}" for lead in bounds.leads for stat in ("ptp", "rms")]
    out = np.stack([(ptp < bounds.ptp_lo) | (ptp > bounds.ptp_hi),
                    (rms < bounds.rms_lo) | (rms > bounds.rms_hi)], axis=2)
    out = out.reshape(len(segments), len(names))                # [N, 16], as names
    bad = out.any(axis=1)
    rejected = [(int(i), [n for n, o in zip(names, out[i]) if o])
                for i in np.flatnonzero(bad)]
    return compact(segments, ~bad), rejected


def split_by_fold(records):
    """Partition records into train (folds 1-8), val (9), test (10); any
    item with `record_id`, `patient_id` and `fold` will do.

    Verifies patient independence; a patient spanning splits is a hard error.
    """
    splits = {"train": [], "val": [], "test": []}
    patients = {"train": set(), "val": set(), "test": set()}
    for rec in records:
        if rec.fold is None:
            raise DataError(f"record {rec.record_id} has no fold")
        name = fold_to_split(rec.fold)
        splits[name].append(rec)
        patients[name].add(rec.patient_id)
    for a in ("train", "val", "test"):
        for b in ("train", "val", "test"):
            if a < b:
                shared = patients[a] & patients[b]
                if shared:
                    raise LeakageError(
                        f"patients in both {a} and {b}: {sorted(shared)[:5]}")
    return splits


# -- stores ----------------------------------------------------------------

def _write_store(path_prefix, manifest, matrix):
    """Write <prefix>.manifest.json + <prefix>.f32 (row-major float32 LE)."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(str(prefix) + ".manifest.json").write_text(json.dumps(manifest))
    Path(str(prefix) + ".f32").write_bytes(np.ascontiguousarray(matrix, dtype="<f4"))


def _read_store(path_prefix, fmt, what, shape_of):
    """(manifest, read-only float32 array) of a store of format `fmt`; the
    blob must hold exactly the floats of the shape `shape_of(manifest)`."""
    man_path = Path(str(path_prefix) + ".manifest.json")
    blob_path = Path(str(path_prefix) + ".f32")
    if not man_path.exists() or not blob_path.exists():
        raise DataError(f"{what} store not found: {path_prefix}")
    manifest = read_json(man_path, dict)
    if manifest.get("format") != fmt:
        raise DataError(f"unknown {what} store format: {manifest.get('format')}")
    shape = tuple(shape_of(manifest))
    if not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"{man_path}: shape {list(shape)} is not a list of sizes")
    raw = blob_path.read_bytes()
    if len(raw) != 4 * int(np.prod(shape)):
        raise DataError(f"{blob_path}: {len(raw)} bytes, expected float32 {list(shape)}")
    return manifest, np.frombuffer(raw, dtype="<f4").reshape(shape)


def save_segments(path_prefix, segments, qc_provenance=None):
    """Segment store; its blob is `segments.w`, [N, 8, T] in ALL_LEADS order."""
    manifest = {
        "format": SEGSTORE_FORMAT,
        "n_segments": len(segments),
        "window": WINDOW,
        "input_leads": list(INPUT_LEADS),
        "target_leads": list(TARGET_LEADS),
        "segments": [{"record_id": r, "start": s, "fold": f, "labels": sorted(l)}
                     for r, s, f, l in zip(segments.record_id.tolist(),
                                           segments.start.tolist(),
                                           segments.fold.tolist(), segments.labels)],
        "qc": qc_provenance or {},
    }
    _write_store(path_prefix, manifest, segments.w)


def load_segments(path_prefix):
    """Read a segment store; its `w` is a read-only view of the store's blob.
    A store of other lead roles or another window length is a DataError."""
    where = f"{path_prefix}.manifest.json"
    manifest, data = _read_store(
        path_prefix, SEGSTORE_FORMAT, "segment",
        lambda m: (json_field(m, "n_segments", int, where), len(ALL_LEADS),
                   json_field(m, "window", int, where)))
    for key, want in (("window", WINDOW), ("input_leads", list(INPUT_LEADS)),
                      ("target_leads", list(TARGET_LEADS))):
        if manifest.get(key) != want:
            raise DataError(f"{where}: {key!r} is {manifest.get(key)!r}, not {want!r}")
    meta = json_field(manifest, "segments", list, where)
    if len(meta) != len(data):
        raise DataError(f"{path_prefix}: {len(meta)} segment entries for "
                        f"n_segments={len(data)}")
    entries = [_segment_entry(m, f"{where} segments[{i}]") for i, m in enumerate(meta)]
    segments = Segments(w=data, record_id=[e[0] for e in entries],
                        start=[e[1] for e in entries], fold=[e[2] for e in entries],
                        labels=[e[3] for e in entries])
    return segments, manifest


def _segment_entry(m, where):
    """(record_id, start, fold, labels) of one `segments` entry of a store."""
    labels = json_field(m, "labels", list, where)
    if not all(isinstance(label, str) for label in labels):
        raise DataError(f"{where}: 'labels' are not all strings")
    return (json_field(m, "record_id", str, where), json_field(m, "start", int, where),
            json_field(m, "fold", int, where), frozenset(labels))


def save_vectors(path_prefix, matrix, meta=None):
    """Vector store (e.g. embeddings [N, 128]) in the same manifest+f32 idiom."""
    matrix = np.asarray(matrix, dtype=np.float32)
    _write_store(path_prefix, {"format": VECSTORE_FORMAT, "shape": list(matrix.shape),
                               "meta": meta or {}}, matrix)


def load_vectors(path_prefix):
    where = f"{path_prefix}.manifest.json"
    manifest, data = _read_store(path_prefix, VECSTORE_FORMAT, "vector",
                                 lambda m: json_field(m, "shape", list, where))
    return require_finite(data.copy(), f"{path_prefix}.f32"), manifest
