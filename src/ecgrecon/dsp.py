"""Signal cleaning: notch, band-pass, median baseline removal, 100 Hz
resampling, and R-peak detection.

Every function works along the last axis of an `[..., n]` array. All IIR
stages are applied forward-backward (zero phase) and preserve length.

`preprocess` cleans a chunk of records that share a rate and shape as one
`[k, L, n]` array, so each filter that is designed per call is designed
once per chunk. The band-pass design is also memoized per (fs, order,
band): it depends on nothing else, and a corpus has few sampling rates.
Callers get a copy of the cached sections. Each baseline median stage is
one pass of scipy's 1-D running-median kernel over every row joined end to
end, each row padded by half a window; that kernel is about 8x faster than
the n-D rank filter. A median over an odd window is one of its input
samples, so the output is bit-identical to a median over each row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np
from scipy import ndimage, signal

from .errors import DataError, FilterSpecError, UnsupportedRateError

TARGET_FS = 100.0


@dataclass
class FilterSpec:
    notch_freq: float = 50.0
    notch_q: float = 30.0
    bandpass_low: float = 0.5
    bandpass_high: float = 45.0
    bandpass_order: int = 4
    median_win_short: float = 0.2   # seconds
    median_win_long: float = 0.6    # seconds

    def __post_init__(self):
        """Every field a finite number above 0, the order a whole one; the
        band edges depend on fs and are checked by `_validate_band`."""
        for name, value in asdict(self).items():
            kind = int if name == "bandpass_order" else (int, float)
            if (not isinstance(value, kind) or isinstance(value, bool)
                    or not 0 < value < math.inf):
                raise FilterSpecError(f"filter {name} must be a finite number above 0 "
                                      f"(whole for the order), got {value!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise FilterSpecError(f"filter settings must be a JSON object, got {d!r}")
        unknown = sorted(set(d) - set(asdict(cls())))
        if unknown:
            raise FilterSpecError(f"unknown filter settings {unknown}")
        return cls(**d)


def _validate_band(spec, fs):
    if not (0.0 < spec.bandpass_low < spec.bandpass_high < fs / 2.0):
        raise FilterSpecError(
            f"band edges ({spec.bandpass_low}, {spec.bandpass_high}) invalid for fs={fs}")


def _longer_than_pad(x, ntaps, fs):
    """`x` as float64. scipy's zero-phase filters extend each edge of a
    row by 3 * ntaps reflected samples, so a row no longer than that is a
    DataError."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] <= 3 * ntaps:
        raise DataError(f"{x.shape[-1]} samples at {fs:g} Hz, but a zero-phase "
                        f"filter there needs more than {3 * ntaps}")
    return x


def _sos_taps(sos):
    """The `ntaps` by which scipy's `sosfiltfilt` sizes its edge pad."""
    return 2 * len(sos) + 1 - min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0))


def notch_filter(x, fs, spec=None):
    """Zero-phase biquad notch at spec.notch_freq."""
    spec = spec or FilterSpec()
    if spec.notch_freq >= fs / 2.0:
        raise FilterSpecError(f"notch {spec.notch_freq} Hz >= Nyquist for fs={fs}")
    b, a = signal.iirnotch(spec.notch_freq, spec.notch_q, fs=fs)
    return signal.filtfilt(b, a, _longer_than_pad(x, max(len(a), len(b)), fs))


def _sos_stable(sos):
    poles = np.concatenate([np.roots(section[3:]) for section in sos])
    return bool(np.all(np.abs(poles) < 1.0))


@lru_cache(maxsize=None)
def _bandpass_sos(fs, order, low, high):
    """(sos, effective_high, fell_back) of a valid band; shared, never
    handed out: `design_bandpass` returns a copy."""
    sos = signal.butter(order, [low, high], btype="bandpass", output="sos", fs=fs)
    if _sos_stable(sos):
        return sos, high, False
    sos = signal.butter(order, [low, 40.0], btype="bandpass", output="sos", fs=fs)
    return sos, 40.0, True


def design_bandpass(fs, spec=None):
    """Butterworth SOS design; returns (sos, effective_high, fell_back).

    At fs=100 the 45 Hz edge sits at 0.9*Nyquist; the realized filter is
    checked for pole stability and only falls back to a 40 Hz edge if
    unstable. The fallback flag is surfaced for the run manifest. The
    returned `sos` is the caller's own copy of a memoized design.
    """
    spec = spec or FilterSpec()
    _validate_band(spec, fs)
    sos, high, fell_back = _bandpass_sos(float(fs), spec.bandpass_order,
                                         float(spec.bandpass_low),
                                         float(spec.bandpass_high))
    return sos.copy(), high, fell_back


def bandpass_filter(x, fs, spec=None):
    """Zero-phase Butterworth band-pass (cascaded second-order sections)."""
    sos, _, _ = design_bandpass(fs, spec)
    return signal.sosfiltfilt(sos, _longer_than_pad(x, _sos_taps(sos), fs))


def _odd_window(seconds, fs):
    n = max(1, int(round(seconds * fs)))
    return n if n % 2 == 1 else n + 1


def _running_median(rows, w):
    """Median over a centred window of odd length `w` along each row of
    `rows` [R, n], edges reflected as scipy's "reflect" mode does (numpy's
    "symmetric"): one 1-D pass over the rows joined end to end, each padded
    by w // 2 on both sides, so no kept window reaches a neighbouring row."""
    if rows.size == 0:
        return rows
    p = w // 2
    padded = np.pad(rows, ((0, 0), (p, p)), mode="symmetric")
    joined = ndimage.median_filter(padded.reshape(-1), size=w, mode="reflect")
    return joined.reshape(padded.shape)[:, p:p + rows.shape[1]]


def baseline_remove(x, fs, spec=None):
    """Two-stage median baseline estimate subtracted from the signal.

    output = x - median_long(median_short(x)), reflection padding at edges,
    over time only, each row of `x.reshape(-1, n)` on its own; each stage
    is one running-median pass over all rows (`_running_median`).
    """
    spec = spec or FilterSpec()
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])   # not (-1, n): n may be 0
    baseline = _running_median(_running_median(rows, _odd_window(spec.median_win_short, fs)),
                               _odd_window(spec.median_win_long, fs))
    return x - baseline.reshape(x.shape)


def resample_to_100hz(x, fs_in):
    """Anti-alias (45 Hz low-pass) then decimate by the integer factor."""
    x = np.asarray(x, dtype=np.float64)
    if fs_in == TARGET_FS:
        return x.copy()
    factor = fs_in / TARGET_FS
    if factor < 1 or abs(factor - round(factor)) > 1e-9:
        raise UnsupportedRateError(f"fs_in={fs_in} is not an integer multiple of 100 Hz")
    factor = int(round(factor))
    sos = signal.butter(8, 45.0, btype="low", output="sos", fs=fs_in)
    y = signal.sosfiltfilt(sos, _longer_than_pad(x, _sos_taps(sos), fs_in))
    n_out = int(np.floor(x.shape[-1] * TARGET_FS / fs_in))
    return y[..., ::factor][..., :n_out]


def clean_signal(samples, fs, spec=None):
    """Cleaning chain of a record [L, n], a stack of records [k, L, n] or
    one lead at fs: notch when below Nyquist -> band-pass -> 100 Hz
    resampling -> baseline removal. Each row is cleaned on its own."""
    spec = spec or FilterSpec()
    y = notch_filter(samples, fs, spec) if spec.notch_freq < fs / 2.0 else samples
    y = bandpass_filter(y, fs, spec)
    if fs != TARGET_FS:     # at 100 Hz, resampling would only copy
        y = resample_to_100hz(y, fs)
    return baseline_remove(y, TARGET_FS, spec)


def detect_r_peaks(lead_ii, fs):
    """Pan-Tompkins-style R-peak detection on lead II: one signal [T]
    gives a list of indices, a batch [N, T] a list of N such lists.

    band-pass 5-15 Hz -> differentiate -> square -> 0.15 s moving-window
    integration -> adaptive threshold at 0.5x running peak average, with a
    0.2 s refractory interval. Indices refer to the input signal.
    """
    x = np.asarray(lead_ii, dtype=np.float64)
    if x.shape[-1] < 2 * fs:
        raise ValueError(f"need at least 2 s of signal, got {x.shape[-1] / fs:.2f} s")
    rows = x.reshape(-1, x.shape[-1])
    sos = signal.butter(2, [5.0, 15.0], btype="bandpass", output="sos", fs=fs)
    deriv = np.gradient(signal.sosfiltfilt(sos, rows), axis=-1)
    win = max(1, int(round(0.15 * fs)))
    refractory = int(np.ceil(0.2 * fs))
    half = max(1, int(round(0.1 * fs)))
    out = []
    for row, sq in zip(rows, deriv * deriv):
        # one np.convolve per row: ndimage.convolve1d differs in the last bits
        integ = np.convolve(sq, np.ones(win) / win, mode="same")
        cand, _ = signal.find_peaks(integ, distance=refractory)
        spki = float(np.max(integ[:int(2 * fs)]))
        if not np.any(row) or spki <= 0:   # a flat row, or no energy to threshold
            cand = ()
        peaks = []
        for c in cand:
            if integ[c] < 0.5 * spki:
                continue
            lo, hi = max(0, c - half), min(len(row), c + half + 1)
            r = lo + int(np.argmax(row[lo:hi]))
            if peaks and r - peaks[-1] < refractory:
                continue
            peaks.append(r)
            spki = 0.125 * integ[c] + 0.875 * spki
        out.append(peaks)
    return out if x.ndim > 1 else out[0]
