"""Computations made apart from the program, used to check its outputs.

Nothing here imports `ecgrecon`: files are read with this module's own
format-16, segment-store, vector-store and checkpoint readers, the cleaning
chain is rebuilt from `scipy.signal` and `scipy.ndimage`, and the encoder
and decoders are re-run as plain numpy convolutions in float64.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
from scipy import ndimage, signal

INPUT_LEADS = ("I", "II", "V2")
TARGET_LEADS = ("V1", "V3", "V4", "V5", "V6")
WINDOW = 256
HOP = 64
NORM_EPS = 1e-8          # z-score denominators are sigma + 1e-8
FLAT_STD = 1e-6          # input leads flatter than this are zeroed
PARAM_COUNTS = {"encoder": 84_992, "projection": 24_768, "decoder": 27_905}

_GAIN = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?\d+)?)(?:\(([-+]?\d+)\))?")


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- readers ---------------------------------------------------------------

def read_record(hea_path):
    """Format-16 WFDB record -> (fs, samples [leads, n] in mV, lead names,
    quantization step in mV)."""
    hea_path = Path(hea_path)
    lines = [l.split() for l in hea_path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    _, n_sig, fs, n = lines[0][:4]
    n_sig, fs, n = int(n_sig), float(fs), int(n)
    gains, baselines, names = [], [], []
    for parts in lines[1:1 + n_sig]:
        require(parts[1] == "16", f"{hea_path.name}: format {parts[1]} is not 16")
        m = _GAIN.match(parts[2])
        require(m is not None, f"{hea_path.name}: bad gain {parts[2]!r}")
        gains.append(float(m.group(1)))
        baselines.append(int(m.group(2) or 0))
        names.append(" ".join(parts[8:]))
    raw = np.fromfile(hea_path.parent / lines[1][0], dtype="<i2")
    require(raw.size == n * n_sig, f"{hea_path.name}: {raw.size} samples, "
            f"header says {n * n_sig}")
    raw = raw.reshape(n, n_sig).T.astype(np.float64)
    gains = np.array(gains)
    mv = (raw - np.array(baselines)[:, None]) / gains[:, None]
    return fs, mv, names, float(1.0 / gains.min())


def read_database(corpus_dir):
    """database.csv -> {record id: (patient id, fold, relative path)}."""
    with open(Path(corpus_dir) / "database.csv", newline="") as fh:
        return {row["ecg_id"]: (row["patient_id"], int(row["strat_fold"]),
                                row["filename_lr"])
                for row in csv.DictReader(fh)}


def read_segments(prefix):
    """Segment store -> (manifest, blob [N, 8, 256] float32)."""
    manifest = json.loads(Path(f"{prefix}.manifest.json").read_text())
    blob = np.fromfile(f"{prefix}.f32", dtype="<f4")
    n, t = manifest["n_segments"], manifest["window"]
    require(blob.size == n * 8 * t, f"{prefix}: blob holds {blob.size} values, "
            f"manifest says {n} windows")
    return manifest, blob.reshape(n, 8, t)


def read_vectors(prefix):
    manifest = json.loads(Path(f"{prefix}.manifest.json").read_text())
    return np.fromfile(f"{prefix}.f32", dtype="<f4").reshape(manifest["shape"])


def read_checkpoint(prefix):
    """Checkpoint -> (descriptor, {parameter name: float64 array})."""
    desc = json.loads(Path(f"{prefix}.json").read_text())
    blob = np.fromfile(f"{prefix}.f32", dtype="<f4").astype(np.float64)
    params, off = {}, 0
    for p in desc["params"]:
        size = int(np.prod(p["shape"]))
        params[p["name"]] = blob[off:off + size].reshape(p["shape"])
        off += size
    require(off == blob.size, f"{prefix}: blob holds {blob.size} values, "
            f"descriptor lists {off}")
    return desc, params


# -- signal chain ----------------------------------------------------------

def _odd(seconds, fs):
    n = max(1, int(round(seconds * fs)))
    return n | 1


def clean(x, fs, spec, band_high):
    """The documented cleaning chain for one lead at 100 Hz: notch below
    Nyquist, order-4 Butterworth band-pass run forward and backward, then
    the two-stage median baseline subtracted."""
    require(fs == 100.0, f"reference chain covers 100 Hz input, got {fs}")
    if spec["notch_freq"] < fs / 2:
        b, a = signal.iirnotch(spec["notch_freq"], spec["notch_q"], fs=fs)
        x = signal.filtfilt(b, a, x)
    sos = signal.butter(spec["bandpass_order"], [spec["bandpass_low"], band_high],
                        btype="bandpass", output="sos", fs=fs)
    x = signal.sosfiltfilt(sos, x)
    base = ndimage.median_filter(x, size=_odd(spec["median_win_short"], fs),
                                 mode="reflect")
    base = ndimage.median_filter(base, size=_odd(spec["median_win_long"], fs),
                                 mode="reflect")
    return x - base


def window_starts(n, overlapping):
    """Window offsets: hop 64 for train/val; for test, a non-overlapping
    tiling plus one right-aligned window."""
    if n < WINDOW:
        return []
    if overlapping:
        return list(range(0, n - WINDOW + 1, HOP))
    starts = list(range(0, n - WINDOW + 1, WINDOW))
    if starts[-1] != n - WINDOW:
        starts.append(n - WINDOW)
    return starts


# -- models ----------------------------------------------------------------

def conv1d(x, w, b, stride=1, padding=0):
    """x [B, C, T], w [O, C, K] -> [B, O, T'] as a sum of K channel matmuls."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = (xp.shape[2] - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], t_out))
    for i in range(k):
        out += np.matmul(w[:, :, i], xp[:, :, i:i + stride * (t_out - 1) + 1:stride])
    return out + b[None, :, None]


def encode(desc, params, x):
    """Encoder trunk from its descriptor, then the mean over time."""
    h = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(desc["architecture"]["trunk"]["layers"]):
        if layer["type"] == "relu":
            h = np.maximum(h, 0.0)
        else:
            h = conv1d(h, params[f"trunk.{i}.weight"], params[f"trunk.{i}.bias"],
                       layer["stride"], layer["padding"])
    return h.mean(axis=2)


def decode(params, x_hat, h_hat):
    """Lead decoder: 1x1 input projection and embedding projection,
    stacked on channels, fused 1x1, then two same-length temporal convs."""
    p = params
    xp = conv1d(x_hat, p["x_proj.weight"], p["x_proj.bias"])
    hp = h_hat @ p["h_proj.weight"] + p["h_proj.bias"]
    stacked = np.concatenate(
        [xp, np.broadcast_to(hp[:, :, None], hp.shape + (xp.shape[2],))], axis=1)
    fused = np.maximum(conv1d(stacked, p["fusion.weight"], p["fusion.bias"]), 0.0)
    k1, k2 = p["temp1.weight"].shape[2], p["temp2.weight"].shape[2]
    out = np.maximum(conv1d(fused, p["temp1.weight"], p["temp1.bias"],
                            padding=k1 // 2), 0.0)
    return conv1d(out, p["temp2.weight"], p["temp2.bias"], padding=k2 // 2)[:, 0]


def normalize_x(x):
    """Per-window, per-lead z-score; flat leads become zero."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return np.where(sd < FLAT_STD, 0.0, (x - mu) / (sd + NORM_EPS))


def rmse(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


class Model:
    """Encoder plus the five lead decoders, read from checkpoint files."""

    def __init__(self, encoder_dir, decoder_dir):
        self.enc_desc, self.enc = read_checkpoint(Path(encoder_dir) / "encoder.ckpt")
        self.dec = {}
        stats = None
        for lead in TARGET_LEADS:
            desc, self.dec[lead] = read_checkpoint(
                Path(decoder_dir) / f"decoder_{lead}.ckpt")
            stats = desc["extra"]["norm_stats"]
        self.stats = {k: np.asarray(v, dtype=np.float64) for k, v in stats.items()}

    def embed(self, x):
        return encode(self.enc_desc, self.enc, x)

    def normalize_h(self, h):
        return (h - self.stats["h_mu"]) / (self.stats["h_sigma"] + NORM_EPS)

    def reconstruct_windows(self, x):
        """[N, 3, T] mV -> [N, 5, T] mV."""
        x_hat = normalize_x(x.astype(np.float32))
        h_hat = self.normalize_h(self.embed(x.astype(np.float32)))
        out = np.empty((x.shape[0], len(TARGET_LEADS), x.shape[2]))
        for i, lead in enumerate(TARGET_LEADS):
            z = decode(self.dec[lead], x_hat, h_hat)
            out[:, i] = z * (self.stats["y_sigma"][i] + NORM_EPS) + self.stats["y_mu"][i]
        return out

    def reconstruct_record(self, samples):
        """[3, n] mV -> [5, n] mV, overlap of the right-aligned last window
        averaged."""
        n = samples.shape[1]
        starts = window_starts(n, overlapping=False)
        x = np.stack([samples[:, s:s + WINDOW] for s in starts])
        pred = self.reconstruct_windows(x)
        out = np.zeros((len(TARGET_LEADS), n))
        weight = np.zeros(n)
        for s, p in zip(starts, pred):
            out[:, s:s + WINDOW] += p
            weight[s:s + WINDOW] += 1.0
        return out / weight
