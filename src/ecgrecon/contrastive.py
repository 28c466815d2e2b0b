"""Dual-view construction, supervised contrastive loss, and pretraining.

Positives for an anchor are all other batch rows sharing at least one
high-confidence label. Anchors with no positives contribute zero and are
excluded from the averaging count. Both views of a segment enter the
batch and act as anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dataset import chunked
from .dsp import detect_r_peaks
from .errors import ConfigError, DataError
from .nn import Encoder, ProjectionHead, save_checkpoint
from .optim import AdamW
from .tensor import Tensor

TEMPERATURE = 0.07
AMP_RANGE = (0.8, 1.2)    # augmented view: per-lead amplitude scale,
NOISE_SIGMA = 0.02        # Gaussian noise std (mV),
MAX_SHIFT = 10            # largest circular shift (samples)


@dataclass
class ViewPair:
    view_a: np.ndarray   # [3, T] morphology-centered
    view_b: np.ndarray   # [3, T] signal-augmented


@dataclass
class PretrainConfig:
    batch_size: int = 128      # view pairs per step; 2x rows enter the loss
    epochs: int = 30
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0


def recenter_on_peak(x, r_peaks):
    """Shift the window so the R-peak nearest its midpoint lands at the
    center sample, reflection-padding the exposed edge."""
    t = x.shape[1]
    center = t // 2
    if not len(r_peaks):
        return x.copy()
    peaks = np.asarray(r_peaks)
    peak = int(peaks[np.argmin(np.abs(peaks - center))])
    shift = center - peak
    if shift == 0:
        return x.copy()
    pad = abs(shift)
    padded = np.pad(x, ((0, 0), (pad, pad)), mode="reflect")
    return padded[:, pad - shift:pad - shift + t].copy()


def augment(x, rng):
    """Per-lead amplitude scale, Gaussian noise, circular time shift."""
    scales = rng.uniform(*AMP_RANGE, size=(x.shape[0], 1)).astype(np.float32)
    shift = int(rng.integers(-MAX_SHIFT, MAX_SHIFT + 1))
    out = np.roll(x * scales, shift, axis=1)
    out = out + rng.normal(0.0, NOISE_SIGMA, size=x.shape).astype(np.float32)
    return out.astype(np.float32)


def make_views(x, r_peaks, seed):
    """Build the (morphology-centered, signal-augmented) pair for one
    window x [3, T].

    r_peaks are sample indices relative to the window (lead II).
    """
    rng = np.random.default_rng(seed)
    view_a = recenter_on_peak(x, r_peaks)
    view_b = augment(x, rng)
    return ViewPair(view_a=view_a.astype(np.float32), view_b=view_b)


def _positive_mask(labels):
    """[B, B] bool: rows i != j that share a code, from the multi-hot
    [B, C] matrix over the codes in the batch."""
    codes = set().union(*labels)
    multi_hot = np.array([[c in l for c in codes] for l in labels], dtype=bool)
    return (multi_hot @ multi_hot.T) & ~np.eye(len(labels), dtype=bool)


def supcon_loss(z, labels, temperature=TEMPERATURE):
    """Supervised contrastive loss over unit-norm projections z [B, d].

    For each anchor i with positives P(i):
        -(1/|P(i)|) sum_p [ z_i.z_p/tau - log sum_{j != i} exp(z_i.z_j/tau) ]
    averaged over anchors with non-empty P(i).
    """
    b = z.shape[0]
    if b < 2:
        raise DataError(f"supcon batch size must be >= 2, got {b}")
    norms = np.sqrt(np.sum(z.data.astype(np.float64) ** 2, axis=1))
    if np.max(np.abs(norms - 1.0)) > 1e-4:
        raise DataError("supcon rows must be unit-norm")
    labels = [frozenset(l) for l in labels]
    pos = _positive_mask(labels)
    pos_counts = pos.sum(axis=1)
    active = pos_counts > 0
    n_active = int(active.sum())
    if n_active == 0:
        return Tensor(np.zeros((), dtype=z.dtype))

    sims = T.mul(T.matmul(z, T.transpose(z)), 1.0 / temperature)
    offdiag = (~np.eye(b, dtype=bool)).astype(z.dtype.type)
    # max-subtracted logsumexp over j != i; the shift is a detached constant
    shift = np.max(np.where(offdiag > 0, sims.data, -np.inf), axis=1, keepdims=True)
    exp_shifted = T.mul(T.exp(T.add(sims, -shift)), offdiag)
    log_denom = T.add(T.log(T.tensor_sum(exp_shifted, axis=1, keepdims=True)), shift)

    pos_f = pos.astype(z.dtype.type)
    # per-anchor: log_denom - mean_p sims_ip, for anchors with positives
    safe_counts = np.maximum(pos_counts, 1).astype(z.dtype.type)
    mean_pos_sim = T.mul(T.tensor_sum(T.mul(sims, pos_f), axis=1, keepdims=True),
                         (1.0 / safe_counts)[:, None])
    per_anchor = T.add(log_denom, T.mul(mean_pos_sim, -1.0))
    weights = (active.astype(z.dtype.type) / n_active)[:, None]
    return T.tensor_sum(T.mul(per_anchor, weights))


def supcon_loss_naive(z, labels, temperature=TEMPERATURE):
    """Independent double-sum oracle, double precision, no vectorization."""
    z = np.asarray(z, dtype=np.float64)
    labels = [frozenset(l) for l in labels]
    b = len(labels)
    total, n_active = 0.0, 0
    for i in range(b):
        positives = [p for p in range(b) if p != i and labels[i] & labels[p]]
        if not positives:
            continue
        n_active += 1
        denom = sum(np.exp(z[i] @ z[j] / temperature) for j in range(b) if j != i)
        inner = 0.0
        for p in positives:
            inner += np.log(np.exp(z[i] @ z[p] / temperature) / denom)
        total += -inner / len(positives)
    return total / n_active if n_active else 0.0


def pretrain(segments, config, log=None):
    """Contrastive pretraining; returns (encoder, projection_head, history).

    Only segments with at least one high-confidence label participate.
    Both views of each segment enter the batch as anchors. A step whose
    loss is not finite is a ConfigError: the run has diverged.
    """
    usable = np.flatnonzero([bool(l) for l in segments.labels])
    if not len(usable):
        raise DataError("no segments with high-confidence labels for pretraining")
    rng = np.random.default_rng(config.seed)
    encoder = Encoder(seed=config.seed)
    head = ProjectionHead(seed=config.seed + 1)
    params = encoder.parameters() + head.parameters()
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)

    # r-peaks per segment, computed once on lead II (row 1 of x)
    peak_cache = dict(zip(usable, detect_r_peaks(segments.x[usable, 1], fs=100.0)))

    history = []
    order = np.arange(len(usable))
    # a step that overflows is reported by the finite-loss check, not by
    # numpy warnings on stderr
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            rng.shuffle(order)
            epoch_losses = []
            for lo in range(0, len(order), config.batch_size):
                idx = usable[order[lo:lo + config.batch_size]]
                if len(idx) < 2:
                    continue
                views, labels = [], []
                for i in idx:
                    pair = make_views(segments.x[i], peak_cache[i],
                                      seed=int(rng.integers(0, 2 ** 32)))
                    views.extend([pair.view_a, pair.view_b])
                    labels.extend([segments.labels[i]] * 2)
                z = head(encoder(Tensor(np.stack(views))))
                loss = supcon_loss(z, labels)
                if not math.isfinite(loss.item()):
                    raise ConfigError(f"pretrain diverged in epoch {epoch + 1} "
                                      f"at lr={config.lr}")
                opt.zero_grad()
                loss.backward()
                opt.step()
                epoch_losses.append(loss.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            history.append(mean_loss)
            if log is not None:
                log(f"pretrain epoch {epoch + 1}/{config.epochs} loss={mean_loss:.6f}")
    return encoder, head, history


def embed_all(segments, encoder):
    """Project segments through the encoder trunk into h [N, 128]."""
    if not len(segments):
        return np.zeros((0, Encoder.EMBED_DIM), dtype=np.float32)
    return np.concatenate([encoder(Tensor(np.ascontiguousarray(x))).data
                           for x in chunked(segments.x)])


def save_pretrained(out_dir, encoder, head, history):
    save_checkpoint(f"{out_dir}/encoder.ckpt", encoder,
                    extra={"training_loss": history})
    save_checkpoint(f"{out_dir}/projection.ckpt", head)
