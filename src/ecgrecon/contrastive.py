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
class PretrainConfig:
    batch_size: int = 128      # view pairs per step; 2x rows enter the loss
    epochs: int = 30
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0


def peak_shifts(lead_ii):
    """One int per window of lead_ii [N, T]: the shift that moves the
    R peak nearest the window's centre onto the centre sample, 0 where no
    peak is found."""
    center = lead_ii.shape[-1] // 2
    return np.array([center - min(peaks, key=lambda p: abs(p - center)) if peaks else 0
                     for peaks in detect_r_peaks(lead_ii, fs=100.0)], dtype=np.int64)


def make_views(x, shifts, seeds):
    """The (morphology-centred, signal-augmented) views of windows
    x [B, 3, T], interleaved as [2B, 3, T]: row 2i centres window i,
    row 2i+1 augments it.

    The centred view moves window i by shifts[i] samples (`peak_shifts`),
    reflecting at the edges as numpy's "reflect" pad does; one reflection
    suffices while |shift| < T. The augmented view scales each lead,
    shifts circularly and adds Gaussian noise, all drawn from
    default_rng(seeds[i]).
    """
    b, leads, t = x.shape
    j = np.arange(t)
    rows, lead_ix = np.arange(b)[:, None, None], np.arange(leads)[:, None]
    reflected = (t - 1) - np.abs((t - 1) - np.abs(j - np.asarray(shifts)[:, None]))
    scales = np.empty((b, leads, 1), dtype=np.float32)
    rolls = np.empty((b, 1), dtype=np.int64)
    noise = np.empty((b, leads, t), dtype=np.float32)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        scales[i] = rng.uniform(*AMP_RANGE, size=(leads, 1))
        rolls[i] = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1)
        noise[i] = rng.normal(0.0, NOISE_SIGMA, size=(leads, t))
    views = np.empty((2 * b, leads, t), dtype=np.float32)
    views[0::2] = x[rows, lead_ix, reflected[:, None]]
    views[1::2] = (x * scales)[rows, lead_ix, ((j - rolls) % t)[:, None]] + noise
    return views


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


def pretrain(segments, config, log=None):
    """Contrastive pretraining; returns (encoder, projection_head, history).

    Only segments with at least one high-confidence label participate;
    fewer than two is a DataError, as no batch could hold a positive pair.
    Both views of each segment enter the batch as anchors. A step whose
    loss is not finite is a ConfigError: the run has diverged.
    """
    usable = np.flatnonzero([bool(l) for l in segments.labels])
    if len(usable) < 2:
        raise DataError(f"pretraining needs at least 2 segments with high-confidence "
                        f"labels, got {len(usable)}")
    rng = np.random.default_rng(config.seed)
    encoder = Encoder(seed=config.seed)
    head = ProjectionHead(seed=config.seed + 1)
    params = encoder.parameters() + head.parameters()
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    shifts = peak_shifts(segments.x[usable, 1])   # R peaks on lead II, found once

    history = []
    order = np.arange(len(usable))
    # a step that overflows is reported by the finite-loss check, not by
    # numpy warnings on stderr
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            rng.shuffle(order)
            epoch_losses = []
            for lo in range(0, len(order), config.batch_size):
                pick = order[lo:lo + config.batch_size]
                if len(pick) < 2:
                    continue
                idx = usable[pick]
                views = make_views(segments.x[idx], shifts[pick],
                                   rng.integers(0, 2 ** 32, size=len(pick)))
                labels = np.repeat(segments.labels[idx], 2)
                z = head(encoder(Tensor(views)))
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
    return np.concatenate([encoder(Tensor(x)).data for x in chunked(segments.x)])


def save_pretrained(out_dir, encoder, head, history):
    save_checkpoint(f"{out_dir}/encoder.ckpt", encoder,
                    extra={"training_loss": history})
    save_checkpoint(f"{out_dir}/projection.ckpt", head)
