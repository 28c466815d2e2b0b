"""Normalization, per-lead decoder training, and full-record inference.

Inputs are z-scored lead-wise per segment; the conditioning embedding is
z-scored per dimension with statistics frozen on the training embedding
store. Targets train in their own z-scored space using training-fold
per-lead statistics, which also drive denormalization at inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .dataset import TARGET_LEADS, chunked, segment_record_nonoverlap
from .errors import ConfigError, DataError
from .nn import (Encoder, LeadDecoder, get_parameter_vector, save_checkpoint,
                 set_parameter_vector)
from .optim import AdamW
from .tensor import Tensor

EPS = 1e-8
DEGENERATE_STD = 1e-6


def normalize_x(x):
    """Lead-wise z-score over time of one window [3, T] or a batch
    [..., 3, T]; returns (x_hat float32, mu, sigma), mu and sigma [..., 3].

    Rows with population std below 1e-6 are zeroed (flat leads carry no
    information; eps alone would just amplify noise).
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sigma = x.std(axis=-1, keepdims=True)
    x_hat = np.where(sigma < DEGENERATE_STD, 0.0, (x - mu) / (sigma + EPS))
    return x_hat.astype(np.float32), mu[..., 0], sigma[..., 0]


def normalize_h(h, mu, sigma):
    """Z-score an embedding (or batch of embeddings) per dimension."""
    h = np.asarray(h, dtype=np.float64)
    return ((h - mu) / (sigma + EPS)).astype(np.float32)


def embedding_stats(h_matrix):
    """Per-dimension mean/std over the TRAINING embedding store."""
    h = np.asarray(h_matrix, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0:
        raise DataError("embedding stats need a non-empty [N, D] matrix")
    return h.mean(axis=0), h.std(axis=0)


def target_lead_stats(segments):
    """Per-target-lead mean/std over training-fold segments (mV).

    Sums each window, then sums the window sums in order: the order of a
    float64 `y.mean(axis=(0, 2))` / `y.std(axis=(0, 2))`, so the result is
    the same to the bit without a float64 copy of the store.
    """
    if not len(segments):
        raise DataError("target stats need at least one segment")

    def total(f):
        return np.concatenate([f(y.astype(np.float64)).sum(axis=2)
                               for y in chunked(segments.y)]).sum(axis=0)

    count = len(segments) * segments.y.shape[2]
    mu = total(lambda y: y) / count
    sigma = np.sqrt(total(lambda y: np.square(y - mu[:, None])) / count)
    return mu, sigma


def denormalize_y(y_hat, mu, sigma):
    return np.asarray(y_hat, dtype=np.float64) * (sigma + EPS) + mu


def recon_loss(y_hat, y):
    """MSE + MAE (equal weighting) over a batch of windows."""
    diff = T.add(y_hat, T.mul(y, -1.0))
    return T.add(T.mean(T.mul(diff, diff)), T.mean(T.absolute(diff)))


def decode(x_hat, h_hat, model):
    """Single-segment forward pass: [3, T] + [128] -> [T] (normalized)."""
    xb = Tensor(np.asarray(x_hat, dtype=np.float32)[None])
    hb = Tensor(np.asarray(h_hat, dtype=np.float32)[None])
    return model(xb, hb).data[0]


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    conditioned: bool = True   # False trains the clean-only (C) ablation


@dataclass
class TrainResult:
    model: LeadDecoder
    best_epoch: int
    best_val_loss: float
    history: list = field(default_factory=list)   # (train_loss, val_loss) per epoch


def _prep_arrays(segments, embeddings, stats, conditioned):
    """(x_hat, h_hat, y_hat [N, 5, T]) of a store, float32; the targets are
    z-scored one lead at a time, so no float64 copy of the store is made."""
    xs = np.concatenate([normalize_x(x)[0] for x in chunked(segments.x)])
    ys = np.empty(segments.y.shape, dtype=np.float32)
    for li in range(len(TARGET_LEADS)):
        ys[:, li] = ((segments.y[:, li].astype(np.float64) - stats.y_mu[li])
                     / (stats.y_sigma[li] + EPS))
    if conditioned:
        hs = normalize_h(embeddings, stats.h_mu, stats.h_sigma)
    else:
        hs = np.zeros((len(segments), embeddings.shape[1]), dtype=np.float32)
    return xs, hs, ys


def train_decoders(train_segments, val_segments, train_embeddings, val_embeddings,
                   stats, config, log=None):
    """Train one decoder per target lead with early stopping on validation
    loss; `stats` is the `NormStats` fitted on the training store. Returns
    {lead: TrainResult}, each model holding its best validation epoch's
    parameters.

    Both stores are normalized once for all leads; each lead trains with
    its own seeded batch order, model and optimizer. The clean-only
    ablation (config.conditioned=False) zeroes the conditioning channel
    but is otherwise trained identically. A step whose loss is not finite
    is a ConfigError: the run has diverged.
    """
    if not len(train_segments):
        raise DataError("zero training segments")
    if not len(val_segments):
        raise DataError("zero validation segments")
    xs, hs, ys_all = _prep_arrays(train_segments, train_embeddings, stats,
                                  config.conditioned)
    vxs, vhs, vys_all = _prep_arrays(val_segments, val_embeddings, stats,
                                     config.conditioned)

    def val_loss(model, vys):
        total = 0.0
        for x, h, y in zip(chunked(vxs), chunked(vhs), chunked(vys)):
            loss = recon_loss(model(Tensor(x), Tensor(h)), Tensor(y))
            total += loss.item() * len(x)
        return total / len(vxs)

    results = {}
    for li, lead in enumerate(TARGET_LEADS):
        ys, vys = ys_all[:, li], vys_all[:, li]
        rng = np.random.default_rng(config.seed)
        model = LeadDecoder(lead=lead, seed=config.seed)
        opt = AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
        best = (0, np.inf, get_parameter_vector(model))
        history = []
        order = np.arange(len(xs))
        # a step that overflows is reported by the finite-loss check, not by
        # numpy warnings on stderr
        with np.errstate(all="ignore"):
            for epoch in range(1, config.max_epochs + 1):
                rng.shuffle(order)
                losses = []
                for lo in range(0, len(order), config.batch_size):
                    idx = order[lo:lo + config.batch_size]
                    xb, hb, yb = Tensor(xs[idx]), Tensor(hs[idx]), Tensor(ys[idx])
                    loss = recon_loss(model(xb, hb), yb)
                    if not math.isfinite(loss.item()):
                        raise ConfigError(f"train diverged on {lead} in epoch {epoch} "
                                          f"at lr={config.lr}")
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                    losses.append(loss.item())
                vl = val_loss(model, vys)
                history.append((float(np.mean(losses)), vl))
                if log is not None:
                    log(f"{lead} epoch {epoch} train={history[-1][0]:.5f} val={vl:.5f}")
                if vl < best[1]:
                    best = (epoch, vl, get_parameter_vector(model))
                elif epoch - best[0] >= config.patience:
                    break
        set_parameter_vector(model, best[2])
        results[lead] = TrainResult(model=model, best_epoch=best[0],
                                    best_val_loss=float(best[1]), history=history)
    return results


@dataclass
class NormStats:
    """Frozen training-fold statistics needed at inference."""

    h_mu: np.ndarray
    h_sigma: np.ndarray
    y_mu: np.ndarray       # per target lead, mV
    y_sigma: np.ndarray

    def to_dict(self):
        return {k: getattr(self, k).tolist() for k in
                ("h_mu", "h_sigma", "y_mu", "y_sigma")}

    @classmethod
    def fit(cls, segments, embeddings):
        """Statistics of the training windows and their embeddings."""
        h_mu, h_sigma = embedding_stats(embeddings)
        y_mu, y_sigma = target_lead_stats(segments)
        return cls(h_mu=h_mu, h_sigma=h_sigma, y_mu=y_mu, y_sigma=y_sigma)

    @classmethod
    def from_dict(cls, d, where="norm_stats"):
        """Statistics from upstream JSON `d`, an object holding a list of
        numbers per statistic: Encoder.EMBED_DIM for h_*, one per target
        lead for y_*. Anything else is a DataError naming `where`."""
        if not isinstance(d, dict):
            raise DataError(f"{where} is not a JSON object")
        stats = {}
        for k in ("h_mu", "h_sigma", "y_mu", "y_sigma"):
            try:
                stats[k] = np.asarray(d[k], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{where}: {k!r} is missing or not numbers: {exc!r}")
            size = Encoder.EMBED_DIM if k[0] == "h" else len(TARGET_LEADS)
            if stats[k].shape != (size,):
                raise DataError(f"{where}: {k!r} is not a list of {size} numbers")
        return cls(**stats)


def reconstruct_segments(segments, encoder, decoders, stats, conditioned=True):
    """Decode a batch of segments; returns [N, 5, T] in mV."""
    out = np.zeros((len(segments), len(TARGET_LEADS), segments.w.shape[2]))
    for x, o in zip(chunked(segments.x), chunked(out)):
        if conditioned:
            h = encoder(Tensor(np.ascontiguousarray(x))).data
            hh = normalize_h(h, stats.h_mu, stats.h_sigma)
        else:
            hh = np.zeros((len(x), Encoder.EMBED_DIM), dtype=np.float32)
        xb, hb = Tensor(normalize_x(x)[0]), Tensor(hh)
        for li, lead in enumerate(TARGET_LEADS):
            o[:, li] = denormalize_y(decoders[lead](xb, hb).data,
                                     stats.y_mu[li], stats.y_sigma[li])
    return out


def overlap_add(preds, starts, n_samples):
    """Place window predictions [N, 5, T] at their record offsets and
    average where windows overlap (the right-aligned final window);
    returns [5, n_samples]."""
    cols = np.asarray(starts)[:, None] + np.arange(preds.shape[2])    # [N, T]
    out = np.zeros((preds.shape[1], n_samples))
    weight = np.zeros(n_samples)
    np.add.at(out, (slice(None), cols), preds.transpose(1, 0, 2))
    np.add.at(weight, cols, 1.0)
    return out / weight[None, :]


def reconstruct_record(rec, encoder, decoders, stats, conditioned=True):
    """Reassemble non-overlapping windows into a full [5, n_samples] signal."""
    segments = segment_record_nonoverlap(rec)
    if not len(segments):
        raise DataError(f"record {rec.record_id} shorter than one window")
    preds = reconstruct_segments(segments, encoder, decoders, stats,
                                 conditioned=conditioned)
    return overlap_add(preds, segments.start, rec.n_samples)


def save_decoders(out_dir, results, stats):
    for lead, res in results.items():
        save_checkpoint(f"{out_dir}/decoder_{lead}.ckpt", res.model,
                        extra={"best_epoch": res.best_epoch,
                               "best_val_loss": res.best_val_loss,
                               "history": res.history,
                               "norm_stats": stats.to_dict()})
