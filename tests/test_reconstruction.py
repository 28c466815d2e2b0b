import numpy as np
import pytest

from ecgrecon import tensor as T
from ecgrecon.dataset import (ALL_LEADS, CHUNK, TARGET_LEADS, Segments, chunked,
                              segment_record)
from ecgrecon.errors import DataError
from ecgrecon.nn import LeadDecoder, get_parameter_vector, set_parameter_vector
from ecgrecon.optim import AdamW
from ecgrecon.reconstruction import (EPS, NormStats, TrainConfig, TrainResult, decode,
                                     denormalize_y, embedding_stats, normalize_h,
                                     normalize_x, recon_loss, reconstruct_record,
                                     target_lead_stats, train_decoders)
from ecgrecon.synth import builtin_class_specs, generate_corpus
from ecgrecon.tensor import Tensor
from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord

from _utils import finite_diff_check


def test_normalize_x_constant_lead_zeroed():
    x = np.ones((3, 256))
    x_hat = normalize_x(x)
    np.testing.assert_array_equal(x_hat, 0.0)


def test_normalize_x_two_point():
    x = np.tile([0.0, 2.0], 128)[None, :].repeat(3, axis=0)
    x_hat = normalize_x(x)
    np.testing.assert_allclose(x_hat[0, :2], [-1.0, 1.0], atol=1e-6)


def test_normalize_x_statistics():
    rng = np.random.default_rng(0)
    x = rng.normal(2.0, 3.0, size=(3, 256))
    x_hat = normalize_x(x)
    assert abs(x_hat.mean(axis=1)).max() < 1e-5
    assert np.abs(x_hat.std(axis=1) - 1.0).max() < 1e-3


def test_normalize_h_cases():
    rng = np.random.default_rng(1)
    h = rng.normal(5.0, 2.0, size=(200, 128))
    mu, sigma = embedding_stats(h)
    h_hat = normalize_h(h, mu, sigma)
    assert abs(h_hat.mean(axis=0)).max() < 1e-5
    assert np.abs(h_hat.std(axis=0) - 1.0).max() < 1e-3
    const = normalize_h(np.full(128, 3.0), np.full(128, 3.0), np.zeros(128))
    np.testing.assert_allclose(const, 0.0, atol=1e-6)


def test_denormalize_round_trip():
    rng = np.random.default_rng(2)
    y = rng.normal(0.1, 0.4, size=256)
    mu, sigma = y.mean(), y.std()
    y_hat = (y - mu) / (sigma + EPS)
    back = denormalize_y(y_hat, mu, sigma)
    assert np.abs(back - y).max() < 1e-5


def test_decode_zero_inputs_zero_final_layer():
    model = LeadDecoder(lead="V1", seed=0)
    model.temp2.weight.data[:] = 0.0
    model.temp2.bias.data[:] = 0.0
    out = decode(np.zeros((3, 256)), np.zeros(128), model)
    np.testing.assert_array_equal(out, 0.0)


def test_decode_shape_propagation():
    model = LeadDecoder(lead="V3", seed=1)
    x_hat = np.random.default_rng(0).normal(size=(3, 256)).astype(np.float32)
    h_hat = np.random.default_rng(1).normal(size=128).astype(np.float32)
    # the stacked latent tensor is 256 channels x 256 samples
    xb, hb = Tensor(x_hat[None]), Tensor(h_hat[None])
    stacked = T.concat([model.x_proj(xb),
                        T.broadcast_over_time(model.h_proj(hb), 256)], axis=1)
    assert stacked.shape == (1, 256, 256)
    out = decode(x_hat, h_hat, model)
    assert out.shape == (256,)


def test_decode_deterministic():
    model = LeadDecoder(lead="V4", seed=2)
    x = np.random.default_rng(3).normal(size=(3, 256))
    h = np.random.default_rng(4).normal(size=128)
    np.testing.assert_array_equal(decode(x, h, model), decode(x, h, model))


def test_recon_loss_zero_when_equal():
    y = Tensor(np.random.default_rng(0).normal(size=(2, 256)).astype(np.float32))
    assert recon_loss(y, y).item() == 0.0


def test_recon_loss_unit_offset():
    y = Tensor(np.zeros((2, 256), dtype=np.float32))
    y_hat = Tensor(np.ones((2, 256), dtype=np.float32))
    assert recon_loss(y_hat, y).item() == pytest.approx(2.0, abs=1e-6)


def test_recon_loss_gradcheck():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 8))
    b = rng.normal(size=(2, 8))

    def loss(leaves):
        return recon_loss(leaves[0], leaves[1])

    finite_diff_check(loss, [a, b])


def _training_data(n_classes=2, patients=4):
    specs = builtin_class_specs()[:n_classes]
    records = generate_corpus(specs, patients, 1, seed=0, duration=5.0)
    segs = Segments.concat(segment_record(rec) for rec in records)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(len(segs), 128)).astype(np.float32)
    cut = int(0.8 * len(segs))
    return segs[:cut], segs[cut:], h[:cut], h[cut:]


def test_train_decoder_early_stopping_returns_best():
    tr, va, htr, hva = _training_data()
    config = TrainConfig(max_epochs=50, patience=3, seed=0, batch_size=16)
    results = train_decoders(tr, va, htr, hva, NormStats.fit(tr, htr), config)
    assert list(results) == list(TARGET_LEADS)
    for result in results.values():
        assert len(result.history) < 50          # halted before the cap
        assert len(result.history) <= result.best_epoch + 3
        val_losses = [v for _, v in result.history]
        assert result.best_val_loss == pytest.approx(min(val_losses))


def test_train_decoder_conditioned_and_clean_both_finite():
    tr, va, htr, hva = _training_data(patients=2)
    for conditioned in (True, False):
        config = TrainConfig(max_epochs=2, patience=2, seed=0, batch_size=16,
                             conditioned=conditioned)
        results = train_decoders(tr, va, htr, hva, NormStats.fit(tr, htr), config)
        for result in results.values():
            assert np.isfinite(result.best_val_loss)
            assert len(result.history) == 2


def test_train_decoder_zero_segments_errors():
    tr, va, htr, hva = _training_data(patients=2)
    with pytest.raises(DataError):
        train_decoders([], va, htr[:0], hva, NormStats.fit(tr, htr), TrainConfig())


def _reference_train_decoder(lead, train_segments, val_segments, train_embeddings,
                             val_embeddings, stats, config):
    """One lead's decoder trained on its own z-scored copy of both stores:
    the per-lead training loop that `train_decoders` replaced."""
    def prep(segments, embeddings):
        li = TARGET_LEADS.index(lead)
        xs = np.concatenate([normalize_x(x) for x in chunked(segments.x)])
        ys = segments.y[:, li].astype(np.float64)
        ys = ((ys - stats.y_mu[li]) / (stats.y_sigma[li] + EPS)).astype(np.float32)
        if config.conditioned:
            hs = normalize_h(embeddings, stats.h_mu, stats.h_sigma)
        else:
            hs = np.zeros((len(segments), embeddings.shape[1]), dtype=np.float32)
        return xs, hs, ys

    xs, hs, ys = prep(train_segments, train_embeddings)
    vxs, vhs, vys = prep(val_segments, val_embeddings)
    rng = np.random.default_rng(config.seed)
    model = LeadDecoder(lead=lead, seed=config.seed)
    opt = AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)

    def val_loss():
        total = 0.0
        for lo in range(0, len(vxs), CHUNK):
            rows = slice(lo, lo + CHUNK)
            loss = recon_loss(model(Tensor(vxs[rows]), Tensor(vhs[rows])),
                              Tensor(vys[rows]))
            total += loss.item() * len(vxs[rows])
        return total / len(vxs)

    best = (0, np.inf, get_parameter_vector(model))
    history = []
    order = np.arange(len(xs))
    for epoch in range(1, config.max_epochs + 1):
        rng.shuffle(order)
        losses = []
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            loss = recon_loss(model(Tensor(xs[idx]), Tensor(hs[idx])), Tensor(ys[idx]))
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        vl = val_loss()
        history.append((float(np.mean(losses)), vl))
        if vl < best[1]:
            best = (epoch, vl, get_parameter_vector(model))
        elif epoch - best[0] >= config.patience:
            break
    set_parameter_vector(model, best[2])
    return TrainResult(model=model, best_epoch=best[0], best_val_loss=float(best[1]),
                       history=history)


@pytest.mark.parametrize("conditioned", [True, False])
def test_train_decoders_match_per_lead_reference(conditioned):
    tr, va, htr, hva = _training_data()
    stats = NormStats.fit(tr, htr)
    config = TrainConfig(lr=1e-2, max_epochs=8, patience=1, seed=0, batch_size=16,
                         conditioned=conditioned)
    results = train_decoders(tr, va, htr, hva, stats, config)
    assert list(results) == list(TARGET_LEADS)
    # early stopping must end the leads at different epochs
    assert len({len(r.history) for r in results.values()}) >= 2
    for lead, result in results.items():
        ref = _reference_train_decoder(lead, tr, va, htr, hva, stats, config)
        for p, q in zip(result.model.parameters(), ref.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        assert result.history == ref.history
        assert result.best_epoch == ref.best_epoch
        assert result.best_val_loss == ref.best_val_loss


class _ConstantDecoder:
    """Emits the mean of the first input lead per window; no h dependence."""

    def __call__(self, xb, hb):
        vals = xb.data.mean(axis=(1, 2), keepdims=True)
        return Tensor(np.broadcast_to(vals[:, 0], (xb.shape[0], xb.shape[2])).copy())


class _IdentityDecoder:
    """Returns the stored normalized target for each presented window."""

    def __init__(self, lookup):
        self.lookup = lookup  # keyed by rounded x content

    def __call__(self, xb, hb):
        out = np.stack([self.lookup[xb.data[i].tobytes()] for i in range(xb.shape[0])])
        return Tensor(out.astype(np.float32))


def _record_with_leads(n_samples, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 0.3, size=(len(ALL_LEADS), n_samples))
    return SignalRecord(samples=samples, fs=100.0, lead_names=list(ALL_LEADS),
                        record_id="rr", patient_id="pp",
                        labels=DiagnosticLabels({"NORM": 100.0}), fold=10)


def _unit_stats():
    return NormStats(h_mu=np.zeros(128), h_sigma=np.ones(128) - EPS,
                     y_mu=np.zeros(5), y_sigma=np.ones(5) - EPS)


def test_reconstruct_record_overlap_average():
    from ecgrecon.nn import Encoder
    rec = _record_with_leads(1000)
    decoders = {lead: _ConstantDecoder() for lead in TARGET_LEADS}
    out = reconstruct_record(rec, Encoder(seed=0), decoders, _unit_stats())
    assert out.shape == (5, 1000)
    # windows start at 0,256,512,744; overlap region 744..767 is the mean
    from ecgrecon.dataset import segment_record_nonoverlap
    segs = segment_record_nonoverlap(rec)
    vals = normalize_x(segs.x).mean(axis=(1, 2))
    np.testing.assert_allclose(out[0, 300], vals[1], atol=1e-5)
    np.testing.assert_allclose(out[0, 750], (vals[2] + vals[3]) / 2.0, atol=1e-5)


def test_reconstruct_record_exact_tiling_512():
    from ecgrecon.nn import Encoder
    rec = _record_with_leads(512)
    decoders = {lead: _ConstantDecoder() for lead in TARGET_LEADS}
    out = reconstruct_record(rec, Encoder(seed=0), decoders, _unit_stats())
    assert out.shape == (5, 512)


def test_unconditioned_reconstruction_skips_encoder(monkeypatch):
    from ecgrecon.nn import Encoder
    calls = []
    forward = Encoder.forward

    def counted(self, x):
        calls.append(x.shape)
        return forward(self, x)

    monkeypatch.setattr(Encoder, "forward", counted)
    seen = []

    class _ZeroConditioningDecoder(_ConstantDecoder):
        def __call__(self, xb, hb):
            seen.append(hb.data)
            return super().__call__(xb, hb)

    rec = _record_with_leads(1000)
    decoders = {lead: _ZeroConditioningDecoder() for lead in TARGET_LEADS}
    out = reconstruct_record(rec, Encoder(seed=0), decoders, _unit_stats(),
                             conditioned=False)
    assert out.shape == (5, 1000)
    assert calls == []
    assert all(h.shape == (4, Encoder.EMBED_DIM) and h.dtype == np.float32
               and not h.any() for h in seen)


def test_reconstruct_record_single_window_identity_round_trip():
    from ecgrecon.dataset import segment_record_nonoverlap
    from ecgrecon.nn import Encoder
    rec = _record_with_leads(256)
    segs = segment_record_nonoverlap(rec)
    stats = _unit_stats()
    decoders = {}
    for li, lead in enumerate(TARGET_LEADS):
        lk = {}
        for x_hat, y in zip(normalize_x(segs.x), segs.y):
            lk[x_hat.tobytes()] = y[li].astype(np.float64)
        decoders[lead] = _IdentityDecoder(lk)
    out = reconstruct_record(rec, Encoder(seed=0), decoders, stats)
    truth = np.stack([rec.lead(l) for l in TARGET_LEADS])
    assert np.abs(out - truth).max() < 1e-6


def test_conditioning_liveness_after_training():
    tr, va, htr, hva = _training_data(patients=6)
    config = TrainConfig(max_epochs=3, patience=3, seed=0, batch_size=16)
    result = train_decoders(tr, va, htr, hva, NormStats.fit(tr, htr), config)["V1"]
    n = min(8, len(va))
    xs = normalize_x(va.x[:n])
    h_mu, h_sigma = embedding_stats(htr)
    hh = normalize_h(hva[:n], h_mu, h_sigma)
    base = result.model(Tensor(xs), Tensor(hh)).data
    perm = np.roll(np.arange(n), 1)
    permuted = result.model(Tensor(xs), Tensor(hh[perm])).data
    assert np.mean(np.abs(base - permuted)) > 0.0


def test_target_lead_stats_shape():
    tr, _, _, _ = _training_data(patients=2)
    mu, sigma = target_lead_stats(tr)
    assert mu.shape == (5,) and sigma.shape == (5,)
    assert np.all(sigma > 0)


def test_target_lead_stats_match_whole_store_float64():
    # 600 windows span three chunks; the result is bit-equal to the
    # statistics of one float64 copy of the whole store
    full = np.random.default_rng(3).normal(0.1, 0.4, size=(600, 8, 256))
    segs = Segments(w=full, record_id=["r"] * 600,
                    start=np.zeros(600), fold=np.ones(600),
                    labels=[frozenset()] * 600)
    mu, sigma = target_lead_stats(segs)
    ys = segs.y.astype(np.float64)
    np.testing.assert_array_equal(mu, ys.mean(axis=(0, 2)))
    np.testing.assert_array_equal(sigma, ys.std(axis=(0, 2)))
