"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line. The expensive end-to-end checks share the session
fixtures from conftest (mid-scale synthetic corpus, one pretraining run).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from ecgrecon import tensor as T
from ecgrecon.contrastive import supcon_loss
from ecgrecon.dataset import TARGET_LEADS, segment_record_nonoverlap
from ecgrecon.errors import HeaderParseError, TruncationError
from ecgrecon.evaluation import diagonal_consistency, evaluate_model, knn_affinity
from ecgrecon.nn import Encoder, LeadDecoder, ProjectionHead
from ecgrecon.reconstruction import (EPS, NormStats, TrainConfig, decode,
                                     normalize_x, recon_loss, reconstruct_record,
                                     train_decoders)
from ecgrecon.tensor import Tensor

from _utils import finite_diff_check, random_unit_rows, supcon_loss_naive
from conftest import DESK_SEED


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# 1 ----------------------------------------------------------------------

def test_acceptance_01_contrastive_loss_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        z = random_unit_rows(rng, b, d)
        labels = [frozenset(rng.choice(["A", "B", "C", "D"],
                                       size=rng.integers(1, 3), replace=False))
                  for _ in range(b)]
        got = supcon_loss(Tensor(z, dtype=np.float64), labels).item()
        want = supcon_loss_naive(z, labels)
        worst = max(worst, abs(got - want))
    z2 = random_unit_rows(rng, 2, 4)
    pair_zero = supcon_loss(Tensor(z2, dtype=np.float64),
                            [frozenset({"A"})] * 2).item()
    elapsed = time.perf_counter() - t0
    _report("01 contrastive-loss oracle agreement",
            worst < 1e-6 and pair_zero == 0.0 and elapsed < 1.0,
            f"max|diff|={worst:.2e}, two-sample loss={pair_zero}, {elapsed:.2f}s")


# 2 ----------------------------------------------------------------------

def _grad_builders(rng):
    """One finite-difference check per architectural building block."""
    def conv_s1(l):
        return T.tensor_sum(T.mul(T.conv1d(l[0], l[1], l[2],
                                           stride=1, padding=1), l[3]))

    def conv_s1_narrow(l):
        return T.tensor_sum(T.mul(T.conv1d(l[0], l[1], l[2],
                                           stride=1, padding=2), l[3]))

    def relu(l):
        return T.tensor_sum(T.mul(T.relu(l[0]), l[1]))

    def conv_s2(l):
        return T.tensor_sum(T.mul(T.conv1d(l[0], l[1], l[2],
                                           stride=2, padding=2), l[3]))

    def conv_s2_relu(l):
        return T.tensor_sum(T.mul(T.conv1d(l[0], l[1], l[2], stride=2,
                                           padding=2, relu=True), l[3]))

    def conv_s1_narrow_relu(l):
        return T.tensor_sum(T.mul(T.conv1d(l[0], l[1], l[2], stride=1,
                                           padding=2, relu=True), l[3]))

    def dense(l):
        return T.tensor_sum(T.mul(T.add(T.matmul(l[0], l[1]), l[2]), l[3]))

    def gap(l):
        return T.tensor_sum(T.mul(T.global_avg_pool(l[0]), l[1]))

    def l2norm(l):
        return T.tensor_sum(T.mul(T.l2_normalize(l[0]), l[1]))

    def fusion(l):
        stacked = T.concat([l[0], T.broadcast_over_time(l[1], 6)], axis=1)
        return T.tensor_sum(T.mul(stacked, l[2]))

    def fused_projection(l):
        return T.tensor_sum(T.mul(T.fused_projection(*l[:8]), l[8]))

    def supcon(l):
        labels = [frozenset({"A"}), frozenset({"A"}),
                  frozenset({"B"}), frozenset({"B"})]
        return supcon_loss(T.l2_normalize(l[0]), labels)

    def recon(l):
        return recon_loss(l[0], l[1])

    n = lambda *s: rng.normal(size=s)  # noqa: E731

    def well_scaled_rows(r, c):
        # row norms in [1, 2]: normalization curvature blows up near the origin
        v = rng.normal(size=(r, c))
        scale = (1.0 + rng.random(r)) / np.linalg.norm(v, axis=1)
        return v * scale[:, None]

    def away_from_kink(*s):
        # keep |x| > 0.3 so central differences never straddle the hinge
        v = rng.normal(size=s)
        return v + np.sign(v) * 0.3

    def fused_off_kink(*shapes):
        # fused_projection's leaves, redrawn until every pre-activation of
        # its relu (the block as separate ops) is at least 0.05 from the hinge
        while True:
            leaves = [n(*s) for s in shapes]
            x, h, wx, bx, wh, bh, wf, bf = (Tensor(a, dtype=np.float64) for a in leaves)
            hp = T.broadcast_over_time(T.add(T.matmul(h, wh), bh), x.shape[2])
            z = T.conv1d(T.concat([T.conv1d(x, wx, bx), hp], axis=1), wf, bf)
            if np.abs(z.data).min() > 0.05:
                return leaves

    def conv_off_kink(stride, padding, *shapes):
        # redraw x, w and b until every pre-activation is at least 0.05 from
        # the hinge, so central differences never straddle it
        while True:
            leaves = [n(*s) for s in shapes]
            z = T.conv1d(*(Tensor(a, dtype=np.float64) for a in leaves),
                         stride=stride, padding=padding)
            if np.abs(z.data).min() > 0.05:
                return leaves

    base = n(2, 8)
    # keep |y_hat - y| > 0.1 so differences never straddle the |.| kink
    target = base + away_from_kink(2, 8) * 0.5

    return [
        # (name, builder, leaf arrays, finite-difference step)
        ("relu", relu, [away_from_kink(3, 5), n(3, 5)], 1e-3),
        ("conv-stride1", conv_s1, [n(2, 3, 8), n(4, 3, 3), n(4), n(2, 4, 8)], 1e-3),
        ("conv-stride2", conv_s2, [n(2, 3, 9), n(4, 3, 5), n(4), n(2, 4, 5)], 1e-3),
        ("dense", dense, [n(3, 4), n(4, 5), n(5), n(3, 5)], 1e-3),
        ("global-avg-pool", gap, [n(2, 4, 6), n(2, 4)], 1e-3),
        ("l2-normalize", l2norm, [well_scaled_rows(3, 5), n(3, 5)], 1e-3),
        ("fusion-concat", fusion, [n(2, 3, 6), n(2, 2), n(2, 5, 6)], 1e-3),
        # low temperature gives high curvature; a smaller step keeps the
        # central-difference truncation error below the tolerance
        ("contrastive-loss", supcon, [n(4, 3)], 1e-4),
        ("reconstruction-loss", recon, [base, target], 1e-3),
        # x, h, wx, bx, wh, bh, wf, bf: F=3, 5 channels per branch; the op
        # ends in a relu
        ("fused-projection", fused_projection,
         fused_off_kink((2, 3, 6), (2, 4), (5, 3, 1), (5,), (4, 5), (5,), (3, 10, 1), (3,))
         + [n(2, 3, 6)], 1e-3),
        # Cout < Cin at stride 1: the input gradient's transposed-convolution path
        ("conv-stride1-narrow", conv_s1_narrow,
         [n(2, 4, 8), n(2, 4, 5), n(2), n(2, 2, 8)], 1e-3),
        # conv1d with its relu fused in, on both input-gradient paths
        ("conv-stride2-relu", conv_s2_relu,
         conv_off_kink(2, 2, (2, 3, 9), (4, 3, 5), (4,)) + [n(2, 4, 5)], 1e-3),
        ("conv-stride1-narrow-relu", conv_s1_narrow_relu,
         conv_off_kink(1, 2, (2, 4, 8), (2, 4, 5), (2,)) + [n(2, 2, 8)], 1e-3),
    ]


def test_acceptance_02_gradient_suite():
    t0 = time.perf_counter()
    n_checks = 0
    for seed in range(21):
        rng = np.random.default_rng(seed)
        for name, build, arrays, step in _grad_builders(rng):
            finite_diff_check(build, arrays, step=step, tol=1e-4)
            n_checks += 1
    elapsed = time.perf_counter() - t0
    _report("02 gradient finite-difference suite",
            n_checks == 21 * 13 and elapsed < 30.0,
            f"{n_checks} checks over 21 seeds, rel err < 1e-4, {elapsed:.1f}s")


# 3 ----------------------------------------------------------------------

def test_acceptance_03_signal_processing_suite():
    from ecgrecon import dsp
    t0 = time.perf_counter()

    def gain_db(filt, freq, fs):
        t = np.arange(int(10 * fs)) / fs
        x = np.sin(2 * np.pi * freq * t)
        y = filt(x, fs)
        s = int(fs)
        return 20 * np.log10(np.sqrt(np.mean(y[s:-s] ** 2)) /
                             np.sqrt(np.mean(x[s:-s] ** 2)))

    ok = gain_db(dsp.notch_filter, 50.0, 200.0) <= -20.0
    ok = ok and abs(gain_db(dsp.bandpass_filter, 10.0, 100.0)) <= 0.5
    ok = ok and np.abs(dsp.bandpass_filter(np.ones(2000), 100.0)[500:1500]).max() < 1e-3
    ok = ok and np.abs(dsp.baseline_remove(np.full(500, 2.0), 100.0)).max() < 1e-9
    ok = ok and len(dsp.resample_to_100hz(np.zeros(5000), 500.0)) == 1000

    hits = total = 0
    fs = 100.0
    for seed in range(5):
        truth = list(range(100, 5900, 80))
        t = np.arange(6000) / fs
        x = np.zeros(6000)
        for p in truth:
            x += np.exp(-0.5 * ((t - p / fs) / 0.012) ** 2)
        x += np.random.default_rng(seed).normal(0, 0.02, size=6000)
        peaks = np.array(dsp.detect_r_peaks(x, fs))
        total += len(truth)
        for want in truth:
            if len(peaks) and np.min(np.abs(peaks - want)) <= 3:
                hits += 1
    sens = hits / total
    elapsed = time.perf_counter() - t0
    _report("03 signal-processing suite",
            ok and sens >= 0.99 and elapsed < 10.0,
            f"r-peak sensitivity {sens:.4f} at noise 0.02, {elapsed:.1f}s")


# 4 ----------------------------------------------------------------------

def test_acceptance_04_waveform_parser_suite(tmp_path):
    from ecgrecon.dataset import ALL_LEADS
    from ecgrecon.wfdb_io import (DiagnosticLabels, SignalRecord, load_record,
                                  parse_header, parse_ptbxl_metadata,
                                  write_record)
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    rec = SignalRecord(samples=rng.normal(0, 0.5, size=(len(ALL_LEADS), 1000)),
                       fs=100.0, lead_names=list(ALL_LEADS),
                       record_id="acc", patient_id="p0",
                       labels=DiagnosticLabels({"NORM": 100.0}), fold=1)
    write_record(rec, tmp_path)
    back = load_record(tmp_path / "acc.hea", verify_checksum=True)
    round_trip_err = np.abs(back.samples - rec.samples).max()
    ok = round_trip_err < 1e-3  # integer quantization at gain 1000

    hea_text = (tmp_path / "acc.hea").read_text().splitlines()
    hea_text[1] = "garbage signal line"
    try:
        parse_header("\n".join(hea_text) + "\n")
        ok = False
    except HeaderParseError as exc:
        ok = ok and exc.line_no == 2

    from ecgrecon.wfdb_io import read_signals
    header = parse_header((tmp_path / "acc.hea").read_text())
    try:
        read_signals(header, (tmp_path / "acc.dat").read_bytes()[:-10])
        ok = False
    except TruncationError:
        pass

    db = ('ecg_id,patient_id,scp_codes,strat_fold,filename_lr\n'
          '1,15709.0,"{\'NORM\': 100.0, \'SR\': 0.0}",3,records/1\n'
          '2,bad_row,"not a dict",x,records/2\n')
    scp = "code,diagnostic_class\nNORM,NORM\nSR,\n"
    meta = parse_ptbxl_metadata(db, scp)
    ok = ok and list(meta.rows) == ["1"] and len(meta.errors) == 1
    ok = ok and meta.rows["1"].fold == 3
    ok = ok and meta.rows["1"].labels.high_confidence() == {"NORM"}
    elapsed = time.perf_counter() - t0
    _report("04 waveform parser suite",
            ok and elapsed < 5.0,
            f"round-trip err {round_trip_err:.1e} mV, {elapsed:.2f}s")


# 5 ----------------------------------------------------------------------

def test_acceptance_05_embedding_class_affinity(desk_splits, desk_embeddings,
                                                desk_times):
    t0 = time.perf_counter()
    segs = desk_splits["test"]
    h = desk_embeddings["test"]
    idx = [i for i, l in enumerate(segs.labels) if len(l) == 1]
    labels = [next(iter(segs.labels[i])) for i in idx]
    h_aff = knn_affinity(h[idx], labels, k=10)
    x_flat = normalize_x(segs.x[idx]).reshape(len(idx), -1)
    x_aff = knn_affinity(x_flat, labels, k=10)
    dh = diagonal_consistency(h_aff)
    dx = diagonal_consistency(x_aff)
    elapsed = (time.perf_counter() - t0 + desk_times.get("pretrain", 0.0)
               + desk_times.get("embed", 0.0))
    _report("05 embedding class-affinity separation",
            dh >= 0.80 and dh - dx >= 0.15 and elapsed < 15 * 60,
            f"diag(h)={dh:.3f}, diag(x)={dx:.3f}, {elapsed:.0f}s incl. pretraining")


# 6 ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_decoders(desk_splits, desk_embeddings, desk_times):
    """Train conditioned and unconditioned decoder sets on an identical
    budget and seed; returns (results_ch, results_c, stats, wall_seconds)."""
    tr, va = desk_splits["train"], desk_splits["val"]
    htr, hva = desk_embeddings["train"], desk_embeddings["val"]
    stats = NormStats.fit(tr, htr)
    t0 = time.perf_counter()
    results = {}
    for conditioned in (True, False):
        config = TrainConfig(max_epochs=15, patience=15, seed=DESK_SEED,
                             conditioned=conditioned)
        results[conditioned] = train_decoders(tr, va, htr, hva, stats, config)
    wall = time.perf_counter() - t0
    desk_times["decoders"] = wall
    return results[True], results[False], stats, wall


def test_acceptance_06_conditioning_beats_ablation(desk_splits, desk_pretrained,
                                                   desk_decoders):
    res_ch, res_c, stats, wall = desk_decoders
    encoder = desk_pretrained[0]
    records = desk_splits["test_records"]
    rep_ch, rep_c = evaluate_model(records, encoder, [
        ({l: r.model for l, r in res_ch.items()}, stats, True),
        ({l: r.model for l, r in res_c.items()}, stats, False)])
    wins = [l for l in TARGET_LEADS
            if rep_ch.segment_metrics[l].rmse < rep_c.segment_metrics[l].rmse]
    detail = ", ".join(
        f"{l}: {rep_c.segment_metrics[l].rmse:.4f}->"
        f"{rep_ch.segment_metrics[l].rmse:.4f}" for l in TARGET_LEADS)
    _report("06 conditioned decoders beat clean-only ablation",
            len(wins) >= 4 and wall < 30 * 60,
            f"{len(wins)}/5 leads improved ({detail}), train {wall:.0f}s")


# 7 ----------------------------------------------------------------------

def test_acceptance_07_conditioning_liveness(desk_splits, desk_embeddings,
                                             desk_decoders):
    res_ch, _, stats, _ = desk_decoders
    segs = desk_splits["test"][:32]
    h = desk_embeddings["test"][:32]
    from ecgrecon.reconstruction import normalize_h
    xs = normalize_x(segs.x)
    hh = normalize_h(h, stats.h_mu, stats.h_sigma)
    perm = np.roll(np.arange(len(segs)), 1)
    deltas = []
    for lead, res in res_ch.items():
        base = res.model(Tensor(xs), Tensor(hh)).data
        other = res.model(Tensor(xs), Tensor(hh[perm])).data
        deltas.append(np.mean(np.abs(base - other)))
    mean_delta = float(np.mean(deltas))
    _report("07 conditioning input is live",
            mean_delta > 1e-4,
            f"mean |output change| under embedding swap = {mean_delta:.2e}")


# 8 ----------------------------------------------------------------------

class _WindowLookupDecoder:
    """Stub that maps each presented window to a stored trace."""

    def __init__(self, lookup):
        self.lookup = lookup

    def __call__(self, xb, hb):
        out = np.stack([self.lookup[xb.data[i].tobytes()]
                        for i in range(xb.shape[0])])
        return Tensor(out.astype(np.float32))


def test_acceptance_08_record_reassembly():
    from ecgrecon.dataset import ALL_LEADS
    from ecgrecon.wfdb_io import DiagnosticLabels, SignalRecord
    rng = np.random.default_rng(0)
    rec = SignalRecord(samples=rng.normal(0, 0.3, size=(len(ALL_LEADS), 1000)),
                       fs=100.0, lead_names=list(ALL_LEADS),
                       record_id="asm", patient_id="p",
                       labels=DiagnosticLabels({"NORM": 100.0}), fold=10)
    segs = segment_record_nonoverlap(rec)
    offsets_ok = segs.start.tolist() == [0, 256, 512, 744]
    stats = NormStats(h_mu=np.zeros(128), h_sigma=np.ones(128) - EPS,
                      y_mu=np.zeros(5), y_sigma=np.ones(5) - EPS)
    decoders = {}
    for li, lead in enumerate(TARGET_LEADS):
        lk = {x_hat.tobytes(): y[li].astype(np.float64)
              for x_hat, y in zip(normalize_x(segs.x), segs.y)}
        decoders[lead] = _WindowLookupDecoder(lk)
    out = reconstruct_record(rec, Encoder(seed=0), decoders, stats)
    truth = np.stack([rec.lead(l) for l in TARGET_LEADS])
    err = np.abs(out - truth).max()
    _report("08 non-overlapping reassembly round trip",
            offsets_ok and err < 1e-6,
            f"offsets {segs.start.tolist()}, max err {err:.1e}")


# 9 ----------------------------------------------------------------------

def test_acceptance_09_parameter_budget():
    total = Encoder(seed=0).parameter_count()
    total += ProjectionHead(seed=0).parameter_count()
    per_lead = LeadDecoder(lead="V1", seed=0).parameter_count()
    total += per_lead * len(TARGET_LEADS)
    _report("09 model parameter budget",
            200_000 <= total <= 280_000,
            f"{total:,} trainable parameters")


# 10 ---------------------------------------------------------------------

def test_acceptance_10_decode_latency():
    model = LeadDecoder(lead="V1", seed=0)
    x = np.random.default_rng(0).normal(size=(3, 256)).astype(np.float32)
    h = np.random.default_rng(1).normal(size=128).astype(np.float32)
    for _ in range(50):
        decode(x, h, model)
    times = []
    for _ in range(1000):
        t0 = time.perf_counter()
        decode(x, h, model)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times)) * 1e3
    _report("10 single-window decode latency",
            median_ms < 1.0,
            f"median {median_ms:.3f} ms over 1000 runs")


# 11 ---------------------------------------------------------------------

def _find_real_dataset():
    candidates = [os.environ.get("ECGRECON_PTBXL_DIR", "")]
    candidates += ["/root/data/ptb-xl", "/data/ptb-xl",
                   str(Path.home() / "ptb-xl")]
    for c in candidates:
        if c and (Path(c) / "ptbxl_database.csv").exists():
            return Path(c)
    return None


def test_acceptance_11_real_dataset_pathway(tmp_path):
    data_dir = _find_real_dataset()
    if data_dir is None:
        pytest.skip("real 12-lead corpus not present locally "
                    "(set ECGRECON_PTBXL_DIR to run)")
    from ecgrecon.cli import main
    pre = tmp_path / "pre"
    assert main(["preprocess", "--out", str(pre), "--data", str(data_dir)]) == 0
    split = tmp_path / "split"
    assert main(["split", "--out", str(split), "--data", str(pre)]) == 0
    _report("11 real-dataset pipeline pathway", True,
            f"preprocess+split completed from {data_dir}")
