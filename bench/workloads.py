"""The benchmark's three workloads.

Each workload has a set-up that makes its inputs from the seed, a round
of measured operations (CLI stages run in process through
`ecgrecon.cli.main`, and for `infer` single-window `decode` calls), and a
check of the last round's outputs against `reference`. A round always
attempts the same operations, so runs of any length compare.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ecgrecon import (cli, contrastive, dataset, nn, reconstruction, synth,
                      wfdb_io)

import reference as ref
from reference import require

FS = 100.0
BASE_SECONDS = 10.0          # PTB-XL records are 10 s
RECORDS_PER_PATIENT = 2


class SetupError(RuntimeError):
    """A stage that builds the workload's inputs did not succeed."""


@dataclass
class Ops:
    """Operations attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0

    def stage(self, argv):
        """Run one CLI stage in process; returns its wall seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        with contextlib.redirect_stdout(sys.stderr):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # the argument parser rejected argv
                code = exc.code
            elapsed = perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"bench: {argv[0]} exited {code}", file=sys.stderr)
        return elapsed


@dataclass
class Corpus:
    """What the benchmark knows about the corpus it wrote."""

    path: Path
    samples: dict = field(default_factory=dict)    # record id -> n samples
    folds: dict = field(default_factory=dict)      # record id -> fold

    @property
    def ecg_seconds(self):
        return sum(self.samples.values()) / FS

    def records(self, split):
        return [r for r, f in self.folds.items() if _split_of(f) == split]

    def windows_before_qc(self):
        return sum(len(ref.window_starts(n, overlapping=self.folds[r] <= 9))
                   for r, n in self.samples.items())


def _split_of(fold):
    return "train" if fold <= 8 else "val" if fold == 9 else "test"


def write_corpus(out, seed, patients, test_seconds=BASE_SECONDS,
                 records_per_patient=RECORDS_PER_PATIENT):
    """Synthetic corpus in the PTB-XL layout: four classes, `patients` per
    class, `records_per_patient` 100 Hz format-16 records each, folds
    assigned round-robin over patients. Test-fold (10) records last
    `test_seconds`."""
    out = Path(out)
    corpus = Corpus(out)
    specs = synth.builtin_class_specs()
    rng = np.random.default_rng(seed)
    rows = ["ecg_id,patient_id,scp_codes,strat_fold,filename_lr"]
    p_global = 0
    for spec in specs:
        for p in range(patients):
            patient = f"{spec.class_name}-P{p:03d}"
            fold = p_global % 10 + 1
            p_global += 1
            hr = rng.uniform(*spec.hr_range)
            amp = {lead: rng.uniform(0.8, 1.2) for lead in dataset.ALL_LEADS}
            seconds = test_seconds if fold == 10 else BASE_SECONDS
            for r in range(records_per_patient):
                rec = synth.generate_record(
                    spec, seconds, FS, int(rng.integers(0, 2 ** 32)), amp_scale=amp,
                    heart_rate=hr, record_id=f"{patient}-R{r:02d}", patient_id=patient)
                wfdb_io.write_record(rec, out / "records")
                rows.append(f'{rec.record_id},{patient},"{{\'{spec.class_name}\': 100.0}}",'
                            f'{fold},records/{rec.record_id}')
                corpus.samples[rec.record_id] = rec.n_samples
                corpus.folds[rec.record_id] = fold
    (out / "database.csv").write_text("\n".join(rows) + "\n")
    (out / "scp_statements.csv").write_text(
        "code,diagnostic_class\n" + "".join(f"{s.class_name},{s.class_name}\n"
                                            for s in specs))
    return corpus


def _setup_stage(argv):
    ops = Ops()
    ops.stage(argv)
    if ops.failed:
        raise SetupError(f"set-up stage {argv[0]} failed")


def _clean_and_split(d, corpus):
    _setup_stage(["preprocess", "--out", d / "pre", "--data", corpus.path])
    _setup_stage(["split", "--out", d / "split", "--data", d / "pre"])
    return d / "split"


def _median(values):
    return float(np.median(values))


# -- ingest ------------------------------------------------------------------

class Ingest:
    """`preprocess --verify-checksums` then `split` on a raw corpus."""

    name = "ingest"
    stages = ("preprocess", "split")
    checked_records = 8

    def __init__(self, patients=10):
        self.patients = patients

    def setup(self, d, seed):
        return {"seed": seed, "corpus": write_corpus(Path(d) / "raw", seed, self.patients)}

    def run_round(self, ctx, r, ops):
        raw = ctx["corpus"].path
        return {"preprocess": ops.stage(["preprocess", "--out", r / "pre", "--data", raw,
                                         "--verify-checksums"]),
                "split": ops.stage(["split", "--out", r / "split", "--data", r / "pre"])}

    def checked(self, ctx):
        """Record ids whose cleaning is recomputed from the raw files."""
        ids = sorted(ctx["corpus"].samples)
        rng = np.random.default_rng(ctx["seed"])
        return sorted(rng.choice(ids, size=min(self.checked_records, len(ids)),
                                 replace=False))

    def check(self, ctx, r, rounds):
        corpus = ctx["corpus"]
        cleaned = check_cleaning(corpus, r / "pre", self.checked(ctx))
        check_split(corpus, cleaned, r / "split")

    def stage_metrics(self, ctx, rounds):
        return {
            "preprocess_ecg_s_per_s": (ctx["corpus"].ecg_seconds
                                       / _median([t["preprocess"] for t in rounds]),
                                       "ECG-s/s"),
            "split_windows_per_s": (ctx["corpus"].windows_before_qc()
                                    / _median([t["split"] for t in rounds]), "windows/s"),
        }


def check_cleaning(corpus, pre, checked):
    """Every database row yields one cleaned 100 Hz record of
    floor(n * 100 / fs) samples; for `checked` records the documented
    chain, recomputed from the raw files, matches within quantization."""
    db = ref.read_database(corpus.path)
    index = json.loads((pre / "records_index.json").read_text())
    require(sorted(e["record_id"] for e in index) == sorted(db),
            "cleaned records do not match the database rows one to one")
    config = json.loads((pre / "manifest.json").read_text())["config"]
    spec = config["filter"]
    band_high = 40.0 if config["bandpass_fallback_40hz"] else spec["bandpass_high"]
    cleaned = {}
    for rid, (_, _, rel) in db.items():
        fs_raw, raw, raw_names, _ = ref.read_record(corpus.path / f"{rel}.hea")
        fs, x, names, step = ref.read_record(pre / "cleaned" / f"{rid}.hea")
        want_n = int(np.floor(raw.shape[1] * 100.0 / fs_raw))
        require(fs == 100.0 and x.shape[1] == want_n,
                f"{rid}: cleaned record has {x.shape[1]} samples at {fs} Hz, "
                f"want {want_n} at 100 Hz")
        require(names == raw_names, f"{rid}: lead order changed")
        cleaned[rid] = (names, x)
        if rid in checked:
            for i in range(len(names)):
                err = np.max(np.abs(ref.clean(raw[i], fs_raw, spec, band_high) - x[i]))
                require(err <= step / 2 + 1e-9,
                        f"{rid} lead {names[i]}: cleaned samples differ from the "
                        f"documented chain by {err:.3g} mV")
    return cleaned


def check_split(corpus, cleaned, split):
    """Patient independence, fold rule, stored windows equal the cleaned
    samples, QC bounds hold, and kept plus rejected windows equal the
    windowing formula."""
    db = ref.read_database(corpus.path)
    listed = json.loads((split / "splits.json").read_text())["records"]
    owner, seen = {}, []
    for name, ids in listed.items():
        for rid in ids:
            patient, fold, _ = db[rid]
            require(_split_of(fold) == name, f"{rid} (fold {fold}) listed under {name}")
            first = owner.setdefault(patient, name)
            require(first == name, f"patient {patient} appears in {first} and {name}")
            seen.append(rid)
    require(sorted(seen) == sorted(db), "split record lists do not cover the corpus once")
    rejected = json.loads((split / "manifest.json").read_text())["rejected"]
    order = list(ref.INPUT_LEADS + ref.TARGET_LEADS)
    for name in ("train", "val", "test"):
        overlapping = name != "test"
        manifest, blob = ref.read_segments(split / f"segments_{name}")
        members = set(listed[name])
        for i, meta in enumerate(manifest["segments"]):
            rid, start = meta["record_id"], meta["start"]
            require(rid in members, f"{name} store holds a window of {rid}")
            names, x = cleaned[rid]
            require(start in ref.window_starts(x.shape[1], overlapping),
                    f"{rid}@{start} is not a window offset")
            want = x[[names.index(l) for l in order], start:start + ref.WINDOW]
            require(np.array_equal(blob[i], want.astype(np.float32)),
                    f"{name} window {rid}@{start} differs from the cleaned record")
        if len(blob):
            qc = manifest["qc"]["bounds"]
            full = blob.astype(np.float64)
            ptp = full.max(axis=2) - full.min(axis=2)
            rms = np.sqrt(np.mean(full * full, axis=2))
            for stat, lo, hi in ((ptp, "ptp_lo", "ptp_hi"), (rms, "rms_lo", "rms_hi")):
                slack = 1e-12 * np.abs(stat).max()
                require(np.all(stat >= np.asarray(qc[lo]) - slack)
                        and np.all(stat <= np.asarray(qc[hi]) + slack),
                        f"a kept {name} window lies outside the QC bounds ({lo[:3]})")
        want = sum(len(ref.window_starts(cleaned[rid][1].shape[1], overlapping))
                   for rid in members)
        require(len(blob) + rejected[name] == want,
                f"{name}: {len(blob)} kept + {rejected[name]} rejected != {want} windows")


# -- train -------------------------------------------------------------------

class Train:
    """`pretrain`, `embed`, then `train` for all five leads, each for a
    fixed number of epochs on a cleaned and split corpus."""

    name = "train"
    stages = ("pretrain", "embed", "train")
    pretrain_epochs = 1
    decoder_epochs = 1

    def __init__(self, patients=8, records_per_patient=1):
        self.patients = patients
        self.records_per_patient = records_per_patient

    def setup(self, d, seed):
        d = Path(d)
        corpus = write_corpus(d / "raw", seed, self.patients,
                              records_per_patient=self.records_per_patient)
        split = _clean_and_split(d, corpus)
        manifest, _ = ref.read_segments(split / "segments_train")
        return {"seed": seed, "corpus": corpus, "split": split,
                "train_windows": manifest["n_segments"],
                "labelled": sum(1 for s in manifest["segments"] if s["labels"])}

    def run_round(self, ctx, r, ops):
        split, seed = ctx["split"], ctx["seed"]
        return {
            "pretrain": ops.stage(["pretrain", "--out", r / "pt", "--data", split,
                                   "--epochs", self.pretrain_epochs,
                                   "--batch-size", 128, "--seed", seed]),
            "embed": ops.stage(["embed", "--out", r / "emb", "--data", split,
                                "--encoder", r / "pt"]),
            # patience >= epochs, so early stopping never shortens a round;
            # unconditioned decoders run the same graph at the same cost but
            # do not depend on normalize_h (see the README)
            "train": ops.stage(["train", "--out", r / "dec", "--data", split,
                                "--embeddings", r / "emb", "--clean-only",
                                "--epochs", self.decoder_epochs,
                                "--patience", self.decoder_epochs,
                                "--batch-size", 32, "--seed", seed]),
        }

    def check(self, ctx, r, rounds):
        check_training(ctx["split"], r / "pt", r / "dec", self.pretrain_epochs,
                       self.decoder_epochs)

    def stage_metrics(self, ctx, rounds):
        dec = json.loads((rounds[-1]["dir"] / "dec" / "manifest.json").read_text())
        return {
            "pretrain_pairs_per_s": (ctx["labelled"] * self.pretrain_epochs
                                     / _median([t["pretrain"] for t in rounds]),
                                     "pairs/s"),
            "decoder_windows_per_s": (ctx["train_windows"] * len(ref.TARGET_LEADS)
                                      * self.decoder_epochs
                                      / _median([t["train"] for t in rounds]),
                                      "windows/s"),
            "decoder_val_loss": (float(np.mean(list(dec["best_val_loss"].values()))),
                                 "loss"),
        }


def check_training(split, pt, dec, pretrain_epochs, decoder_epochs):
    """Documented parameter counts, finite loss histories of the fixed
    length, and every lead's best validation loss below that of the
    constant training-mean predictor."""
    for path, kind in ((pt / "encoder.ckpt", "encoder"),
                       (pt / "projection.ckpt", "projection")):
        _, params = ref.read_checkpoint(path)
        count = sum(p.size for p in params.values())
        require(count == ref.PARAM_COUNTS[kind], f"{kind} has {count} parameters")
    losses = json.loads((pt / "training_log.json").read_text())["loss"]
    require(len(losses) == pretrain_epochs and np.all(np.isfinite(losses)),
            f"pretrain loss history {losses}")
    _, val = ref.read_segments(split / "segments_val")
    stats = json.loads((dec / "norm_stats.json").read_text())
    for i, lead in enumerate(ref.TARGET_LEADS):
        desc, params = ref.read_checkpoint(dec / f"decoder_{lead}.ckpt")
        count = sum(p.size for p in params.values())
        require(count == ref.PARAM_COUNTS["decoder"], f"decoder {lead} has {count} parameters")
        history = np.asarray(desc["extra"]["history"], dtype=np.float64)
        require(history.shape == (decoder_epochs, 2) and np.all(np.isfinite(history)),
                f"decoder {lead} history {history.tolist()}")
        best = desc["extra"]["best_val_loss"]
        require(best == history[:, 1].min(), f"decoder {lead}: best val loss {best} "
                f"is not the minimum of its history")
        z = ((val[:, len(ref.INPUT_LEADS) + i].astype(np.float64) - stats["y_mu"][i])
             / (stats["y_sigma"][i] + ref.NORM_EPS))
        constant = float(np.mean(z * z) + np.mean(np.abs(z)))
        require(best < constant, f"decoder {lead}: best val loss {best:.4f} is not "
                f"below the constant predictor's {constant:.4f}")


# -- infer -------------------------------------------------------------------

class Infer:
    """`embed`, `evaluate` and `reconstruct` with untrained, seeded weights
    on long test records, then back-to-back single-window `decode` calls."""

    name = "infer"
    stages = ("embed", "evaluate", "reconstruct", "decode")
    checked_windows = 64

    def __init__(self, patients=5, test_seconds=40.0, decode_calls=1000):
        self.patients = patients
        self.test_seconds = test_seconds
        self.decode_calls = decode_calls

    def setup(self, d, seed):
        d = Path(d)
        corpus = write_corpus(d / "raw", seed, self.patients, self.test_seconds)
        split = _clean_and_split(d, corpus)
        pt, dec = d / "pt", d / "dec"
        write_untrained_models(split, pt, dec, seed)
        # decode inputs: every non-overlapping window of the test records,
        # normalized by the reference so `decode` alone is measured
        model = ref.Model(pt, dec)
        windows = []
        for rid in corpus.records("test"):
            _, x, names, _ = ref.read_record(d / "pre" / "cleaned" / f"{rid}.hea")
            x = x[[names.index(l) for l in ref.INPUT_LEADS]]
            windows += [x[:, s:s + ref.WINDOW]
                        for s in ref.window_starts(x.shape[1], overlapping=False)]
        x = np.stack(windows).astype(np.float32)
        return {
            "seed": seed, "corpus": corpus, "split": split, "pt": pt, "dec": dec,
            "x_hat": ref.normalize_x(x).astype(np.float32),
            "h_hat": model.normalize_h(model.embed(x)).astype(np.float32),
            "decoders": {lead: nn.load_checkpoint(dec / f"decoder_{lead}.ckpt")[0]
                         for lead in ref.TARGET_LEADS},
            "store_windows": sum(ref.read_segments(split / f"segments_{s}")[1].shape[0]
                                 for s in ("train", "val", "test")),
        }

    def run_round(self, ctx, r, ops):
        split, pt, dec = ctx["split"], ctx["pt"], ctx["dec"]
        times = {
            "embed": ops.stage(["embed", "--out", r / "emb", "--data", split,
                                "--encoder", pt]),
            "evaluate": ops.stage(["evaluate", "--out", r / "eval", "--data", split,
                                   "--encoder", pt, "--decoders", dec]),
            "reconstruct": ops.stage(["reconstruct", "--out", r / "rec", "--data", split,
                                      "--encoder", pt, "--decoders", dec]),
        }
        latencies, outputs = self.decode_loop(ctx, ops)
        times["decode"] = float(latencies.sum())
        times["decode_latencies"] = latencies
        # inputs and weights are the same every round, so are the outputs;
        # only the last round's are kept and checked against the reference
        previous = ctx.get("decode_outputs")
        times["decode_repeated"] = previous is None or np.array_equal(
            previous, outputs, equal_nan=True)
        ctx["decode_outputs"] = outputs
        return times

    def decode_loop(self, ctx, ops):
        """One caller, back to back: call i decodes window i // 5 (cycling)
        for lead i % 5."""
        x_hat, h_hat, models = ctx["x_hat"], ctx["h_hat"], ctx["decoders"]
        leads = ref.TARGET_LEADS
        n = len(x_hat)
        latencies = np.zeros(self.decode_calls)
        outputs = np.full((self.decode_calls, x_hat.shape[2]), np.nan, dtype=np.float32)
        decode = reconstruction.decode
        for i in range(self.decode_calls):
            j, model = (i // len(leads)) % n, models[leads[i % len(leads)]]
            t0 = perf_counter()
            try:
                y = decode(x_hat[j], h_hat[j], model)
                latencies[i] = perf_counter() - t0
            except Exception:  # counted as a failed operation; the loop goes on
                latencies[i] = perf_counter() - t0
                ops.failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                outputs[i] = y
        ops.attempted += self.decode_calls
        return latencies, outputs

    def check(self, ctx, r, rounds, decoder_dir=None):
        model = ref.Model(ctx["pt"], decoder_dir or ctx["dec"])
        check_embeddings(model, ctx["split"], r / "emb", ctx["seed"], self.checked_windows)
        require(all(t["decode_repeated"] for t in rounds),
                "decode outputs changed between rounds")
        n = len(ctx["x_hat"])
        want = np.stack([ref.decode(model.dec[lead], ctx["x_hat"].astype(np.float64),
                                    ctx["h_hat"].astype(np.float64))
                         for lead in ref.TARGET_LEADS])        # [5, n, T]
        calls = np.arange(self.decode_calls)
        want = want[calls % len(ref.TARGET_LEADS), (calls // len(ref.TARGET_LEADS)) % n]
        got = ctx["decode_outputs"]
        done = ~np.isnan(got[:, 0])
        err = np.max(np.abs(got[done] - want[done]), initial=0.0)
        require(err <= 1e-4 * (1.0 + np.abs(want).max()),
                f"decode output differs from the reference by {err:.3g}")
        check_reconstruction(model, ctx["corpus"], ctx["split"].parent / "pre",
                             r / "rec", r / "eval")

    def stage_metrics(self, ctx, rounds):
        corpus = ctx["corpus"]
        test_seconds = sum(corpus.samples[r] for r in corpus.records("test")) / FS
        latencies = np.concatenate([t["decode_latencies"] for t in rounds]) * 1e3
        return {
            "embed_windows_per_s": (ctx["store_windows"]
                                    / _median([t["embed"] for t in rounds]), "windows/s"),
            "evaluate_ecg_s_per_s": (test_seconds
                                     / _median([t["evaluate"] for t in rounds]), "ECG-s/s"),
            "reconstruct_ecg_s_per_s": (test_seconds
                                        / _median([t["reconstruct"] for t in rounds]),
                                        "ECG-s/s"),
            "decode_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
            "decode_p99_ms": (float(np.percentile(latencies, 99)), "ms"),
            "decode_samples": (int(latencies.size), "count"),
        }


def write_untrained_models(split, pt, dec, seed):
    """Seeded, untrained encoder and decoders written through the
    program's checkpoint writer, with norm stats from the training store."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    pt.mkdir(parents=True)
    dec.mkdir(parents=True)
    encoder = nn.Encoder(seed=seed)
    contrastive.save_pretrained(pt, encoder, nn.ProjectionHead(seed=seed + 1), [])
    cli.write_manifest(pt, "pretrain", {"untrained": True, "seed": seed}, [split],
                       [pt / "encoder.ckpt.json"], started)
    train_segments, _ = dataset.load_segments(split / "segments_train")
    h_mu, h_sigma = reconstruction.embedding_stats(
        contrastive.embed_all(train_segments, encoder))
    y_mu, y_sigma = reconstruction.target_lead_stats(train_segments)
    stats = reconstruction.NormStats(h_mu=h_mu, h_sigma=h_sigma, y_mu=y_mu,
                                     y_sigma=y_sigma)
    for i, lead in enumerate(ref.TARGET_LEADS):
        nn.save_checkpoint(dec / f"decoder_{lead}.ckpt",
                           nn.LeadDecoder(lead=lead, seed=seed + 2 + i),
                           extra={"norm_stats": stats.to_dict()})
    (dec / "norm_stats.json").write_text(json.dumps(stats.to_dict()))
    cli.write_manifest(dec, "train", {"conditioned": True, "untrained": True, "seed": seed},
                       [split], [dec / f"decoder_{l}.ckpt.json" for l in ref.TARGET_LEADS],
                       started)


def check_embeddings(model, split, emb, seed, per_split):
    """Embeddings of a sample of windows from each store match the
    reference encoder."""
    rng = np.random.default_rng(seed)
    for name in ("train", "val", "test"):
        _, blob = ref.read_segments(split / f"segments_{name}")
        h = ref.read_vectors(emb / f"embeddings_{name}")
        require(h.shape[0] == blob.shape[0], f"{name}: {h.shape[0]} embeddings "
                f"for {blob.shape[0]} windows")
        if not len(blob):
            continue
        rows = rng.choice(len(blob), size=min(per_split, len(blob)), replace=False)
        want = model.embed(blob[rows, :3])
        err = np.max(np.abs(h[rows] - want))
        require(err <= 1e-4 * (1.0 + np.abs(want).max()),
                f"{name} embeddings differ from the reference by {err:.3g}")


def check_reconstruction(model, corpus, pre, rec, evaluation):
    """Every reconstructed record read back from disk, its per-record RMSE
    and the record-level RMSE of the report match the reference."""
    sidecar = json.loads((rec / "reconstruction_metrics.json").read_text())
    report = json.loads((evaluation / "report.json").read_text())["record_metrics"]
    test = corpus.records("test")
    require(sorted(sidecar) == sorted(test), "reconstruct covered other records "
            "than the test fold")
    per_lead = {lead: [] for lead in ref.TARGET_LEADS}
    for rid in test:
        _, x, names, _ = ref.read_record(pre / "cleaned" / f"{rid}.hea")
        want = model.reconstruct_record(x[[names.index(l) for l in ref.INPUT_LEADS]])
        _, got, got_names, step = ref.read_record(rec / "records" / f"{rid}-recon.hea")
        require(got_names == list(ref.TARGET_LEADS) and got.shape == want.shape,
                f"{rid}-recon has leads {got_names} and shape {got.shape}")
        err = np.max(np.abs(got - want))
        require(err <= step / 2 + 1e-4, f"{rid}-recon differs from the reference "
                f"by {err:.3g} mV")
        truth = x[[names.index(l) for l in ref.TARGET_LEADS]]
        for i, lead in enumerate(ref.TARGET_LEADS):
            e = ref.rmse(want[i], truth[i])
            per_lead[lead].append(e)
            require(abs(sidecar[rid][lead] - e) <= 1e-4 * (1.0 + e),
                    f"{rid} {lead}: sidecar RMSE {sidecar[rid][lead]:.6f}, reference {e:.6f}")
    for lead, values in per_lead.items():
        want = float(np.mean(values))
        got = report[lead]
        require(got["n"] == len(test) and abs(got["rmse"] - want) <= 1e-4 * (1.0 + want),
                f"report {lead}: record RMSE {got['rmse']:.6f} over {got['n']}, "
                f"reference {want:.6f} over {len(test)}")


WORKLOADS = {w.name: w for w in (Ingest, Train, Infer)}


def remove(path):
    shutil.rmtree(path, ignore_errors=True)
