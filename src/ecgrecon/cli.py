"""Subcommand front-end for the reconstruction pipeline.

Stages: synth -> preprocess -> split -> pretrain -> embed -> train ->
reconstruct / evaluate / affinity. `run_stage` runs each one: the stage
writes into a temporary sibling of `--out`, which gets its manifest.json
last and is then renamed into place; downstream stages require it.

Exit codes: 0 ok, 2 config error, 3 dependency error, 4 data error,
5 internal error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np

from . import __version__
from . import dsp
from .contrastive import PretrainConfig, embed_all, pretrain, save_pretrained
from .dataset import (TARGET_LEADS, Segments, apply_qc, chunked, fit_qc_bounds,
                      load_segments, load_vectors, save_segments, save_vectors,
                      segment_record, segment_record_nonoverlap, segment_stats,
                      split_by_fold)
from .errors import (ConfigError, DataError, DependencyError, PipelineError,
                     json_field, read_json, read_text)
from .evaluation import (comparison_csv, comparison_table, diagonal_consistency,
                         evaluate_model, knn_affinity, rmse)
from .nn import load_checkpoint
from .reconstruction import (NormStats, TrainConfig, normalize_x,
                             reconstruct_record, save_decoders, train_decoders)
from .synth import builtin_class_specs, generate_corpus, load_class_specs
from .wfdb_io import (DiagnosticLabels, SignalRecord, load_record,
                      parse_ptbxl_metadata, write_record)


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _config_hash(snapshot):
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def write_manifest(out_dir, command, config_snapshot, inputs, outputs,
                   started, extras=None):
    manifest = {
        "command": command,
        "config": config_snapshot,
        "config_hash": _config_hash(config_snapshot),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
    }
    if extras:
        manifest.update(extras)
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=1))


def require_manifest(directory):
    """An upstream stage's manifest; missing or unreadable is a DependencyError."""
    return read_json(Path(directory) / "manifest.json", dict, DependencyError)


def _filter_spec(value):
    """The complete filter spec of a config's `filter` object."""
    return dsp.FilterSpec.from_dict(value).to_dict()


# Each stage's settings, one row each: (name, flag, kind, default, floor).
# A flag of None: the setting comes from the config only; a floor of None:
# no lower bound. A stage named here takes `--config`.
SETTINGS = {
    "synth": (("classes", "--classes", int, 4, 1),
              ("patients", "--patients", int, 30, 1),
              ("records_per_patient", "--records", int, 2, 1),
              # at least one sample at synth's 100 Hz
              ("duration", "--duration", float, 10.0, 0.01),
              ("seed", "--seed", int, 0, 0)),
    "preprocess": (("verify_checksums", "--verify-checksums", bool, False, None),
                   ("filter", None, _filter_spec, {}, None)),
    "split": (("lo_pct", None, float, 0.1, 0),
              ("hi_pct", None, float, 99.9, None)),
    "pretrain": (("epochs", "--epochs", int, PretrainConfig.epochs, 0),
                 ("batch_size", "--batch-size", int, PretrainConfig.batch_size, 1),
                 ("lr", None, float, PretrainConfig.lr, 0),
                 ("weight_decay", None, float, PretrainConfig.weight_decay, 0),
                 ("seed", "--seed", int, PretrainConfig.seed, 0)),
    "train": (("epochs", "--epochs", int, TrainConfig.max_epochs, 1),
              ("patience", "--patience", int, TrainConfig.patience, 1),
              ("batch_size", "--batch-size", int, TrainConfig.batch_size, 1),
              ("lr", None, float, TrainConfig.lr, 0),
              ("weight_decay", None, float, TrainConfig.weight_decay, 0),
              ("seed", "--seed", int, TrainConfig.seed, 0)),
    "affinity": (("k", "--k", int, 10, 1),),
}


def _setting(key, value, kind, least):
    """`value` of setting `key` as `kind`. A bool must be a JSON boolean.
    An int or float must be a JSON number (not a string or a boolean),
    finite as a float, whole where `kind` is int, and at least `least`
    (None: no bound). Any other kind converts `value` itself. A value
    that fails is a ConfigError."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value
    if kind not in (int, float):
        return kind(value)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    number = kind(value)
    if kind is int and number != value:
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    if least is not None and number < least:
        raise ConfigError(f"{key} must be at least {least}, got {value!r}")
    return number


def stage_settings(args):
    """The value used for each setting in the stage's table: its flag where
    given, else its key in the stage's section of the JSON `--config`,
    else its default. A section that is not an object, or that holds a key
    no row names, is a ConfigError."""
    rows = SETTINGS.get(args.command, ())
    config = (read_json(args.config, dict, ConfigError)
              if getattr(args, "config", None) else {})
    section = config.get(args.command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {args.command!r} must be a JSON object")
    unknown = sorted(set(section) - {row[0] for row in rows})
    if unknown:
        raise ConfigError(f"unknown {args.command} settings {unknown}; known: "
                          + ", ".join(row[0] for row in rows))
    values = {}
    for key, flag, kind, default, least in rows:
        given = getattr(args, key) if flag else None
        values[key] = _setting(key, section.get(key, default) if given is None else given,
                               kind, least)
    return values


# upstream directories a stage can name, in the order its manifest lists them
UPSTREAM = ("data", "encoder", "embeddings", "decoders", "baseline_decoders")


def _check_out(target, command):
    """`--out` must be absent, an empty directory or an earlier output of
    `command`: anything else may be data that publishing would delete."""
    if not target.exists() or (target.is_dir() and not any(target.iterdir())):
        return
    try:
        earlier = read_json(target / "manifest.json", dict).get("command")
    except DataError:   # no readable manifest: no earlier output
        earlier = None
    if earlier != command:
        raise ConfigError(f"--out {target} is neither empty nor an earlier "
                          f"{command} output")


def run_stage(args):
    """Run the stage body `args.func(args, work, settings)` and publish.

    `settings` holds the values of the stage's settings (`stage_settings`)
    and becomes the manifest `config`; the body may add to it what it
    derives from them or from its inputs. The body writes into
    `work`, a fresh sibling of `--out`, and returns (manifest extras or
    None, summary line). The manifest goes into `work` last and lists all
    it holds as `outputs`; then the old `--out` is removed and `work`
    renamed into its place, so on any error `--out` keeps its contents."""
    started = _now()
    target = Path(args.out).resolve()
    _check_out(target, args.command)
    settings = stage_settings(args)
    inputs = [getattr(args, key) for key in UPSTREAM if getattr(args, key, None)]
    if args.command != "preprocess":    # its --data is a corpus, not a stage output
        for path in inputs:
            require_manifest(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    work = target.parent / f".{target.name}.{uuid.uuid4().hex}.tmp"
    work.mkdir()
    try:
        extras, summary = args.func(args, work, settings)
        write_manifest(work, args.command, settings, inputs,
                       sorted(p.name for p in work.iterdir()), started, extras)
        if target.exists():
            shutil.rmtree(target)
        work.rename(target)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(summary)


# -- stages ----------------------------------------------------------------

def _log(line):
    """Progress lines go to stderr; stdout holds only the stage summary."""
    print(line, file=sys.stderr)


def cmd_synth(args, out, settings):
    if args.class_specs:
        specs = load_class_specs(args.class_specs)
    else:
        specs = builtin_class_specs()[:settings["classes"]]
    if not specs:
        raise ConfigError("need at least one class spec")
    records = generate_corpus(specs, n_patients_per_class=settings["patients"],
                              records_per_patient=settings["records_per_patient"],
                              seed=settings["seed"], duration=settings["duration"])
    rec_dir = out / "records"
    rows = ["ecg_id,patient_id,scp_codes,strat_fold,filename_lr"]
    for rec in records:
        try:
            write_record(rec, rec_dir)
        except ValueError as exc:   # samples beyond the int16 writer's range
            (name,) = rec.labels.likelihoods
            raise ConfigError(f"class spec {name!r} is too tall to write: {exc}") from None
        codes = repr({c: float(v) for c, v in rec.labels.likelihoods.items()})
        rows.append(f'{rec.record_id},{rec.patient_id},"{codes}",'
                    f'{rec.fold},records/{rec.record_id}')
    (out / "database.csv").write_text("\n".join(rows) + "\n")
    classes = sorted({s.class_name for s in specs})
    scp = ["code,diagnostic_class"] + [f"{c},{c}" for c in classes]
    (out / "scp_statements.csv").write_text("\n".join(scp) + "\n")
    (out / "class_specs.json").write_text(
        json.dumps([s.to_dict() for s in specs], indent=1))
    return ({"n_records": len(records)},
            f"synth: wrote {len(records)} records to {Path(args.out)}")


def _find_database_csv(data_dir):
    for name in ("database.csv", "ptbxl_database.csv"):
        path = Path(data_dir) / name
        if path.exists():
            return path
    raise DependencyError(f"no database CSV found under {data_dir}")


def cmd_preprocess(args, out, settings):
    spec = dsp.FilterSpec(**settings["filter"])
    data_dir = Path(args.data)
    db_path = _find_database_csv(data_dir)
    scp_path = data_dir / "scp_statements.csv"
    if not scp_path.exists():
        raise DependencyError(f"missing {scp_path}")
    meta = parse_ptbxl_metadata(read_text(db_path), read_text(scp_path))
    if not meta.rows:
        raise DataError("metadata contains no parseable rows")
    rates = set()
    clean_dir = out / "cleaned"
    index = []
    for ecg_id, row in meta.rows.items():
        rec = load_record(data_dir / (row.filename_lr + ".hea"),
                          verify_checksum=settings["verify_checksums"])
        rates.add(rec.fs)
        out_rec = SignalRecord(samples=dsp.clean_signal(rec.samples, rec.fs, spec),
                               fs=100.0, lead_names=rec.lead_names,
                               record_id=rec.record_id, patient_id=row.patient_id,
                               labels=row.labels, fold=row.fold)
        write_record(out_rec, clean_dir)
        index.append({"record_id": rec.record_id, "patient_id": row.patient_id,
                      "fold": row.fold,
                      "likelihoods": row.labels.likelihoods,
                      "superclass": row.labels.superclass,
                      "path": f"cleaned/{rec.record_id}.hea"})
    (out / "records_index.json").write_text(json.dumps(index))
    if meta.errors:
        (out / "row_errors.json").write_text(json.dumps(meta.errors, indent=1))
    # the fall-back depends on fs and spec only: one design per sampling rate
    settings["bandpass_fallback_40hz"] = any(dsp.design_bandpass(fs, spec)[2]
                                            for fs in sorted(rates))
    return ({"n_records": len(index), "n_row_errors": len(meta.errors)},
            f"preprocess: cleaned {len(index)} records into {Path(args.out)}")


def _load_cleaned_records(preprocessed_dir, record_ids=None):
    """Cleaned records in index order; only those in `record_ids` if given.
    An index entry that is not an object, lacks a field, or holds one of
    the wrong type or a fold outside 1-10, is a DataError."""
    pre = Path(preprocessed_dir)
    require_manifest(pre)
    index_path = pre / "records_index.json"
    records = []
    for i, entry in enumerate(read_json(index_path, list)):
        where = f"{index_path} entry {i}"
        if (record_ids is not None
                and json_field(entry, "record_id", str, where) not in record_ids):
            continue
        fold = json_field(entry, "fold", int, where)
        if not 1 <= fold <= 10:
            raise DataError(f"{where}: fold must be in 1..10, got {fold}")
        try:
            labels = DiagnosticLabels(
                likelihoods=json_field(entry, "likelihoods", dict, where),
                superclass=json_field(entry, "superclass", dict, where))
        except (TypeError, ValueError) as exc:   # a likelihood that is no number in [0, 100]
            raise DataError(f"{where}: {exc}")
        rec = load_record(pre / json_field(entry, "path", str, where))
        rec.patient_id = json_field(entry, "patient_id", str, where)
        rec.fold = fold
        rec.labels = labels
        records.append(rec)
    return records


def cmd_split(args, out, settings):
    lo_pct, hi_pct = settings["lo_pct"], settings["hi_pct"]
    if not lo_pct < hi_pct <= 100:
        raise ConfigError(f"need 0 <= lo_pct < hi_pct <= 100, got lo_pct={lo_pct}, "
                          f"hi_pct={hi_pct}")
    records = _load_cleaned_records(args.data)
    splits = split_by_fold(records)
    windows = {"train": Segments.concat(segment_record(r) for r in splits["train"]),
               "val": Segments.concat(segment_record(r) for r in splits["val"]),
               "test": Segments.concat(segment_record_nonoverlap(r)
                                       for r in splits["test"])}
    if not len(windows["train"]):
        raise DataError("no training segments")
    stats = {name: segment_stats(segs) for name, segs in windows.items()}
    bounds = fit_qc_bounds(stats["train"], lo_pct=lo_pct, hi_pct=hi_pct)
    provenance = {"fit_on": "train", "bounds": bounds.to_dict()}
    kept = {}
    rejected_counts = {}
    for name, segs in windows.items():
        ok, bad = apply_qc(segs, stats[name], bounds)
        kept[name] = ok
        rejected_counts[name] = len(bad)
        save_segments(out / f"segments_{name}", ok, qc_provenance=provenance)
    (out / "splits.json").write_text(json.dumps({
        "preprocessed_dir": str(Path(args.data).resolve()),
        "records": {name: [r.record_id for r in recs]
                    for name, recs in splits.items()},
        "rejected": rejected_counts}))
    return ({"kept": {k: len(v) for k, v in kept.items()}, "rejected": rejected_counts},
            "split: kept " + ", ".join(f"{k}={len(v)}" for k, v in kept.items()))


def cmd_pretrain(args, out, settings):
    pc = PretrainConfig(**settings)
    segments, _ = load_segments(Path(args.data) / "segments_train")
    encoder, head, history = pretrain(segments, pc, log=_log)
    save_pretrained(out, encoder, head, history)
    (out / "training_log.json").write_text(json.dumps({"loss": history}))
    return ({"final_loss": history[-1] if history else None},
            f"pretrain: final loss {history[-1]:.6f}" if history else "pretrain: done")


def _load_encoder(encoder_dir):
    encoder, _ = load_checkpoint(Path(encoder_dir) / "encoder.ckpt")
    return encoder


def cmd_embed(args, out, settings):
    encoder = _load_encoder(args.encoder)
    splits = ("train", "val", "test")
    for name in splits:
        segments, _ = load_segments(Path(args.data) / f"segments_{name}")
        h = embed_all(segments, encoder)
        save_vectors(out / f"embeddings_{name}", h,
                     meta={"split": name, "dim": h.shape[1] if h.size else 128})
    return (None, f"embed: wrote embeddings to {Path(args.out)}")


def cmd_train(args, out, settings):
    tc = TrainConfig(lr=settings["lr"], weight_decay=settings["weight_decay"],
                     batch_size=settings["batch_size"], max_epochs=settings["epochs"],
                     patience=settings["patience"], seed=settings["seed"],
                     conditioned=not args.clean_only)
    train_segs, _ = load_segments(Path(args.data) / "segments_train")
    val_segs, _ = load_segments(Path(args.data) / "segments_val")
    h_train, _ = load_vectors(Path(args.embeddings) / "embeddings_train")
    h_val, _ = load_vectors(Path(args.embeddings) / "embeddings_val")
    stats = NormStats.fit(train_segs, h_train)
    results = train_decoders(train_segs, val_segs, h_train, h_val, stats, tc,
                             log=_log)
    save_decoders(out, results, stats)
    (out / "norm_stats.json").write_text(json.dumps(stats.to_dict()))
    settings["conditioned"] = tc.conditioned
    return ({"best_val_loss": {l: r.best_val_loss for l, r in results.items()}},
            "train: " + ", ".join(f"{l} val={r.best_val_loss:.5f}"
                                  for l, r in results.items()))


def _load_decoders(decoder_dir):
    """(decoders by lead, NormStats, conditioned flag) of a `train` output
    directory that holds every target lead."""
    path = Path(decoder_dir)
    manifest = require_manifest(path)
    decoders, stats = {}, None
    for lead in TARGET_LEADS:
        ckpt = path / f"decoder_{lead}.ckpt"
        if not (path / f"decoder_{lead}.ckpt.json").exists():
            continue
        model, extra = load_checkpoint(ckpt)
        decoders[lead] = model
        if extra is not None and not isinstance(extra, dict):
            raise DataError(f"{ckpt}: checkpoint 'extra' is not a JSON object")
        if extra and "norm_stats" in extra:
            stats = NormStats.from_dict(extra["norm_stats"], f"{ckpt} extra 'norm_stats'")
    missing = [l for l in TARGET_LEADS if l not in decoders]
    if missing:
        raise DependencyError(f"missing decoder checkpoints for {missing} "
                              f"under {decoder_dir}")
    if stats is None:
        stats_path = path / "norm_stats.json"
        if not stats_path.exists():
            raise DependencyError(f"missing norm_stats under {decoder_dir}")
        stats = NormStats.from_dict(read_json(stats_path, dict), stats_path)
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise DependencyError(f"{path / 'manifest.json'}: 'config' is not a JSON object")
    conditioned = config.get("conditioned", True)
    if not isinstance(conditioned, bool):
        raise DependencyError(f"{path / 'manifest.json'}: 'conditioned' is not a JSON boolean")
    return decoders, stats, conditioned


def _test_records(split_dir):
    where = Path(split_dir) / "splits.json"
    splits = read_json(where, dict)
    test = json_field(json_field(splits, "records", dict, where), "test", list,
                      f"{where} records")
    if not all(isinstance(rid, str) for rid in test):
        raise DataError(f"{where}: test record ids are not all strings")
    return _load_cleaned_records(json_field(splits, "preprocessed_dir", str, where),
                                 set(test))


def cmd_reconstruct(args, out, settings):
    encoder = _load_encoder(args.encoder)
    decoders, stats, conditioned = _load_decoders(args.decoders)
    records = _test_records(args.data)
    if not records:
        raise DataError("no test records to reconstruct")
    rec_dir = out / "records"
    sidecar = {}
    for rec in records:
        recon = reconstruct_record(rec, encoder, decoders, stats,
                                   conditioned=conditioned)
        out_rec = SignalRecord(samples=recon, fs=100.0,
                               lead_names=list(TARGET_LEADS),
                               record_id=f"{rec.record_id}-recon",
                               patient_id=rec.patient_id)
        write_record(out_rec, rec_dir)
        truth = np.stack([rec.lead(l) for l in TARGET_LEADS])
        sidecar[rec.record_id] = {
            lead: rmse(recon[i], truth[i]) for i, lead in enumerate(TARGET_LEADS)}
    (out / "reconstruction_metrics.json").write_text(json.dumps(sidecar, indent=1))
    return ({"n_records": len(records)}, f"reconstruct: wrote "
            f"{len(records)} records to {Path(args.out) / 'records'}")


def cmd_evaluate(args, out, settings):
    encoder = _load_encoder(args.encoder)
    decoders, stats, conditioned = _load_decoders(args.decoders)
    records = _test_records(args.data)
    if not records:
        raise DataError("no test records to evaluate")
    report = evaluate_model(records, encoder, decoders, stats, conditioned=conditioned)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=1))
    lines = ["lead,level,rmse,rmse_sem,r2,pearson,n"]
    for level, metrics in (("segment", report.segment_metrics),
                           ("record", report.record_metrics)):
        for lead, m in metrics.items():
            def f(v):
                return "" if v is None else f"{v:.4f}"
            lines.append(f"{lead},{level},{m.rmse:.4f},{f(m.rmse_sem)},"
                         f"{f(m.r2)},{f(m.pearson)},{m.n}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    per_class = ["class," + ",".join(TARGET_LEADS)]
    for cls, leads in report.per_class_rmse.items():
        per_class.append(cls + "," + ",".join(
            f"{leads.get(l, float('nan')):.4f}" for l in TARGET_LEADS))
    (out / "per_class_rmse.csv").write_text("\n".join(per_class) + "\n")
    if args.baseline_decoders:
        base_decoders, base_stats, base_conditioned = _load_decoders(args.baseline_decoders)
        base_report = evaluate_model(records, encoder, base_decoders, base_stats,
                                     conditioned=base_conditioned)
        rows = comparison_table(base_report, report)
        (out / "comparison.csv").write_text(comparison_csv(rows))
        (out / "baseline_report.json").write_text(
            json.dumps(base_report.to_dict(), indent=1))
    return (None, f"evaluate: mean segment RMSE {report.mean_segment_rmse:.4f} mV")


def cmd_affinity(args, out, settings):
    k = settings["k"]
    split = args.split
    segments, _ = load_segments(Path(args.data) / f"segments_{split}")
    h, _ = load_vectors(Path(args.embeddings) / f"embeddings_{split}")
    # single-label samples only; class = the single high-confidence code
    single = np.array([len(l) == 1 for l in segments.labels], dtype=bool)
    if not single.any():
        raise DataError("no single-label segments for affinity analysis")
    segments = segments[single]
    labels = [next(iter(l)) for l in segments.labels]
    h_aff = knn_affinity(h[single], labels, k=k)
    x_flat = np.concatenate([normalize_x(x)[0] for x in chunked(segments.x)])
    x_aff = knn_affinity(x_flat.reshape(len(segments), -1), labels, k=k)
    (out / "affinity_h.csv").write_text(h_aff.to_csv())
    (out / "affinity_x.csv").write_text(x_aff.to_csv())
    summary = {"k": k, "n_samples": len(segments),
               "diagonal_consistency_h": diagonal_consistency(h_aff),
               "diagonal_consistency_x": diagonal_consistency(x_aff)}
    (out / "affinity_summary.json").write_text(json.dumps(summary, indent=1))
    return (summary,
            f"affinity: diag(h)={summary['diagonal_consistency_h']:.3f} "
            f"diag(x)={summary['diagonal_consistency_x']:.3f}")


def build_parser():
    parser = argparse.ArgumentParser(prog="ecgrecon",
                                     description="Reduced-lead ECG reconstruction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, func, about, data):
        """The subparser of stage `name`: --out, --data (`data` is its help;
        None: no --data), and, if the stage has a settings table, --config
        and the flag of each row that has one."""
        sp = sub.add_parser(name, help=about)
        sp.add_argument("--out", required=True, help="output directory")
        if data:
            sp.add_argument("--data", required=True, help=data)
        if name in SETTINGS:
            sp.add_argument("--config", default=None, help="JSON config file")
        for key, flag, kind, _, _ in SETTINGS.get(name, ()):
            if flag and kind is bool:
                sp.add_argument(flag, dest=key, action="store_true", default=None)
            elif flag:
                sp.add_argument(flag, dest=key, type=kind, default=None,
                                metavar=flag[2:].upper().replace("-", "_"))
        sp.set_defaults(func=func)
        return sp

    sp = stage("synth", cmd_synth, "generate a synthetic WFDB corpus", None)
    sp.add_argument("--class-specs", default=None, help="JSON class spec file")
    stage("preprocess", cmd_preprocess, "clean and resample a corpus", "corpus directory")
    stage("split", cmd_split, "patient-wise split, QC, segment stores",
          "preprocessed directory")
    stage("pretrain", cmd_pretrain, "contrastive pretraining", "split directory")
    sp = stage("embed", cmd_embed, "export embeddings for all splits", "split directory")
    sp.add_argument("--encoder", required=True, help="pretrain directory")
    sp = stage("train", cmd_train, "train per-lead decoders", "split directory")
    sp.add_argument("--embeddings", required=True, help="embed directory")
    sp.add_argument("--clean-only", action="store_true",
                    help="train the unconditioned (C) ablation")
    sp = stage("reconstruct", cmd_reconstruct, "reconstruct full test records",
               "split directory")
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--decoders", required=True)
    sp = stage("evaluate", cmd_evaluate, "metrics report on the test split",
               "split directory")
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--decoders", required=True)
    sp.add_argument("--baseline-decoders", default=None,
                    help="second decoder set for a comparison table")
    sp = stage("affinity", cmd_affinity, "k-NN class-affinity matrices", "split directory")
    sp.add_argument("--embeddings", required=True, help="embed directory")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run_stage(args)
    except PipelineError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - map anything else to internal
        print(f"error:internal: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
