import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecgrecon import dsp, nn
from ecgrecon.cli import main
from ecgrecon.dataset import load_vectors, save_vectors
from ecgrecon.wfdb_io import load_record, parse_header, read_record, write_record

from _utils import mixed_rate_corpus


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _output_digest():
    """`tools/output_digest.py`, imported as a module."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).resolve().parent.parent / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the first seven stages of the digest tool's recipe (synth
    through both trains) once and share every stage's directory."""
    stages = _output_digest().recipe(tmp_path_factory.mktemp("pipe"))
    for argv in stages[:7]:
        assert main(argv) == 0, argv
    outs = (Path(argv[argv.index("--out") + 1]) for argv in stages)
    return {out.name: out for out in outs}


def test_pipeline_artifacts_exist(pipeline):
    d = pipeline
    assert (d["raw"] / "database.csv").exists()
    assert (d["pre"] / "records_index.json").exists()
    assert (d["split"] / "segments_train.manifest.json").exists()
    assert (d["split"] / "segments_train.f32").exists()
    assert (d["pretrain"] / "encoder.ckpt.json").exists()
    assert (d["embed"] / "manifest.json").exists()
    assert (d["dec"] / "decoder_V1.ckpt.json").exists()
    assert (d["dec"] / "norm_stats.json").exists()


def test_manifests_record_conditioning(pipeline):
    d = pipeline
    ch = json.loads((d["dec"] / "manifest.json").read_text())
    c = json.loads((d["dec_c"] / "manifest.json").read_text())
    assert ch["config"]["conditioned"] is True
    assert c["config"]["conditioned"] is False
    assert ch["config_hash"] != c["config_hash"]


def test_evaluate_with_baseline_comparison(pipeline):
    d = pipeline
    assert main(["evaluate", "--out", str(d["eval"]), "--data", str(d["split"]),
                 "--encoder", str(d["pretrain"]), "--decoders", str(d["dec"]),
                 "--baseline-decoders", str(d["dec_c"])]) == 0
    report = json.loads((d["eval"] / "report.json").read_text())
    assert set(report["segment_metrics"]) == {"V1", "V3", "V4", "V5", "V6"}
    assert (d["eval"] / "comparison.csv").read_text().startswith("lead,")
    assert (d["eval"] / "per_class_rmse.csv").exists()
    manifest = json.loads((d["eval"] / "manifest.json").read_text())
    assert manifest["inputs"] == [str(d[k]) for k in ("split", "pretrain", "dec", "dec_c")]


def test_affinity_outputs(pipeline):
    d = pipeline
    assert main(["affinity", "--out", str(d["aff"]), "--data", str(d["split"]),
                 "--embeddings", str(d["embed"]), "--split", "train",
                 "--k", "5"]) == 0
    summary = json.loads((d["aff"] / "affinity_summary.json").read_text())
    assert 0.0 <= summary["diagonal_consistency_h"] <= 1.0
    assert (d["aff"] / "affinity_h.csv").read_text().startswith("class,")


def test_reconstruct_outputs(pipeline):
    d = pipeline
    assert main(["reconstruct", "--out", str(d["recon"]),
                 "--data", str(d["split"]), "--encoder", str(d["pretrain"]),
                 "--decoders", str(d["dec"])]) == 0
    metrics = json.loads((d["recon"] / "reconstruction_metrics.json").read_text())
    assert metrics
    headers = list((d["recon"] / "records").glob("*-recon.hea"))
    assert headers
    manifest = json.loads((d["recon"] / "manifest.json").read_text())
    assert manifest["inputs"] == [str(d[k]) for k in ("split", "pretrain", "dec")]


def test_evaluate_scores_both_sets_in_one_pass(pipeline, tmp_path, monkeypatch):
    """`--baseline-decoders` naming the conditioned set itself: the two
    reports are byte-equal, and the encoder runs once per test record
    (each fits one chunk of windows), not once per set."""
    d = pipeline
    forward, calls = nn.Encoder.forward, []

    def counted(self, x):
        calls.append(x.shape[0])
        return forward(self, x)

    monkeypatch.setattr(nn.Encoder, "forward", counted)
    out = tmp_path / "eval"
    assert main(["evaluate", "--out", str(out), "--data", str(d["split"]),
                 "--encoder", str(d["pretrain"]), "--decoders", str(d["dec"]),
                 "--baseline-decoders", str(d["dec"])]) == 0
    test = json.loads((d["split"] / "splits.json").read_text())["records"]["test"]
    assert len(calls) == len(test)
    assert (out / "baseline_report.json").read_bytes() == (out / "report.json").read_bytes()


def test_split_rerun_byte_identical(pipeline, tmp_path):
    d = pipeline
    again = tmp_path / "split2"
    assert main(["split", "--out", str(again), "--data", str(d["pre"])]) == 0
    for name in ("train", "val", "test"):
        a = d["split"] / f"segments_{name}.f32"
        b = again / f"segments_{name}.f32"
        assert _sha(a) == _sha(b)


def test_missing_upstream_manifest_exit_3(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["pretrain", "--out", str(tmp_path / "o"),
                 "--data", str(empty), "--epochs", "1"])
    assert code == 3


def test_bad_config_exit_2(pipeline, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["synth", "--out", str(tmp_path / "o"),
                 "--config", str(bad)])
    assert code == 2


def test_missing_data_exit_4(pipeline, tmp_path):
    d = pipeline
    # a split dir whose manifest exists but segment stores were removed
    # would be a data error; simpler: preprocess over a dir with a manifest
    # but no database csv is a dependency error (3)
    code = main(["preprocess", "--out", str(tmp_path / "o"),
                 "--data", str(tmp_path)])
    assert code == 3


def test_manifest_config_hash_tracks_changes(pipeline, tmp_path):
    d = pipeline
    base = json.loads((d["raw"] / "manifest.json").read_text())
    other_out = tmp_path / "raw2"
    assert main(["synth", "--out", str(other_out), "--classes", "3",
                 "--patients", "4", "--records", "1", "--duration", "6",
                 "--seed", "1"]) == 0
    other = json.loads((other_out / "manifest.json").read_text())
    assert base["config_hash"] != other["config_hash"]
    assert base["tool_version"] == other["tool_version"]


def test_truncated_segment_store_exit_4(pipeline, tmp_path):
    d = pipeline
    split = tmp_path / "split"
    shutil.copytree(d["split"], split)
    blob = split / "segments_train.f32"
    blob.write_bytes(blob.read_bytes()[:-100])
    code = main(["embed", "--out", str(tmp_path / "o"), "--data", str(split),
                 "--encoder", str(d["pretrain"])])
    assert code == 4


@pytest.mark.parametrize("stage, options", [("train", ["--epochs", "1"]),
                                            ("affinity", ["--split", "train"])])
def test_embeddings_of_another_split_exit_4(pipeline, tmp_path, capsys, stage, options):
    """`split` re-run with narrower QC bounds keeps fewer windows; the
    embeddings of the earlier split no longer pair up with its stores."""
    d = pipeline
    split = tmp_path / "split"
    assert main(["split", "--out", str(split), "--data", str(d["pre"]), "--config",
                 _write(tmp_path / "c.json", {"split": {"lo_pct": 5, "hi_pct": 95}})]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(split),
                 "--embeddings", str(d["embed"]), *options]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data: ") and "embeddings_train holds" in err
    assert not out.exists()


@pytest.mark.parametrize("stage, options", [
    ("train", ["--epochs", "1"]), ("train", ["--epochs", "1", "--clean-only"]),
    ("affinity", ["--split", "train"])])
def test_embeddings_of_another_width_exit_4(pipeline, tmp_path, capsys, stage, options):
    """Every embedding store rewritten as [N, 64], the rows of another
    encoder's width."""
    d = pipeline
    embed = tmp_path / "embed"
    shutil.copytree(d["embed"], embed)
    for split in ("train", "val", "test"):
        h, manifest = load_vectors(embed / f"embeddings_{split}")
        save_vectors(embed / f"embeddings_{split}", h[:, :64], meta=manifest["meta"])
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]),
                 "--embeddings", str(embed), *options]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data: ") and "not [N, 128]" in err
    assert not out.exists()


def _copy_checkpoint(src, dst):
    for suffix in (".json", ".f32"):
        shutil.copyfile(f"{src}{suffix}", f"{dst}{suffix}")


@pytest.mark.parametrize("stage, damage, says", [
    pytest.param("evaluate", lambda dec, pt: _copy_checkpoint(
        pt / "encoder.ckpt", dec / "decoder_V1.ckpt"), "not a LeadDecoder",
        id="encoder-as-decoder"),
    pytest.param("embed", lambda dec, pt: _copy_checkpoint(
        dec / "decoder_V4.ckpt", pt / "encoder.ckpt"), "not an Encoder",
        id="decoder-as-encoder"),
    pytest.param("evaluate", lambda dec, pt: _edit_json(
        dec / "decoder_V3.ckpt.json", lambda desc: desc["architecture"].update(lead="V5")),
        "lead 'V5', not V3", id="decoder-of-another-lead"),
    pytest.param("evaluate", lambda dec, pt: _edit_json(
        dec / "decoder_V1.ckpt.json", lambda desc: desc["architecture"].pop("lead")),
        "decoder_V1.ckpt.json architecture: 'lead' is missing", id="decoder-V1-without-lead"),
    pytest.param("evaluate", lambda dec, pt: _edit_json(
        dec / "decoder_V3.ckpt.json", lambda desc: desc["architecture"].pop("lead")),
        "decoder_V3.ckpt.json architecture: 'lead' is missing", id="decoder-V3-without-lead"),
])
def test_checkpoint_of_the_wrong_model_exit_4(pipeline, tmp_path, capsys, stage, damage, says):
    d = pipeline
    dec, pt = tmp_path / "dec", tmp_path / "pretrain"
    shutil.copytree(d["dec"], dec)
    shutil.copytree(d["pretrain"], pt)
    damage(dec, pt)
    inputs = {"embed": ["--encoder", str(pt)],
              "evaluate": ["--encoder", str(pt), "--decoders", str(dec)]}[stage]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]), *inputs]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data: ") and says in err
    assert not out.exists()


def test_evaluate_missing_decoder_exit_3(pipeline, tmp_path):
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    for path in dec.glob("decoder_V3.*"):
        path.unlink()
    common = ["--data", str(d["split"]), "--encoder", str(d["pretrain"])]
    assert main(["evaluate", "--out", str(tmp_path / "e1"), *common,
                 "--decoders", str(dec)]) == 3
    assert main(["evaluate", "--out", str(tmp_path / "e2"), *common,
                 "--decoders", str(d["dec"]), "--baseline-decoders", str(dec)]) == 3


def test_evaluate_rejects_seed(pipeline, tmp_path):
    d = pipeline
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--out", str(tmp_path / "o"), "--data", str(d["split"]),
              "--encoder", str(d["pretrain"]), "--decoders", str(d["dec"]),
              "--seed", "0"])
    assert exc.value.code == 2


def test_reconstruct_reads_only_test_records(pipeline, tmp_path):
    d = pipeline
    pre, split = tmp_path / "pre", tmp_path / "split"
    shutil.copytree(d["pre"], pre)
    shutil.copytree(d["split"], split)
    splits = json.loads((split / "splits.json").read_text())
    splits["preprocessed_dir"] = str(pre)
    (split / "splits.json").write_text(json.dumps(splits))
    (pre / "cleaned" / f"{splits['records']['train'][0]}.dat").unlink()
    assert main(["reconstruct", "--out", str(tmp_path / "o"), "--data", str(split),
                 "--encoder", str(d["pretrain"]), "--decoders", str(d["dec"])]) == 0


def test_missing_signal_file_exit_4(pipeline, tmp_path, capsys):
    d = pipeline
    raw = tmp_path / "raw"
    shutil.copytree(d["raw"], raw)
    dat = sorted((raw / "records").glob("*.dat"))[0]
    dat.unlink()
    assert main(["preprocess", "--out", str(tmp_path / "o"), "--data", str(raw)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and dat.name in err


def _corpus_rows(d, tmp_path, edit):
    """A copy of the corpus whose database.csv lines (header first) are
    edited in place by `edit`; returns (corpus, the lines as they were)."""
    raw = tmp_path / "raw"
    shutil.copytree(d["raw"], raw)
    lines = (raw / "database.csv").read_text().splitlines()
    edited = list(lines)
    edit(edited)
    (raw / "database.csv").write_text("\n".join(edited) + "\n")
    return raw, lines


def _preprocess_refuses(raw, tmp_path, capsys, *fragments):
    out = tmp_path / "o"
    assert main(["preprocess", "--out", str(out), "--data", str(raw)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and all(f in err for f in fragments), err
    assert not out.exists()
    return err


def test_preprocess_repeated_ecg_id_exit_4(pipeline, tmp_path, capsys):
    # the last row takes the first row's ecg_id, under its own record
    raw, lines = _corpus_rows(pipeline, tmp_path, lambda rows: rows.__setitem__(
        -1, rows[1].split(",")[0] + "," + rows[-1].split(",", 1)[1]))
    first_id = lines[1].split(",")[0]
    _preprocess_refuses(raw, tmp_path, capsys, f"ecg_id {first_id} is on rows 2 and "
                                               f"{len(lines)}")


def test_preprocess_two_rows_of_one_record_exit_4(pipeline, tmp_path, capsys):
    # the third row's filename_lr names the second row's record
    raw, lines = _corpus_rows(pipeline, tmp_path, lambda rows: rows.__setitem__(
        3, rows[3].rsplit(",", 1)[0] + "," + rows[2].rsplit(",", 1)[1]))
    second, third = (lines[i].split(",")[0] for i in (2, 3))
    _preprocess_refuses(raw, tmp_path, capsys,
                        f"record {second} is named by the rows of ecg_id {second} and {third}")


def test_preprocess_record_beyond_the_int16_writer_exit_4_naming_the_first(
        pipeline, tmp_path, capsys):
    """At a gain of 10 adc units per mV the cleaned samples pass +-32.767
    mV, which the cleaned record's int16 samples cannot hold."""
    raw = tmp_path / "raw"
    shutil.copytree(pipeline["raw"], raw)
    lines = (raw / "database.csv").read_text().splitlines()
    first, second = (lines[i].split(",")[0] for i in (3, 5))
    for record_id in (first, second):
        hea = raw / "records" / f"{record_id}.hea"
        hea.write_text(hea.read_text().replace(" 1000(0)/mV ", " 10(0)/mV "))
    err = _preprocess_refuses(raw, tmp_path, capsys, first, "int16")
    assert second not in err


def test_preprocess_units_other_than_mv_exit_4(pipeline, tmp_path, capsys):
    """A signal in microvolts would be read as millivolts, 1000 times too
    large: a data error naming the record, the line and the units."""
    raw = tmp_path / "raw"
    shutil.copytree(pipeline["raw"], raw)
    record_id = (raw / "database.csv").read_text().splitlines()[2].split(",")[0]
    hea = raw / "records" / f"{record_id}.hea"
    hea.write_text(hea.read_text().replace(" 1000(0)/mV ", " 1000(0)/uV ", 1))
    _preprocess_refuses(raw, tmp_path, capsys, f"line 2: record {record_id}", "'uV'")


@pytest.mark.parametrize("stage, options, config", [
    pytest.param("pretrain", ["--batch-size", "0"], None, id="pretrain-batch-size-0"),
    pytest.param("pretrain", ["--batch-size", "1"], None, id="pretrain-batch-size-1"),
    pytest.param("pretrain", [], {"pretrain": {"lr": "fast"}}, id="pretrain-lr-text"),
    pytest.param("train", ["--batch-size", "0"], None, id="train-batch-size-0"),
    pytest.param("train", ["--epochs", "0"], None, id="train-epochs-0"),
    pytest.param("train", [], {"train": {"patience": [3]}}, id="train-patience-list"),
    pytest.param("affinity", ["--k", "0"], None, id="affinity-k-0"),
    pytest.param("train", [], {"train": 5}, id="train-section-int"),
    pytest.param("pretrain", [], {"pretrain": {"epochs": True}}, id="pretrain-epochs-true"),
    pytest.param("train", [], {"train": {"epochs": 1.5}}, id="train-epochs-fraction"),
    pytest.param("affinity", [], {"affinity": {"k": "3"}}, id="affinity-k-text"),
    pytest.param("train", ["--patience", "-3"], None, id="train-patience-negative"),
    pytest.param("train", [], {"train": {"patience": 0}}, id="train-patience-0"),
    pytest.param("train", [], {"train": {"conditioned": False}}, id="train-conditioned-key"),
    # four built-in class specs
    pytest.param("synth", ["--classes", "5", "--patients", "1", "--records", "1",
                           "--duration", "1"], None, id="synth-classes-above-builtin"),
])
def test_bad_stage_setting_exit_2(pipeline, tmp_path, capsys, stage, options, config):
    d = pipeline
    split = ["--data", str(d["split"])]
    inputs = {"synth": [], "pretrain": split,
              "train": [*split, "--embeddings", str(d["embed"])],
              "affinity": [*split, "--embeddings", str(d["embed"])]}[stage]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        options = options + ["--config", str(path)]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *inputs, *options]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert not (out / "manifest.json").exists()


def test_pretrain_zero_epochs_is_legal(pipeline, tmp_path):
    d = pipeline
    assert main(["pretrain", "--out", str(tmp_path / "o"), "--data", str(d["split"]),
                 "--epochs", "0"]) == 0


def test_split_computes_segment_stats_once_per_split(pipeline, tmp_path, monkeypatch):
    import ecgrecon.cli as cli
    import ecgrecon.dataset as dataset
    original, calls = dataset.segment_stats, []

    def counted(segments):
        calls.append(len(segments))
        return original(segments)

    monkeypatch.setattr(dataset, "segment_stats", counted)
    monkeypatch.setattr(cli, "segment_stats", counted)
    assert main(["split", "--out", str(tmp_path / "s"), "--data", str(pipeline["pre"])]) == 0
    assert len(calls) == 3


def test_split_holds_each_store_once(tmp_path):
    """On an ingest-shaped corpus (4 classes x 10 patients x 2 records of
    10 s) split's traced peak stays below 3x the bytes of the training
    store it writes: about 2.5x when it builds, checks and writes one
    store at a time, about 3.5x when every split's windows, pre- and
    post-QC, are held until the end."""
    peak, store = _split_peak_and_store(tmp_path)
    assert peak < 3.0 * store


def test_split_peak_is_about_one_store(tmp_path):
    """On the same corpus, split's traced peak stays below 1.6x the bytes
    of the training store: it fills one preallocated window array per
    split and applies QC in place (about 1.2x), where joining per-record
    parts and copying the kept windows took about 2.5x."""
    peak, store = _split_peak_and_store(tmp_path)
    assert peak < 1.6 * store


def _split_peak_and_store(tmp_path):
    """(split's traced peak, bytes of segments_train.f32) on an
    ingest-shaped corpus: 4 classes x 10 patients x 2 records of 10 s."""
    raw, pre, split = tmp_path / "raw", tmp_path / "pre", tmp_path / "split"
    assert main(["synth", "--out", str(raw), "--classes", "4", "--patients", "10",
                 "--records", "2", "--duration", "10", "--seed", "0"]) == 0
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["split", "--out", str(split), "--data", str(pre)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, (split / "segments_train.f32").stat().st_size


def test_preprocess_memory_bounded_by_the_chunk(tmp_path):
    """`preprocess` cleans CLEAN_CHUNK_SAMPLES raw samples (768 KiB of
    float64) at a time: its traced peak, about 6x those bytes, is the same
    for 24 and 72 records of 10 s (2 and 6 chunks), give or take a quarter
    MiB for the longer index. Cleaning the whole corpus as one stack would
    add about 18 MiB for the 48 more records."""
    import ecgrecon.cli as cli
    budget = cli.CLEAN_CHUNK_SAMPLES * 8
    peaks = []
    for patients in (6, 18):
        raw, pre = tmp_path / f"raw{patients}", tmp_path / f"pre{patients}"
        assert main(["synth", "--out", str(raw), "--classes", "4", "--patients",
                     str(patients), "--records", "1", "--duration", "10",
                     "--seed", "0"]) == 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 18
    assert peaks[1] < 8 * budget


def _stage_peak(argv):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_evaluate_and_reconstruct_memory_flat_in_test_records(pipeline, tmp_path):
    """`evaluate`, alone and with `--baseline-decoders`, and `reconstruct`
    load, score and drop one test record at a time: from 24 to 72 test
    records of 10 s each one's traced peak grows by under 4 KiB a record,
    for the longer index and each record's float64 score arrays. Holding
    every record (8 leads x 1000 float64 samples) added about 3.3 MB for
    the 48 more; holding R^2 and Pearson as object arrays of Python floats
    added about 6 KiB a record with both decoder sets."""
    d = pipeline
    models = ["--encoder", str(d["pretrain"]), "--decoders", str(d["dec"])]
    runs = {"evaluate": ["evaluate", *models], "reconstruct": ["reconstruct", *models],
            "evaluate-baseline": ["evaluate", *models, "--baseline-decoders", str(d["dec_c"])]}
    peaks = {name: [] for name in runs}
    for patients in (6, 18):
        raw, pre, split = (tmp_path / f"{name}{patients}" for name in ("raw", "pre", "split"))
        assert main(["synth", "--out", str(raw), "--classes", "4", "--patients",
                     str(patients), "--records", "1", "--duration", "10",
                     "--seed", "0"]) == 0
        assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
        assert main(["split", "--out", str(split), "--data", str(pre)]) == 0
        # every record in the test fold
        ids = [e["record_id"] for e in json.loads((pre / "records_index.json").read_text())]
        _edit_json(split / "splits.json", lambda s: s["records"].update(test=ids))
        for name, (stage, *options) in runs.items():
            peaks[name].append(_stage_peak([
                stage, "--out", str(tmp_path / f"{name}{patients}"), "--data", str(split),
                *options]))
    for name, (few, many) in peaks.items():
        assert many - few < 48 * 4096, (name, few, many)


@pytest.mark.parametrize("fs", [500.0, 1000.0])
def test_corpus_above_100_hz_end_to_end(pipeline, tmp_path, monkeypatch, fs):
    """Ten 10-s records at `fs` go through preprocess, split, evaluate and
    reconstruct with the 100 Hz encoder and decoders: the notch and the
    order-8 anti-alias low-pass are designed, the cleaned records are at
    100 Hz, and the report is finite."""
    d = pipeline
    raw, pre, split = tmp_path / "raw", tmp_path / "pre", tmp_path / "split"
    mixed_rate_corpus(raw, [(fs, 10.0)] * 10)
    butter, iirnotch, designs = dsp.signal.butter, dsp.signal.iirnotch, []

    def counting_butter(order, *args, **kwargs):
        designs.append((kwargs.get("btype"), order))
        return butter(order, *args, **kwargs)

    def counting_iirnotch(*args, **kwargs):
        designs.append(("notch", None))
        return iirnotch(*args, **kwargs)

    monkeypatch.setattr(dsp.signal, "butter", counting_butter)
    monkeypatch.setattr(dsp.signal, "iirnotch", counting_iirnotch)
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 0
    monkeypatch.undo()
    assert ("notch", None) in designs and ("low", 8) in designs
    for hea in (pre / "cleaned").glob("*.hea"):
        header = parse_header(hea.read_text())
        assert (header.fs, header.n_samples) == (100.0, 1000)
    assert main(["split", "--out", str(split), "--data", str(pre)]) == 0
    models = ["--encoder", str(d["pretrain"]), "--decoders", str(d["dec"])]
    assert main(["evaluate", "--out", str(tmp_path / "eval"), "--data", str(split),
                 *models]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    rmses = [m["rmse"] for level in ("segment_metrics", "record_metrics")
             for m in report[level].values()]
    assert len(rmses) == 10 and np.isfinite(rmses).all()
    assert np.isfinite(report["mean_segment_rmse"])
    assert main(["reconstruct", "--out", str(tmp_path / "rec"), "--data", str(split),
                 *models]) == 0
    metrics = json.loads((tmp_path / "rec" / "reconstruction_metrics.json").read_text())
    assert metrics and all(np.isfinite(list(m.values())).all() for m in metrics.values())


def _count_loads(monkeypatch):
    """The .hea path of every record `split` loads, appended as it loads."""
    import ecgrecon.cli as cli
    loaded = []

    def counted(path, header, verify_checksum):
        loaded.append(Path(path).name)
        return read_record(path, header, verify_checksum)

    monkeypatch.setattr(cli, "read_record", counted)
    return loaded


def test_split_without_training_windows_exit_4_before_val_or_test(
        pipeline, tmp_path, capsys, monkeypatch):
    loaded = _count_loads(monkeypatch)
    pre = tmp_path / "pre"
    shutil.copytree(pipeline["pre"], pre)
    _edit_json(pre / "records_index.json",
               lambda index: index.__setitem__(slice(None), [e for e in index
                                                             if e["fold"] > 8]))
    assert json.loads((pre / "records_index.json").read_text())   # val and test remain
    out = tmp_path / "o"
    assert main(["split", "--out", str(out), "--data", str(pre)]) == 4
    assert capsys.readouterr().err == "error:data: no training segments\n"
    assert loaded == [] and not out.exists()


def test_split_loads_each_record_once(pipeline, tmp_path, monkeypatch):
    """Each store is counted from the headers, then filled: every cleaned
    record is read once, in index order within its split."""
    loaded = _count_loads(monkeypatch)
    assert main(["split", "--out", str(tmp_path / "s"), "--data", str(pipeline["pre"])]) == 0
    index = json.loads((pipeline["pre"] / "records_index.json").read_text())
    assert sorted(loaded) == sorted(Path(e["path"]).name for e in index)
    records = json.loads((tmp_path / "s" / "splits.json").read_text())["records"]
    assert loaded == [f"{rid}.hea" for name in ("train", "val", "test")
                      for rid in records[name]]


def test_split_parses_each_header_once(pipeline, tmp_path, monkeypatch):
    """The header that counts a record's windows also reads its samples."""
    import ecgrecon.cli as cli
    import ecgrecon.wfdb_io as wfdb_io
    parsed = []

    def counted(text):
        header = parse_header(text)
        parsed.append(header.record_name)
        return header

    for module in (cli, wfdb_io):
        monkeypatch.setattr(module, "parse_header", counted)
    assert main(["split", "--out", str(tmp_path / "s"), "--data", str(pipeline["pre"])]) == 0
    index = json.loads((pipeline["pre"] / "records_index.json").read_text())
    assert sorted(parsed) == sorted(e["record_id"] for e in index)


def _test_split_record(pre):
    """The id of the first test-split record in a preprocessed directory."""
    index = json.loads((pre / "records_index.json").read_text())
    return next(e["record_id"] for e in index if e["fold"] == 10)


def _truncate_dat(pre, record_id):
    dat = pre / "cleaned" / f"{record_id}.dat"
    dat.write_bytes(dat.read_bytes()[:-2])


def _shorten_header(pre, record_id):
    """Declare one sample fewer in the record's .hea than its .dat holds."""
    hea = pre / "cleaned" / f"{record_id}.hea"
    lines = hea.read_text().split("\n")
    name, n_signals, fs, n_samples = lines[0].split()
    lines[0] = f"{name} {n_signals} {fs} {int(n_samples) - 1}"
    hea.write_text("\n".join(lines))


@pytest.mark.parametrize("damage", [
    pytest.param(_truncate_dat, id="truncated-dat"),
    pytest.param(_shorten_header, id="header-length-disagrees"),
])
def test_split_error_in_a_test_record_publishes_nothing(pipeline, tmp_path, capsys,
                                                        damage):
    """A test-split record is read after the train store is written into
    the stage's work directory: its error still leaves no --out and no
    work directory behind."""
    pre = tmp_path / "pre"
    shutil.copytree(pipeline["pre"], pre)
    damage(pre, _test_split_record(pre))
    out = tmp_path / "o"
    assert main(["split", "--out", str(out), "--data", str(pre)]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["pre"]


@pytest.mark.parametrize("stage", ["evaluate", "reconstruct"])
def test_test_record_shorter_than_one_window_exit_4(pipeline, tmp_path, capsys, stage):
    d = pipeline
    pre, split = tmp_path / "pre", tmp_path / "split"
    shutil.copytree(d["pre"], pre)
    shutil.copytree(d["split"], split)
    _edit_json(split / "splits.json", lambda s: s.update(preprocessed_dir=str(pre)))
    test_id = json.loads((split / "splits.json").read_text())["records"]["test"][0]
    rec = load_record(pre / "cleaned" / f"{test_id}.hea")
    rec.samples = rec.samples[:, :200]      # 2 s at 100 Hz, under one 256-sample window
    write_record(rec, pre / "cleaned")
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(split), "--encoder",
                 str(d["pretrain"]), "--decoders", str(d["dec"])]) == 4
    assert capsys.readouterr().err == (f"error:data: record {test_id} shorter than "
                                       "one window\n")
    assert not out.exists()


SYNTH_1X1 = ["--classes", "1", "--patients", "1", "--records", "1", "--duration", "1"]


@pytest.mark.parametrize("option, value", [
    ("--classes", "-1"), ("--patients", "0"), ("--records", "0"),
    ("--duration", "0"), ("--duration", "-1"), ("--duration", "0.005"),
])
def test_synth_setting_below_floor_exit_2(tmp_path, capsys, option, value):
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), *SYNTH_1X1, option, value]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert not out.exists()


def test_synth_at_floors_publishes_like_mkdir(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), *SYNTH_1X1, "--duration", "0.01"]) == 0
    probe = tmp_path / "probe"
    probe.mkdir()
    assert out.stat().st_mode == probe.stat().st_mode
    assert ".tmp" not in capsys.readouterr().out
    assert ".tmp" not in (out / "manifest.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "probe"]


@pytest.mark.parametrize("stage, options, config", [
    pytest.param("pretrain", ["--epochs", "1"], {"pretrain": {"lr": float("nan")}},
                 id="pretrain-lr-nan"),
    pytest.param("pretrain", ["--epochs", "1"], {"pretrain": {"weight_decay": -1}},
                 id="pretrain-weight-decay-negative"),
    pytest.param("train", ["--epochs", "1"], {"train": {"lr": float("inf")}},
                 id="train-lr-inf"),
    pytest.param("synth", ["--duration", "nan"], None, id="synth-duration-nan"),
    pytest.param("synth", ["--duration", "inf"], None, id="synth-duration-inf"),
    pytest.param("synth", [], {"synth": {"seed": 10 ** 400}}, id="synth-seed-beyond-float"),
])
def test_non_finite_or_negative_setting_exit_2(pipeline, tmp_path, capsys, stage,
                                               options, config):
    d = pipeline
    inputs = {"synth": SYNTH_1X1, "pretrain": ["--data", str(d["split"])],
              "train": ["--data", str(d["split"]), "--embeddings", str(d["embed"])]}[stage]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))    # NaN and Infinity, as json writes them
        options = options + ["--config", str(path)]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *inputs, *options]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert not out.exists()


def _cut(path, n):
    path.write_bytes(path.read_bytes()[:-n])


@pytest.mark.parametrize("cut", [100, 3])
def test_truncated_encoder_blob_exit_4(pipeline, tmp_path, cut):
    d = pipeline
    pt = tmp_path / "pt"
    shutil.copytree(d["pretrain"], pt)
    _cut(pt / "encoder.ckpt.f32", cut)
    assert main(["embed", "--out", str(tmp_path / "o"), "--data", str(d["split"]),
                 "--encoder", str(pt)]) == 4


@pytest.mark.parametrize("damage", [
    pytest.param(lambda dec: _cut(dec / "decoder_V4.ckpt.f32", 100), id="blob"),
    pytest.param(lambda dec: _cut(dec / "decoder_V4.ckpt.json", 100), id="json"),
])
def test_unreadable_decoder_checkpoint_exit_4(pipeline, tmp_path, damage):
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    damage(dec)
    assert main(["evaluate", "--out", str(tmp_path / "o"), "--data", str(d["split"]),
                 "--encoder", str(d["pretrain"]), "--decoders", str(dec)]) == 4


def _nan_everywhere(path):
    path.write_bytes(b"\x00\x00\xc0\x7f" * (path.stat().st_size // 4))


def _inf_first(path):
    path.write_bytes(b"\x00\x00\x80\x7f" + path.read_bytes()[4:])


@pytest.mark.parametrize("stage, blob, damage", [
    pytest.param("embed", "pretrain/encoder.ckpt.f32", _inf_first, id="encoder-inf-embed"),
    pytest.param("evaluate", "dec/decoder_V1.ckpt.f32", _nan_everywhere,
                 id="decoder-nan-evaluate"),
    pytest.param("reconstruct", "dec/decoder_V1.ckpt.f32", _nan_everywhere,
                 id="decoder-nan-reconstruct"),
    pytest.param("train", "embed/embeddings_train.f32", _nan_everywhere,
                 id="embeddings-nan-train"),
    pytest.param("affinity", "embed/embeddings_train.f32", _nan_everywhere,
                 id="embeddings-nan-affinity"),
])
def test_non_finite_blob_exit_4(pipeline, tmp_path, capsys, stage, blob, damage):
    d = pipeline
    for name in ("pretrain", "embed", "dec"):
        shutil.copytree(d[name], tmp_path / name)
    damage(tmp_path / blob)
    decoders = ["--encoder", str(tmp_path / "pretrain"), "--decoders", str(tmp_path / "dec")]
    inputs = {"embed": ["--encoder", str(tmp_path / "pretrain")],
              "evaluate": decoders, "reconstruct": decoders,
              "train": ["--embeddings", str(tmp_path / "embed"), "--epochs", "1"],
              "affinity": ["--embeddings", str(tmp_path / "embed"), "--split", "train"]}[stage]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]), *inputs]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and blob.split("/")[1] in err and "non-finite" in err
    assert not out.exists()


def test_corrupt_upstream_manifest_exit_3(pipeline, tmp_path, capsys):
    split = tmp_path / "split"
    shutil.copytree(pipeline["split"], split)
    _cut(split / "manifest.json", 10)
    assert main(["pretrain", "--out", str(tmp_path / "o"), "--data", str(split),
                 "--epochs", "0"]) == 3
    assert capsys.readouterr().err.startswith("error:dependency:")


@pytest.mark.parametrize("stage, damaged", [
    pytest.param("embed", "split/segments_train.manifest.json", id="store-manifest"),
    pytest.param("split", "pre/records_index.json", id="records-index"),
    pytest.param("evaluate", "split/splits.json", id="splits"),
])
def test_unreadable_json_input_exit_4(pipeline, tmp_path, capsys, stage, damaged):
    d = pipeline
    for name in ("pre", "split"):
        shutil.copytree(d[name], tmp_path / name)
    _cut(tmp_path / damaged, 10)
    inputs = {"embed": ["--data", str(tmp_path / "split"), "--encoder", str(d["pretrain"])],
              "split": ["--data", str(tmp_path / "pre")],
              "evaluate": ["--data", str(tmp_path / "split"), "--encoder",
                           str(d["pretrain"]), "--decoders", str(d["dec"])]}[stage]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *inputs]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


@pytest.mark.parametrize("stage, damaged, content, code", [
    pytest.param("embed", "split/segments_train.manifest.json", "[]", 4,
                 id="store-manifest"),
    pytest.param("split", "pre/records_index.json", "5", 4, id="records-index"),
    pytest.param("evaluate", "split/splits.json", "[]", 4, id="splits"),
    pytest.param("evaluate", "dec/norm_stats.json", "5", 4, id="norm-stats"),
    pytest.param("evaluate", "dec/decoder_V4.ckpt.json", "[]", 4, id="checkpoint"),
    pytest.param("evaluate", "dec/manifest.json", "[]", 3, id="upstream-manifest"),
    pytest.param("evaluate", "dec/manifest.json", '{"config": 5}', 3,
                 id="upstream-manifest-config"),
])
def test_json_input_of_wrong_type_exit(pipeline, tmp_path, capsys, stage, damaged,
                                       content, code):
    d = pipeline
    for name in ("pre", "split", "dec"):
        shutil.copytree(d[name], tmp_path / name)
    (tmp_path / damaged).write_text(content)
    inputs = {"embed": ["--data", str(tmp_path / "split"), "--encoder", str(d["pretrain"])],
              "split": ["--data", str(tmp_path / "pre")],
              "evaluate": ["--data", str(tmp_path / "split"), "--encoder",
                           str(d["pretrain"]), "--decoders", str(tmp_path / "dec")]}[stage]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *inputs]) == code
    category = {3: "dependency", 4: "data"}[code]
    assert capsys.readouterr().err.startswith(f"error:{category}:")
    assert not out.exists()


def _edit_json(path, edit):
    value = json.loads(path.read_text())
    edit(value)
    path.write_text(json.dumps(value))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda index: index.__setitem__(0, 5), id="entry-not-object"),
    pytest.param(lambda index: index[0].pop("patient_id"), id="missing-key"),
    pytest.param(lambda index: index[0].update(fold="x"), id="fold-text"),
    pytest.param(lambda index: index[0].update(fold=0), id="fold-0"),
    pytest.param(lambda index: index[0].update(fold=11), id="fold-11"),
    pytest.param(lambda index: index[0]["likelihoods"].update(NORM="x"),
                 id="likelihood-text"),
])
def test_bad_records_index_entry_exit_4(pipeline, tmp_path, capsys, edit):
    pre = tmp_path / "pre"
    shutil.copytree(pipeline["pre"], pre)
    _edit_json(pre / "records_index.json", edit)
    out = tmp_path / "o"
    assert main(["split", "--out", str(out), "--data", str(pre)]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["pre"]


@pytest.mark.parametrize("stage", ["evaluate", "reconstruct"])
@pytest.mark.parametrize("edit", [
    pytest.param(lambda entry: entry.update(fold=0), id="fold-0"),
    pytest.param(lambda entry: entry["likelihoods"].update(NORM="x"), id="likelihood-text"),
])
def test_bad_non_test_records_index_entry_exit_4(pipeline, tmp_path, capsys, stage, edit):
    """`evaluate` and `reconstruct` check every entry of the index, as
    `split` does, not only the test fold's."""
    d = pipeline
    pre, split = tmp_path / "pre", tmp_path / "split"
    shutil.copytree(d["pre"], pre)
    shutil.copytree(d["split"], split)
    _edit_json(split / "splits.json", lambda s: s.update(preprocessed_dir=str(pre)))
    test = set(json.loads((split / "splits.json").read_text())["records"]["test"])
    _edit_json(pre / "records_index.json", lambda index: edit(
        next(e for e in index if e["record_id"] not in test)))
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(split), "--encoder",
                 str(d["pretrain"]), "--decoders", str(d["dec"])]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["split", "evaluate", "reconstruct"])
def test_repeated_records_index_entry_exit_4(pipeline, tmp_path, capsys, stage):
    """An index that lists one test record twice would have it windowed,
    or scored, twice."""
    d = pipeline
    pre, split = tmp_path / "pre", tmp_path / "split"
    shutil.copytree(d["pre"], pre)
    shutil.copytree(d["split"], split)
    _edit_json(split / "splits.json", lambda s: s.update(preprocessed_dir=str(pre)))
    test_id = _test_split_record(pre)
    _edit_json(pre / "records_index.json", lambda index: index.append(
        next(e for e in index if e["record_id"] == test_id)))
    inputs = {"split": ["--data", str(pre)],
              "evaluate": ["--data", str(split), "--encoder", str(d["pretrain"]),
                           "--decoders", str(d["dec"])]}
    inputs["reconstruct"] = inputs["evaluate"]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *inputs[stage]]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and f"record_id {test_id} is listed twice" in err
    assert not out.exists()


@pytest.mark.parametrize("stage, edit, says", [
    pytest.param("evaluate", lambda splits: splits["records"].update(test=5),
                 "'test' is missing or not", id="test-not-list"),
    pytest.param("evaluate", lambda splits: splits.update(records=[]),
                 "'records' is missing or not", id="records-not-object"),
    *[pytest.param(stage, edit, says, id=f"{label}-{stage}")
      for stage in ("evaluate", "reconstruct")
      for label, edit, says in (
          ("test-empty", lambda splits: splits["records"].update(test=[]),
           "splits.json: no test records"),
          ("test-id-unknown", lambda splits: splits["records"]["test"].append("NOPE-P999-R00"),
           "splits.json: test record NOPE-P999-R00 is not in records_index.json"),
          ("test-id-repeated",
           lambda splits: splits["records"]["test"].insert(1, splits["records"]["test"][0]),
           "splits.json: test record {first} is listed twice"))],
])
def test_bad_splits_records_exit_4(pipeline, tmp_path, capsys, stage, edit, says):
    """`says` may name the first test id as {first}."""
    d = pipeline
    split = tmp_path / "split"
    shutil.copytree(d["split"], split)
    first = json.loads((split / "splits.json").read_text())["records"]["test"][0]
    _edit_json(split / "splits.json", edit)
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(split), "--encoder",
                 str(d["pretrain"]), "--decoders", str(d["dec"])]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and says.format(first=first) in err
    assert not out.exists()


def _set_first(key, value):
    """The statistics with the first number of `key` set to `value`."""
    return lambda stats: {**stats, key: [value, *stats[key][1:]]}


@pytest.mark.parametrize("stage, edit, says", [
    pytest.param("evaluate", lambda stats: [stats], "top level is not a JSON object",
                 id="stats-not-object"),
    pytest.param("evaluate", lambda stats: {k: v for k, v in stats.items() if k != "y_mu"},
                 "'y_mu' is missing", id="stats-missing-key"),
    pytest.param("evaluate", lambda stats: {**stats, "h_mu": ["x"] * len(stats["h_mu"])},
                 "'h_mu' is missing or not numbers", id="stats-strings"),
    pytest.param("evaluate", lambda stats: {**stats, "h_mu": stats["h_mu"][:3]},
                 "'h_mu' is not a list of 128 numbers", id="stats-short"),
    *[pytest.param(stage, _set_first(key, value), f"norm_stats.json {key!r}: 1 non-finite",
                   id=f"stats-{label}-{stage}")
      for stage in ("evaluate", "reconstruct")
      for label, key, value in (("nan", "h_sigma", float("nan")),
                                ("inf", "y_mu", float("inf")))],
])
def test_bad_norm_stats_exit_4(pipeline, tmp_path, capsys, stage, edit, says):
    """`edit` maps the statistics to what norm_stats.json is made to hold."""
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    stats_path = dec / "norm_stats.json"
    stats_path.write_text(json.dumps(edit(json.loads(stats_path.read_text()))))
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]), "--encoder",
                 str(d["pretrain"]), "--decoders", str(dec)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and says in err
    assert not out.exists()


def test_reconstruct_beyond_the_int16_writer_exit_4(pipeline, tmp_path, capsys):
    """With y_sigma 1e6 mV the reconstructed samples pass +-32.767 mV, which
    the output record's int16 samples cannot hold."""
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    _edit_json(dec / "norm_stats.json", lambda stats: stats.update(y_sigma=[1e6] * 5))
    out = tmp_path / "o"
    assert main(["reconstruct", "--out", str(out), "--data", str(d["split"]), "--encoder",
                 str(d["pretrain"]), "--decoders", str(dec)]) == 4
    err = capsys.readouterr().err
    test = json.loads((d["split"] / "splits.json").read_text())["records"]["test"]
    assert any(err.startswith(f"error:data: record {r} ") for r in test)
    assert f"decoder set {dec}: " in err and "int16" in err
    assert not out.exists()


def test_decoder_set_statistics_come_from_norm_stats_json(pipeline, tmp_path):
    """The checkpoints' copies of the statistics are not read: with every
    copy's y_sigma doubled, evaluate writes the report of the untouched set."""
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    for path in dec.glob("decoder_*.ckpt.json"):
        _edit_json(path, lambda desc: desc["extra"]["norm_stats"].update(
            y_sigma=[2 * v for v in desc["extra"]["norm_stats"]["y_sigma"]]))
    reports = []
    for name, decoders in (("want", d["dec"]), ("got", dec)):
        assert main(["evaluate", "--out", str(tmp_path / name), "--data", str(d["split"]),
                     "--encoder", str(d["pretrain"]), "--decoders", str(decoders)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("stage, damaged, edit", [
    pytest.param("embed", "pretrain/encoder.ckpt.json",
                 lambda desc: desc.pop("architecture"), id="checkpoint-architecture"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest.pop("window"), id="segment-store-window"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest["segments"].__setitem__(0, 5),
                 id="segment-store-entry"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest.update(input_leads=["I", "II"]),
                 id="segment-store-input-leads-short"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest.update(input_leads=["I", "II", "V3"]),
                 id="segment-store-input-leads-relabelled"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest["target_leads"].reverse(),
                 id="segment-store-target-leads-reordered"),
    pytest.param("embed", "split/segments_train.manifest.json",
                 lambda manifest: manifest.update(window=128,
                                                  n_segments=2 * manifest["n_segments"],
                                                  segments=2 * manifest["segments"]),
                 id="segment-store-window-128"),
    pytest.param("train", "embed/embeddings_train.manifest.json",
                 lambda manifest: manifest.update(shape="x"), id="vector-store-shape"),
])
def test_bad_checkpoint_or_store_field_exit_4(pipeline, tmp_path, capsys, stage, damaged,
                                              edit):
    d = pipeline
    for name in ("split", "pretrain", "embed"):
        shutil.copytree(d[name], tmp_path / name)
    _edit_json(tmp_path / damaged, edit)
    inputs = {"embed": ["--encoder", str(tmp_path / "pretrain")],
              "train": ["--embeddings", str(tmp_path / "embed"), "--epochs", "1"]}[stage]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(tmp_path / "split"), *inputs]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


def test_decoder_conditioned_not_boolean_exit_3(pipeline, tmp_path, capsys):
    """A `conditioned` that is a string, or missing: read as conditioned,
    a clean-only set would be scored on embeddings it never saw."""
    d = pipeline
    for name, edit in (("string", lambda c: c.update(conditioned="false")),
                       ("missing", lambda c: c.pop("conditioned"))):
        dec = tmp_path / f"dec_c-{name}"
        shutil.copytree(d["dec_c"], dec)
        _edit_json(dec / "manifest.json", lambda m: edit(m["config"]))
        out = tmp_path / "o"
        assert main(["evaluate", "--out", str(out), "--data", str(d["split"]), "--encoder",
                     str(d["pretrain"]), "--decoders", str(dec)]) == 3, name
        assert capsys.readouterr().err.startswith("error:dependency:"), name
        assert not out.exists()


@pytest.mark.parametrize("stage, log_lines", [("pretrain", 2), ("train", 2 * 5)])
def test_epoch_logs_go_to_stderr(pipeline, tmp_path, capsys, stage, log_lines):
    d = pipeline
    inputs = {"pretrain": ["--batch-size", "32"],
              "train": ["--embeddings", str(d["embed"])]}[stage]
    assert main([stage, "--out", str(tmp_path / "o"), "--data", str(d["split"]),
                 "--epochs", "2", *inputs]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert captured.out.startswith(f"{stage}: ")
    assert len(captured.err.splitlines()) == log_lines
    assert "epoch 2" in captured.err


def test_unreadable_class_specs_exit_2(tmp_path, capsys):
    specs = tmp_path / "specs.json"
    specs.write_text('[{"class_name": "A",')
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--class-specs", str(specs)]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert not out.exists()


@pytest.mark.parametrize("config", [
    pytest.param({"lo_pct": 150}, id="lo-above-100"),
    pytest.param({"hi_pct": -5}, id="hi-below-0"),
    pytest.param({"lo_pct": 90, "hi_pct": 10}, id="lo-above-hi"),
])
def test_split_percentiles_out_of_order_exit_2(pipeline, tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"split": config}))
    out = tmp_path / "o"
    assert main(["split", "--out", str(out), "--data", str(pipeline["pre"]),
                 "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert not out.exists()


def _tree(root):
    return {str(p.relative_to(root)): _sha(p) for p in Path(root).rglob("*") if p.is_file()}


def test_failed_rerun_keeps_earlier_output(pipeline, tmp_path):
    pre = tmp_path / "pre"
    shutil.copytree(pipeline["pre"], pre)
    before = _tree(pre)
    raw = tmp_path / "raw"
    assert main(["synth", "--out", str(raw), "--classes", "3", "--patients", "4",
                 "--records", "1", "--duration", "6", "--seed", "1"]) == 0
    sorted((raw / "records").glob("*.dat"))[-1].unlink()
    assert main(["preprocess", "--out", str(pre), "--data", str(raw)]) == 4
    assert _tree(pre) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pre", "raw"]


def test_rerun_drops_stale_outputs(pipeline, tmp_path):
    d = pipeline
    out = tmp_path / "eval"
    common = ["evaluate", "--out", str(out), "--data", str(d["split"]),
              "--encoder", str(d["pretrain"]), "--decoders", str(d["dec"])]
    assert main([*common, "--baseline-decoders", str(d["dec_c"])]) == 0
    assert (out / "comparison.csv").exists()
    assert main(common) == 0
    assert not (out / "comparison.csv").exists()
    assert not (out / "baseline_report.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == [str(d[k]) for k in ("split", "pretrain", "dec")]
    assert [p.name for p in tmp_path.iterdir()] == ["eval"]


def test_rerun_never_leaves_a_half_removed_out(pipeline, tmp_path, monkeypatch):
    """A re-run of `embed` whose removal of the old output fails partway:
    `--out` still holds one whole output, with every file its manifest
    lists, and nothing else."""
    d = pipeline
    out = tmp_path / "embed"
    shutil.copytree(d["embed"], out)
    unlink, unlinked = os.unlink, []

    def failing_unlink(path, *args, **kwargs):
        unlinked.append(path)
        if len(unlinked) == 3:
            raise OSError("injected unlink failure")
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", failing_unlink)
    main(["embed", "--out", str(out), "--data", str(d["split"]),
          "--encoder", str(d["pretrain"])])
    monkeypatch.undo()
    assert len(unlinked) >= 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"]
                                                           + ["manifest.json"])
    for name in ("train", "val", "test"):
        assert _sha(out / f"embeddings_{name}.f32") == _sha(d["embed"] / f"embeddings_{name}.f32")


def test_failed_publish_restores_the_old_output(pipeline, tmp_path, monkeypatch):
    """A re-run of `affinity` whose rename of the new output into place
    fails: the old output, already renamed aside, is renamed back, so
    `--out` holds it byte for byte and no sibling is left."""
    d = pipeline
    out = tmp_path / "aff"
    argv = ["affinity", "--out", str(out), "--data", str(d["split"]), "--embeddings",
            str(d["embed"]), "--k", "3", "--split", "train"]
    assert main(argv) == 0
    before = _tree(out)
    rename, renamed = Path.rename, []

    def failing_rename(self, target):
        renamed.append(self.name)
        if len(renamed) == 2:
            raise OSError("injected: second rename")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", failing_rename)
    assert main(argv) == 5
    monkeypatch.undo()
    assert len(renamed) == 3
    assert _tree(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["aff"]


@pytest.mark.parametrize("manifest", [None, {"command": "preprocess"}],
                         ids=["no-manifest", "other-stage"])
def test_foreign_out_exit_2(tmp_path, capsys, manifest):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    if manifest is not None:
        (out / "manifest.json").write_text(json.dumps(manifest))
    before = _tree(out)
    assert main(["synth", "--out", str(out), *SYNTH_1X1]) == 2
    assert capsys.readouterr().err.startswith("error:config:")
    assert _tree(out) == before


def _write(path, data):
    """`data` at `path`: bytes as they are, anything else as JSON."""
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    return str(path)


def _config(stage, config):
    def make(d, tmp):
        data = {"synth": SYNTH_1X1, "preprocess": ["--data", str(d["raw"])]}[stage]
        return [stage, *data, "--config", _write(tmp / "config.json", config)]
    return make


def _class_specs(specs, extra=()):
    return lambda d, tmp: ["synth", "--class-specs", _write(tmp / "specs.json", specs),
                           *extra]


def _corpus_byte(pattern):
    """preprocess over a copy of the corpus whose first file matching
    `pattern` ends in a byte that is not UTF-8."""
    def make(d, tmp):
        raw = tmp / "raw"
        shutil.copytree(d["raw"], raw)
        path = sorted(raw.glob(pattern))[0]
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        return ["preprocess", "--data", str(raw)]
    return make


def _cleaned_hea_missing(stage):
    """`stage` over copies of the preprocessed and split outputs whose
    index lists a cleaned test record whose .hea is gone."""
    def make(d, tmp):
        pre, split = tmp / "pre", tmp / "split"
        shutil.copytree(d["pre"], pre)
        shutil.copytree(d["split"], split)
        _edit_json(split / "splits.json", lambda s: s.update(preprocessed_dir=str(pre)))
        test_id = json.loads((split / "splits.json").read_text())["records"]["test"][0]
        (pre / "cleaned" / f"{test_id}.hea").unlink()
        if stage == "split":
            return ["split", "--data", str(pre)]
        return [stage, "--data", str(split), "--encoder", str(d["pretrain"]),
                "--decoders", str(d["dec"])]
    return make


@pytest.mark.parametrize("make, code", [
    pytest.param(_config("synth", b'{"synth": {}}\xff'), 2, id="config-not-utf8"),
    pytest.param(lambda d, tmp: ["synth", *SYNTH_1X1, "--config", str(tmp)], 2,
                 id="config-directory"),
    pytest.param(_class_specs({"a": 1}), 2, id="class-specs-object"),
    pytest.param(_class_specs([5]), 2, id="class-specs-entry-number"),
    pytest.param(_class_specs([{}]), 2, id="class-specs-entry-empty"),
    pytest.param(_class_specs([{"class_name": "A", "waves": {}, "hr_range": [10, 20]}]), 2,
                 id="class-specs-hr-range"),
    *[pytest.param(_class_specs([{"class_name": "A", "waves": {}, "hr_range": [60, 80],
                                  key: value}]), 2, id=f"class-specs-{key}-{value}")
      for key, value in (("noise_sigma", "x"), ("noise_sigma", -1), ("wander_amp", "x"),
                         ("wander_freq", float("nan")))],
    *[pytest.param(_class_specs([{"class_name": "A", "waves": waves, "hr_range": [60, 80]}]),
                   2, id=f"class-specs-wave-{name}")
      for name, waves in (("string-field", {"I": [[0.15, 0.025, "x"]]}),
                          ("nan-center", {"I": [[float("nan"), 0.025, 0.1]]}),
                          ("inf-width", {"I": [[0.15, float("inf"), 0.1]]}),
                          ("bool-amplitude", {"I": [[0.15, 0.025, True]]}),
                          ("unknown-lead", {"V7": [[0.15, 0.025, 0.1]]}))],
    *[pytest.param(_class_specs([{"class_name": name, "waves": {}, "hr_range": [60, 80]}]),
                   2, id=f"class-specs-name-{label}")
      for label, name in (("path", "../../evil"), ("comma", "A,B"), ("empty", ""),
                          ("number", 5))],
    pytest.param(_class_specs([{"class_name": "NORM", "waves": {}, "hr_range": [60, 80]}] * 2),
                 2, id="class-specs-name-repeated"),
    *[pytest.param(_class_specs([{"class_name": "A", "waves": {"I": [[0.3, 0.01, amplitude]]},
                                  "hr_range": [60, 80]}], SYNTH_1X1[2:]), 2,
                   id=f"class-specs-too-tall-{amplitude:g}",
                   marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
      for amplitude in (1000, 1e308)],
    pytest.param(_corpus_byte("records/*.hea"), 4, id="corpus-hea-not-utf8"),
    pytest.param(_corpus_byte("database.csv"), 4, id="database-csv-not-utf8"),
    pytest.param(_cleaned_hea_missing("split"), 4, id="cleaned-hea-missing-split"),
    pytest.param(_cleaned_hea_missing("evaluate"), 4, id="cleaned-hea-missing-evaluate"),
    pytest.param(_cleaned_hea_missing("reconstruct"), 4,
                 id="cleaned-hea-missing-reconstruct"),
    pytest.param(_config("preprocess", {"preprocess": {"filter": 5}}), 2,
                 id="filter-not-object"),
    *[pytest.param(_config("preprocess", {"preprocess": {"filter": {key: value}}}), 2,
                   id=f"filter-{key}-{value}")
      for key, value in (("notch_freq", "x"), ("notch_freq", 0), ("bandpass_order", 2.5),
                         ("median_win_long", "a"), ("bandpass_order", 0),
                         ("notch_q", 0), ("median_win_short", -1), ("notch_frq", 60))],
    pytest.param(_config("synth", {"synth": {"patient": 1}}), 2, id="synth-unknown-key"),
    *[pytest.param(_config("preprocess", {"preprocess": {"verify_checksums": value}}), 2,
                   id=f"verify-checksums-{value}") for value in ("no", 1)],
])
def test_bad_input_file_exit_code(pipeline, tmp_path, capsys, make, code):
    out = tmp_path / "o"
    argv = make(pipeline, tmp_path)
    assert main([argv[0], "--out", str(out), *argv[1:]]) == code
    category = {2: "config", 4: "data"}[code]
    assert capsys.readouterr().err.startswith(f"error:{category}:")
    assert not out.exists()


def test_manifest_outputs_name_every_written_file(pipeline, tmp_path):
    d = pipeline
    common = ["--data", str(d["split"]), "--encoder", str(d["pretrain"]),
              "--decoders", str(d["dec"])]
    runs = {"eval": ["evaluate", *common, "--baseline-decoders", str(d["dec_c"])],
            "rec": ["reconstruct", *common],
            "aff": ["affinity", "--data", str(d["split"]), "--embeddings", str(d["embed"]),
                    "--k", "3", "--split", "train"]}
    for name, argv in runs.items():
        assert main([argv[0], "--out", str(tmp_path / name), *argv[1:]]) == 0
    outs = [d[k] for k in ("raw", "pre", "split", "pretrain", "embed", "dec", "dec_c")]
    for out in outs + [tmp_path / name for name in runs]:
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written, out


@pytest.mark.parametrize("stage, options", [
    ("pretrain", ["--epochs", "1", "--batch-size", "32"]),
    ("train", ["--epochs", "2"]),
])
def test_diverged_training_exit_2(pipeline, tmp_path, capsys, recwarn, stage, options):
    d = pipeline
    if stage == "train":
        options = options + ["--embeddings", str(d["embed"])]
    config = _write(tmp_path / "config.json", {stage: {"lr": 1e30}})
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]), *options,
                 "--config", config]) == 2
    err = capsys.readouterr().err.splitlines()
    # a warning would be printed to stderr before the error line
    assert len(err) == 1 and not recwarn.list, [str(w.message) for w in recwarn]
    last = err[-1]
    assert last.startswith("error:config:") and "diverged" in last
    assert not out.exists()


@pytest.mark.parametrize("argv, config, recorded", [
    pytest.param(["synth", "--classes", "1", "--duration", "1"], {"synth": {"patients": 3.0}},
                 {"patients": 3, "classes": 1, "records_per_patient": 2, "seed": 0},
                 id="synth-whole-float"),
    pytest.param(["split", "--data", "pre"], None, {"lo_pct": 0.1, "hi_pct": 99.9},
                 id="split-defaults"),
    pytest.param(["preprocess", "--data", "raw"], None,
                 {"verify_checksums": False, "bandpass_fallback_40hz": False},
                 id="preprocess-defaults"),
    pytest.param(["train", "--data", "split", "--embeddings", "embed", "--epochs", "1"], None,
                 {"epochs": 1, "patience": 10, "lr": 1e-3, "conditioned": True},
                 id="train-defaults"),
])
def test_manifest_config_records_values_used(pipeline, tmp_path, argv, config, recorded):
    stage, *options = argv
    options = [str(pipeline[o]) if o in pipeline else o for o in options]
    if config is not None:
        options += ["--config", _write(tmp_path / "config.json", config)]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), *options]) == 0
    used = json.loads((out / "manifest.json").read_text())["config"]
    assert {key: used[key] for key in recorded} == recorded
    assert all(type(used[key]) is type(value) for key, value in recorded.items())


def test_cli_surface():
    import argparse
    from ecgrecon.cli import build_parser
    parser = build_parser()
    stages = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
               for name, sp in stages.items()}
    upstream = {"--out", "--data"}
    assert options == {
        "synth": {"--out", "--config", "--seed", "--classes", "--patients", "--records",
                  "--duration", "--class-specs"},
        "preprocess": upstream | {"--config", "--verify-checksums"},
        "split": upstream | {"--config"},
        "pretrain": upstream | {"--config", "--seed", "--epochs", "--batch-size"},
        "embed": upstream | {"--encoder"},
        "train": upstream | {"--config", "--seed", "--embeddings", "--clean-only",
                             "--epochs", "--patience", "--batch-size"},
        "reconstruct": upstream | {"--encoder", "--decoders"},
        "evaluate": upstream | {"--encoder", "--decoders", "--baseline-decoders"},
        "affinity": upstream | {"--config", "--embeddings", "--split", "--k"},
    }
    assert parser.parse_args(["synth", "--out", "o", "--records", "2"]).records_per_patient == 2
    assert parser.parse_args(["preprocess", "--out", "o", "--data", "d",
                              "--verify-checksums"]).verify_checksums is True
    assert parser.parse_args(["train", "--out", "o", "--data", "d", "--embeddings", "e",
                              "--clean-only"]).clean_only is True


def test_output_digest_compare_names_each_mismatch(tmp_path, monkeypatch, capsys):
    tool = _output_digest()
    monkeypatch.setattr(tool, "recipe", lambda work: [])    # digest the files below as they are
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    work = tmp_path / "work"
    for name, text in (("a/same.txt", "1"), ("a/changed.txt", "2"), ("b/new.txt", "3")):
        (work / name).parent.mkdir(parents=True, exist_ok=True)
        (work / name).write_text(text)
    files = tool.digest(work)
    files["a/changed.txt"] = "0" * 64
    files["c/gone.txt"] = files.pop("b/new.txt")
    versions = dict(tool.versions(), numpy="0.0")
    (tmp_path / "saved.json").write_text(json.dumps({"versions": versions, "files": files}))
    assert tool.main(["--work", str(work), "--compare", str(tmp_path / "saved.json")]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"versions": tool.versions(), "files": tool.digest(work)}
    assert err.splitlines() == [
        "output_digest: differs: a/changed.txt",
        "output_digest: missing: b/new.txt (not in the saved digest)",
        "output_digest: missing: c/gone.txt (not written)",
        f"output_digest: version: numpy {tool.versions()['numpy']} here, 0.0 in the saved "
        "digest",
        f"output_digest: 3 of 4 paths differ from {tmp_path / 'saved.json'}"]
    (tmp_path / "saved.json").write_text(out)
    assert tool.main(["--work", str(work), "--compare", str(tmp_path / "saved.json")]) == 0


def test_output_digest_replaces_the_work_directory(tmp_path):
    """Manifests and splits.json name the work directory; their digest
    does not depend on it."""
    tool = _output_digest()
    digests = []
    for name in ("one", "two"):
        work = tmp_path / name
        (work / "split").mkdir(parents=True)
        (work / "split" / "splits.json").write_text(
            json.dumps({"preprocessed_dir": str(work / "pre")}))
        (work / "split" / "manifest.json").write_text(json.dumps(
            {"inputs": [str(work / "pre")], "started": name, "finished": name}))
        digests.append(tool.digest(work))
    assert digests[0] == digests[1]


def test_recipe_writes_the_saved_digest(tmp_path):
    """Every file the digest recipe writes has the sha256 that
    `tests/output_digest.json` saved. A change that moves an output byte on
    purpose regenerates that file (`tools/output_digest.py --work DIR >
    tests/output_digest.json`) and says in CHANGES.md which paths moved."""
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, str(root / "tools" / "output_digest.py"), "--work",
         str(tmp_path / "work"), "--compare", str(root / "tests" / "output_digest.json")],
        capture_output=True, text=True)
    report = [line for line in run.stderr.splitlines() if line.startswith("output_digest:")]
    assert run.returncode == 0, "\n".join(report) or run.stderr
