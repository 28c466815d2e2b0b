import hashlib
import json
import shutil
from pathlib import Path

import pytest

from ecgrecon.cli import main


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capfd_noop=None):
    """Run the full pipeline at tiny scale once and share the directories."""
    root = tmp_path_factory.mktemp("pipe")
    d = {name: root / name for name in
         ("raw", "pre", "split", "pretrain", "embed", "dec", "dec_c",
          "eval", "aff", "recon")}
    assert main(["synth", "--out", str(d["raw"]), "--classes", "3",
                 "--patients", "10", "--records", "1", "--duration", "6",
                 "--seed", "0"]) == 0
    assert main(["preprocess", "--out", str(d["pre"]),
                 "--data", str(d["raw"])]) == 0
    assert main(["split", "--out", str(d["split"]),
                 "--data", str(d["pre"])]) == 0
    assert main(["pretrain", "--out", str(d["pretrain"]),
                 "--data", str(d["split"]), "--epochs", "1",
                 "--batch-size", "32", "--seed", "0"]) == 0
    assert main(["embed", "--out", str(d["embed"]), "--data", str(d["split"]),
                 "--encoder", str(d["pretrain"])]) == 0
    assert main(["train", "--out", str(d["dec"]), "--data", str(d["split"]),
                 "--embeddings", str(d["embed"]), "--epochs", "1",
                 "--seed", "0"]) == 0
    assert main(["train", "--out", str(d["dec_c"]), "--data", str(d["split"]),
                 "--embeddings", str(d["embed"]), "--epochs", "1",
                 "--seed", "0", "--clean-only"]) == 0
    return d


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


@pytest.mark.parametrize("stage, options, config", [
    pytest.param("pretrain", ["--batch-size", "0"], None, id="pretrain-batch-size-0"),
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
])
def test_bad_stage_setting_exit_2(pipeline, tmp_path, capsys, stage, options, config):
    d = pipeline
    inputs = {"pretrain": [], "train": ["--embeddings", str(d["embed"])],
              "affinity": ["--embeddings", str(d["embed"])]}[stage]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        options = options + ["--config", str(path)]
    out = tmp_path / "o"
    assert main([stage, "--out", str(out), "--data", str(d["split"]),
                 *inputs, *options]) == 2
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


def _drop_norm_stats_extra(dec):
    """Decoder checkpoints without the norm_stats copy, so that loading the
    decoder set reads `norm_stats.json`."""
    for path in dec.glob("decoder_*.ckpt.json"):
        desc = json.loads(path.read_text())
        del desc["extra"]["norm_stats"]
        path.write_text(json.dumps(desc))


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
    _drop_norm_stats_extra(tmp_path / "dec")
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
])
def test_bad_records_index_entry_exit_4(pipeline, tmp_path, capsys, edit):
    pre = tmp_path / "pre"
    shutil.copytree(pipeline["pre"], pre)
    _edit_json(pre / "records_index.json", edit)
    out = tmp_path / "o"
    assert main(["split", "--out", str(out), "--data", str(pre)]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda splits: splits["records"].update(test=5), id="test-not-list"),
    pytest.param(lambda splits: splits.update(records=[]), id="records-not-object"),
])
def test_bad_splits_records_exit_4(pipeline, tmp_path, capsys, edit):
    d = pipeline
    split = tmp_path / "split"
    shutil.copytree(d["split"], split)
    _edit_json(split / "splits.json", edit)
    out = tmp_path / "o"
    assert main(["evaluate", "--out", str(out), "--data", str(split), "--encoder",
                 str(d["pretrain"]), "--decoders", str(d["dec"])]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda desc: desc.update(extra=5), id="extra-not-object"),
    pytest.param(lambda desc: desc["extra"].update(norm_stats=5), id="stats-not-object"),
    pytest.param(lambda desc: desc["extra"]["norm_stats"].pop("y_mu"), id="stats-missing-key"),
    pytest.param(lambda desc: desc["extra"]["norm_stats"].update(
        h_mu=["x"] * len(desc["extra"]["norm_stats"]["h_mu"])), id="stats-strings"),
    pytest.param(lambda desc: desc["extra"]["norm_stats"].update(
        h_mu=desc["extra"]["norm_stats"]["h_mu"][:3]), id="stats-short"),
])
def test_bad_checkpoint_extra_exit_4(pipeline, tmp_path, capsys, edit):
    d = pipeline
    dec = tmp_path / "dec"
    shutil.copytree(d["dec"], dec)
    _edit_json(dec / "decoder_V4.ckpt.json", edit)
    out = tmp_path / "o"
    assert main(["evaluate", "--out", str(out), "--data", str(d["split"]), "--encoder",
                 str(d["pretrain"]), "--decoders", str(dec)]) == 4
    assert capsys.readouterr().err.startswith("error:data:")
    assert not out.exists()


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
    d = pipeline
    dec = tmp_path / "dec_c"
    shutil.copytree(d["dec_c"], dec)
    _edit_json(dec / "manifest.json", lambda m: m["config"].update(conditioned="false"))
    out = tmp_path / "o"
    assert main(["evaluate", "--out", str(out), "--data", str(d["split"]), "--encoder",
                 str(d["pretrain"]), "--decoders", str(dec)]) == 3
    assert capsys.readouterr().err.startswith("error:dependency:")
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
