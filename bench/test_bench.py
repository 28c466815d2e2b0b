"""Tests of the benchmark itself: small runs report every metric, and each
check rejects an injected fault.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 3
SMALL = {
    "ingest": lambda: workloads.Ingest(patients=3),
    "train": lambda: workloads.Train(patients=7),
    "infer": lambda: workloads.Infer(patients=5, test_seconds=20.0, decode_calls=50),
}
STAGE_METRICS = {
    "ingest": {"preprocess_ecg_s_per_s", "split_windows_per_s"},
    "train": {"pretrain_pairs_per_s", "decoder_windows_per_s", "decoder_val_loss"},
    "infer": {"embed_windows_per_s", "evaluate_ecg_s_per_s", "reconstruct_ecg_s_per_s",
              "decode_p50_ms", "decode_p99_ms", "decode_samples"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_reports_every_metric(name, trace, tmp_path):
    result, summary = run.measure(SMALL[name](), SEED, 0.0, bool(trace), tmp_path / "w")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    if trace:
        assert Path(summary["trace_file"]).is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert set(summary["stage_metrics"]) == STAGE_METRICS[name]
        assert all(v["value"] > 0 for v in summary["stage_metrics"].values())


def _one_round(workload, d):
    ctx = workload.setup(d / "setup", SEED)
    ops = workloads.Ops()
    times = workload.run_round(ctx, d / "round", ops)
    assert ops.failed == 0
    workload.check(ctx, d / "round", [times])
    return workload, ctx, d / "round", [times]


@pytest.fixture(scope="module")
def ingest_round(tmp_path_factory):
    return _one_round(SMALL["ingest"](), tmp_path_factory.mktemp("ingest"))


@pytest.fixture(scope="module")
def infer_round(tmp_path_factory):
    return _one_round(SMALL["infer"](), tmp_path_factory.mktemp("infer"))


def _copy(src, tmp_path):
    return Path(shutil.copytree(src, tmp_path / Path(src).name))


def test_rejects_flipped_sample_in_cleaned_record(ingest_round, tmp_path):
    workload, ctx, r, rounds = ingest_round
    bad = _copy(r, tmp_path)
    dat = bad / "pre" / "cleaned" / f"{workload.checked(ctx)[0]}.dat"
    raw = np.fromfile(dat, dtype="<i2")
    raw[len(raw) // 2] ^= 1 << 4
    raw.tofile(dat)
    with pytest.raises(CheckFailed, match="documented chain"):
        workload.check(ctx, bad, rounds)


def test_rejects_window_that_no_longer_matches_its_record(ingest_round, tmp_path):
    workload, ctx, r, rounds = ingest_round
    bad = _copy(r, tmp_path)
    blob = bad / "split" / "segments_train.f32"
    values = np.fromfile(blob, dtype="<f4")
    values[300] += 0.01
    values.tofile(blob)
    with pytest.raises(CheckFailed, match="differs from the cleaned record"):
        workload.check(ctx, bad, rounds)


@pytest.mark.parametrize("whole_patient", [False, True])
def test_rejects_patient_moved_across_splits(ingest_round, tmp_path, whole_patient):
    workload, ctx, r, rounds = ingest_round
    bad = _copy(r, tmp_path)
    path = bad / "split" / "splits.json"
    splits = json.loads(path.read_text())
    first = splits["records"]["train"][0]
    patient = first.rsplit("-R", 1)[0]
    moved = [rid for rid in splits["records"]["train"]
             if rid.startswith(patient + "-")] if whole_patient else [first]
    splits["records"]["train"] = [x for x in splits["records"]["train"] if x not in moved]
    splits["records"]["val"] += moved
    path.write_text(json.dumps(splits))
    with pytest.raises(CheckFailed, match="listed under val"):
        workload.check(ctx, bad, rounds)


def test_rejects_perturbed_decoder_weight(infer_round, tmp_path):
    workload, ctx, r, rounds = infer_round
    bad = _copy(ctx["dec"], tmp_path)
    blob = bad / "decoder_V4.ckpt.f32"
    values = np.fromfile(blob, dtype="<f4")
    values[-1] += 0.05                   # temp2.bias, reaches every output sample
    values.tofile(blob)
    with pytest.raises(CheckFailed, match="decode output differs"):
        workload.check(ctx, r, rounds, decoder_dir=bad)
