"""Shared session fixtures: a mid-scale synthetic corpus taken through
cleaning, splitting, pretraining, and embedding exactly once, so the
end-to-end checks can share the expensive stages."""

import pytest

from ecgrecon import dsp
from ecgrecon.contrastive import PretrainConfig, embed_all, pretrain
from ecgrecon.dataset import (Segments, apply_qc, fit_qc_bounds, segment_record,
                              segment_record_nonoverlap, segment_stats, split_by_fold)
from ecgrecon.synth import builtin_class_specs, generate_corpus
from ecgrecon.wfdb_io import SignalRecord

DESK_SEED = 7


@pytest.fixture(scope="session")
def desk_times():
    """Wall-clock seconds of the shared expensive stages, keyed by stage."""
    return {}


@pytest.fixture(scope="session")
def desk_corpus():
    """4 classes x 30 patients x 2 records of 10 s at 100 Hz, cleaned."""
    records = generate_corpus(builtin_class_specs(), n_patients_per_class=30,
                              records_per_patient=2, seed=DESK_SEED,
                              duration=10.0, fs=100.0)
    cleaned = []
    for rec in records:
        cleaned.append(SignalRecord(samples=dsp.clean_signal(rec.samples, rec.fs),
                                    fs=dsp.TARGET_FS,
                                    lead_names=list(rec.lead_names),
                                    record_id=rec.record_id,
                                    patient_id=rec.patient_id,
                                    labels=rec.labels, fold=rec.fold))
    return cleaned


@pytest.fixture(scope="session")
def desk_splits(desk_corpus):
    splits = split_by_fold(desk_corpus)
    train = Segments.concat(segment_record(r) for r in splits["train"])
    val = Segments.concat(segment_record(r) for r in splits["val"])
    test = Segments.concat(segment_record_nonoverlap(r) for r in splits["test"])
    bounds = fit_qc_bounds(segment_stats(train))
    out = {}
    for name, segs in (("train", train), ("val", val), ("test", test)):
        kept, _ = apply_qc(segs, segment_stats(segs), bounds)
        out[name] = kept
    out["test_records"] = splits["test"]
    return out


@pytest.fixture(scope="session")
def desk_pretrained(desk_splits, desk_times):
    import time
    config = PretrainConfig(batch_size=128, epochs=8, seed=DESK_SEED)
    t0 = time.perf_counter()
    encoder, head, history = pretrain(desk_splits["train"], config)
    desk_times["pretrain"] = time.perf_counter() - t0
    return encoder, head, history


@pytest.fixture(scope="session")
def desk_embeddings(desk_splits, desk_pretrained, desk_times):
    import time
    encoder = desk_pretrained[0]
    t0 = time.perf_counter()
    out = {name: embed_all(desk_splits[name], encoder)
           for name in ("train", "val", "test")}
    desk_times["embed"] = time.perf_counter() - t0
    return out
