import numpy as np
import pytest

from ecgrecon import tensor as T
from ecgrecon.contrastive import (PretrainConfig, embed_all, make_views,
                                  pretrain, recenter_on_peak, supcon_loss,
                                  supcon_loss_naive)
from ecgrecon.dataset import Segments, segment_record
from ecgrecon.errors import DataError
from ecgrecon.nn import Encoder
from ecgrecon.synth import builtin_class_specs, generate_corpus
from ecgrecon.tensor import Tensor

from _utils import finite_diff_check, random_unit_rows


def _pulse_window(peak=100):
    x = np.zeros((3, 256), dtype=np.float32)
    t = np.arange(256)
    for row in range(3):
        x[row] = np.exp(-0.5 * ((t - peak) / 3.0) ** 2)
    return x


def test_recenter_moves_peak_to_128():
    x = _pulse_window(peak=100)
    pair = make_views(x, [100], seed=0)
    assert int(np.argmax(pair.view_a[1])) == 128
    # content shifted right by 28 samples
    np.testing.assert_allclose(pair.view_a[1][128], x[1][100], atol=1e-6)


def test_recenter_no_peaks_fallback():
    x = _pulse_window()
    pair = make_views(x, [], seed=0)
    np.testing.assert_array_equal(pair.view_a, x)


def test_recenter_reflection_padding():
    x = _pulse_window(peak=10)
    out = recenter_on_peak(x, [10])
    # the true peak lands at 128 (a reflected copy of equal height may also
    # appear in the padded region, so check the value rather than argmax)
    np.testing.assert_allclose(out[1][128], x[1][10], atol=1e-6)
    assert out.shape == (3, 256)
    assert np.all(np.isfinite(out))


def test_augmented_view_deterministic():
    x = _pulse_window()
    a = make_views(x, [100], seed=123).view_b
    b = make_views(x, [100], seed=123).view_b
    np.testing.assert_array_equal(a, b)
    c = make_views(x, [100], seed=124).view_b
    assert not np.array_equal(a, c)


def test_supcon_b2_shared_label_exact_zero():
    rng = np.random.default_rng(0)
    z = random_unit_rows(rng, 2, 4).astype(np.float32)
    loss = supcon_loss(Tensor(z), [frozenset({"A"}), frozenset({"A"})])
    assert loss.item() == 0.0


def test_supcon_b3_hand_value():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = [frozenset({"A"}), frozenset({"A"}), frozenset({"B"})]
    loss = supcon_loss(Tensor(z, dtype=np.float64), labels, temperature=0.07)
    expect = np.log(1.0 + np.exp(-1.0 / 0.07))
    assert loss.item() == pytest.approx(expect, abs=1e-12)
    assert loss.item() == pytest.approx(6.2e-7, rel=0.02)


def test_supcon_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        z = random_unit_rows(rng, b, d)
        labels = [frozenset(rng.choice(["A", "B", "C"],
                                       size=rng.integers(1, 3), replace=False))
                  for _ in range(b)]
        got = supcon_loss(Tensor(z, dtype=np.float64), labels).item()
        want = supcon_loss_naive(z, labels)
        assert abs(got - want) < 1e-6


def test_supcon_oracle_empty_and_two_code_rows():
    z = random_unit_rows(np.random.default_rng(8), 5, 4)
    labels = [frozenset(), frozenset({"A", "B"}), frozenset({"A"}),
              frozenset({"B"}), frozenset({"C"})]
    got = supcon_loss(Tensor(z, dtype=np.float64), labels).item()
    assert abs(got - supcon_loss_naive(z, labels)) < 1e-6


def test_supcon_batch_permutation_invariant():
    rng = np.random.default_rng(5)
    z = random_unit_rows(rng, 6, 4)
    labels = [frozenset({c}) for c in "AABBCC"]
    base = supcon_loss(Tensor(z, dtype=np.float64), labels).item()
    perm = rng.permutation(6)
    permuted = supcon_loss(Tensor(z[perm], dtype=np.float64),
                           [labels[i] for i in perm]).item()
    assert permuted == pytest.approx(base, abs=1e-6)


def test_supcon_gradcheck():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 3))
    labels = [frozenset({"A"}), frozenset({"A"}),
              frozenset({"B"}), frozenset({"B"})]

    def loss(leaves):
        return supcon_loss(T.l2_normalize(leaves[0]), labels)

    finite_diff_check(loss, [raw])


def test_supcon_rejects_non_unit_rows():
    z = np.ones((2, 3))
    with pytest.raises(DataError, match="unit-norm"):
        supcon_loss(Tensor(z), [frozenset({"A"})] * 2)


def test_supcon_rejects_small_batch():
    with pytest.raises(DataError, match="batch"):
        supcon_loss(Tensor(np.ones((1, 3))), [frozenset({"A"})])


def test_supcon_no_positive_anchors_zero():
    rng = np.random.default_rng(2)
    z = random_unit_rows(rng, 3, 4)
    labels = [frozenset({"A"}), frozenset({"B"}), frozenset({"C"})]
    assert supcon_loss(Tensor(z, dtype=np.float64), labels).item() == 0.0


def _mini_segments(n_classes=3, patients=4):
    specs = builtin_class_specs()[:n_classes]
    records = generate_corpus(specs, patients, 1, seed=0, duration=5.0)
    return Segments.concat(segment_record(rec) for rec in records)


def test_pretrain_loss_decreases():
    segs = _mini_segments()
    config = PretrainConfig(batch_size=32, epochs=4, seed=0)
    _, _, history = pretrain(segs[:120], config)
    assert history[-1] < history[0]


def test_pretrain_single_class_bounded_by_uniform_floor():
    # with every sample sharing one label the loss cannot drop below
    # log(2B - 1), the value reached when all embeddings coincide
    segs = _mini_segments(n_classes=1, patients=3)
    config = PretrainConfig(batch_size=16, epochs=1, seed=0)
    _, _, history = pretrain(segs[:48], config)
    assert np.isfinite(history[0])
    assert history[0] >= 0.0
    assert history[0] < np.log(2 * 16 - 1) + 0.5


def test_pretrain_requires_labels():
    segs = _mini_segments()[:10]
    unlabeled = Segments(w=segs.w, record_id=segs.record_id,
                         start=segs.start, fold=segs.fold,
                         labels=[frozenset()] * len(segs))
    with pytest.raises(DataError, match="high-confidence"):
        pretrain(unlabeled, PretrainConfig(epochs=1))


def test_embed_deterministic_and_permutation_equivariant():
    segs = _mini_segments()[:20]
    enc = Encoder(seed=0)
    h1 = embed_all(segs, enc)
    h2 = embed_all(segs, enc)
    np.testing.assert_array_equal(h1, h2)
    perm = np.random.default_rng(0).permutation(len(segs))
    h3 = embed_all(segs[perm], enc)
    np.testing.assert_allclose(h3, h1[perm], atol=1e-5)
    assert h1.shape == (20, 128)


def test_embed_empty():
    h = embed_all([], Encoder(seed=0))
    assert h.shape == (0, 128)
