import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecgrecon import tensor as T
from ecgrecon.contrastive import supcon_loss
from ecgrecon.errors import ShapeError
from ecgrecon.nn import (Encoder, LeadDecoder, ProjectionHead, load_checkpoint,
                         save_checkpoint)
from ecgrecon.optim import AdamW
from ecgrecon.tensor import Tensor

from _conv_reference import NN_CONVS
from _utils import finite_diff_check


def test_identity_conv_passthrough():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)).astype(np.float32))
    w = Tensor(np.eye(3, dtype=np.float32)[:, :, None])
    y = T.conv1d(x, w)
    np.testing.assert_allclose(y.data, x.data, atol=1e-6)


def test_l2_normalize_three_four_five():
    v = Tensor(np.array([[3.0, 4.0]], dtype=np.float32))
    out = T.l2_normalize(v)
    np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-6)


def test_global_avg_pool_value():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32))
    assert T.global_avg_pool(x).data[0, 0] == pytest.approx(2.5)


def test_sum_of_squares_grad():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    loss = T.tensor_sum(T.mul(w, w))
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0])


def test_unreachable_parameter_keeps_zero_grad():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    other = Tensor(np.array([3.0]), requires_grad=True)
    loss = T.tensor_sum(T.mul(w, w))
    loss.backward()
    assert other.grad is None


def test_shape_mismatch_names_operation():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(a, b)
    with pytest.raises(ShapeError, match="conv1d"):
        T.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((4, 3, 3))))


def test_conv1d_matches_manual_small_case():
    x = np.arange(6, dtype=np.float64).reshape(1, 1, 6)
    w = np.array([[[1.0, 0.0, -1.0]]])
    y = T.conv1d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64)).data
    expect = [x[0, 0, i] - x[0, 0, i + 2] for i in range(4)]
    np.testing.assert_allclose(y[0, 0], expect)


# (kernel, stride, padding) of every conv in nn, plus a strided pointwise one
CONV_SHAPES = [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2),
               (7, 2, 3)]
CONV_CASES = ([pytest.param(seed, 3, 2, 1, id=str(seed)) for seed in range(5)]
              + [pytest.param(0, k, s, p, id=f"k{k}-s{s}-p{p}")
                 for k, s, p in CONV_SHAPES if (k, s, p) != (3, 2, 1)])


def _conv1d_reference(x, w, b, stride, padding):
    """Direct sum in float64: out[b, o, t] = bias[o] + sum_{c,k} w[o, c, k] x[b, c, t*s + k - p]."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    cout, cin, K = w.shape
    t_out = (xp.shape[2] - K) // stride + 1
    out = np.zeros((x.shape[0], cout, t_out))
    for n in range(x.shape[0]):
        for o in range(cout):
            for t in range(t_out):
                out[n, o, t] = b[o] + np.sum(w[o] * xp[n, :, t * stride:t * stride + K])
    return out


@pytest.mark.parametrize("seed, k, stride, padding", CONV_CASES)
def test_conv1d_gradcheck(seed, k, stride, padding):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 10))
    w = rng.normal(size=(4, 3, k))
    b = rng.normal(size=4)
    t_out = (10 + 2 * padding - k) // stride + 1
    proj = rng.normal(size=(2, 4, t_out))

    def loss(leaves):
        out = T.conv1d(leaves[0], leaves[1], leaves[2], stride=stride, padding=padding)
        return T.tensor_sum(T.mul(out, Tensor(proj, dtype=np.float64)))

    finite_diff_check(loss, [x, w, b])


@pytest.mark.parametrize("k, stride, padding", CONV_SHAPES)
def test_conv1d_forward_matches_direct_sum(k, stride, padding):
    rng = np.random.default_rng(k * 10 + stride)
    x = rng.normal(size=(3, 5, 17)).astype(np.float32)
    w = rng.normal(size=(6, 5, k)).astype(np.float32)
    b = rng.normal(size=6).astype(np.float32)
    got = T.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    want = _conv1d_reference(x.astype(np.float64), w.astype(np.float64),
                             b.astype(np.float64), stride, padding)
    assert got.data.dtype == np.float32 and got.data.flags.c_contiguous
    np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)


BLOCKED_CONVS = ("temp1-b13", "enc6-b40", "pad0-view-b1000")


def _block_rows(cin, t, k, stride, padding, itemsize):
    """The rows of one block of conv1d's forward: as many as fit their
    padded copy and column copy in T.CONV_BLOCK_BYTES, at least one."""
    t_out = (t + 2 * padding - k) // stride + 1
    return max(1, T.CONV_BLOCK_BYTES // (itemsize * cin * ((t + 2 * padding if padding else 0)
                                                            + k * t_out)))


@pytest.mark.parametrize("itemsize", [4, 8], ids=["float32", "float64"])
@pytest.mark.parametrize("conv", BLOCKED_CONVS)
def test_conv1d_rows_span_several_blocks(conv, itemsize):
    # so that their rows of the bit-identity test check the blocked forward
    B, cin, t, _, k, stride, padding, _ = NN_CONVS[conv]
    rows = _block_rows(cin, t, k, stride, padding, itemsize)
    assert B > rows and B % rows, f"{B} rows make {B / rows:.2f} blocks of {rows}"


@pytest.fixture(scope="module")
def pad_window_im2col_rows():
    """{BLAS threads: {row id: None, or why it failed}}: every row checked
    at one and at two OpenBLAS threads, each count in an interpreter of
    its own, since OpenBLAS reads its thread count when it loads."""
    script = Path(__file__).resolve().parent / "_conv_reference.py"
    env = dict(os.environ, PYTHONPATH=str(script.parent.parent / "src"))
    rows = {}
    for threads in (1, 2):
        run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=dict(env, OPENBLAS_NUM_THREADS=str(threads)), check=True)
        rows[threads] = json.loads(run.stdout)
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("conv", list(NN_CONVS))
def test_conv1d_bit_identical_to_pad_window_im2col(conv, dtype, pad_window_im2col_rows):
    for threads, rows in pad_window_im2col_rows.items():
        failure = rows[f"{conv}-{dtype.__name__}"]
        assert failure is None, f"{threads} BLAS thread(s): {failure}"


def _output_and_grads(op, arrays, g, dtype):
    """The output and the leaf gradients of sum(op(leaves) * g)."""
    leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    out = op(*leaves)
    T.tensor_sum(T.mul(out, Tensor(g, dtype=dtype))).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("conv", ["enc0", "enc2", "enc4", "enc6", "temp1", "temp1-b1"])
def test_conv1d_relu_bit_identical_to_conv1d_then_relu(conv, dtype):
    # every encoder conv (per-tap input gradient) and temp1 (transposed
    # convolution), whose pre-activations straddle the hinge
    B, cin, t, cout, k, stride, padding, _ = NN_CONVS[conv]
    rng = np.random.default_rng(k * 100 + cin)
    arrays = [rng.normal(size=s).astype(dtype) for s in ((B, cin, t), (cout, cin, k), (cout,))]
    t_out = (t + 2 * padding - k) // stride + 1
    g = rng.normal(size=(B, cout, t_out)).astype(dtype)
    fused = _output_and_grads(
        lambda x, w, b: T.conv1d(x, w, b, stride=stride, padding=padding, relu=True),
        arrays, g, dtype)
    unfused = _output_and_grads(
        lambda x, w, b: T.relu(T.conv1d(x, w, b, stride=stride, padding=padding)),
        arrays, g, dtype)
    assert 0.2 < np.mean(fused[0] > 0) < 0.8
    for got, want in zip(fused, unfused):
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _graph_nodes(out):
    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_graph_without_grad_records_no_closures(tmp_path):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 8)))
    w = Tensor(rng.normal(size=(4, 3, 3)))
    h = Tensor(rng.normal(size=(2, 4)))
    out = T.conv1d(x, w, Tensor(np.zeros(4)), stride=1, padding=1)
    out = T.concat([T.relu(out), T.broadcast_over_time(h, 8)], axis=1)
    out = T.fused_projection(out, h, Tensor(rng.normal(size=(5, 8, 1))),
                             Tensor(np.zeros(5)), Tensor(rng.normal(size=(4, 3))),
                             Tensor(np.zeros(3)), Tensor(rng.normal(size=(8, 8, 1))),
                             Tensor(np.zeros(8)))
    loss = T.l2_normalize(T.matmul(T.global_avg_pool(out), Tensor(np.ones((8, 2)))))
    loss = T.tensor_sum(T.add(T.mul(T.exp(loss), 2.0),
                              T.mul(T.log(T.add(T.absolute(loss), 1.0)), -1.0)))
    assert _graph_nodes(loss) == [loss]
    assert not loss.requires_grad and loss._backward is None
    # a loaded checkpoint is frozen: its forward records no graph either,
    # and computes what the saved model computes
    x = Tensor(rng.normal(size=(2, 3, 256)))
    h = Tensor(rng.normal(size=(2, 128)))
    for model, inputs in ((Encoder(seed=1), (x,)), (LeadDecoder(seed=2), (x, h))):
        save_checkpoint(tmp_path / "model.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
        assert not any(p.requires_grad for p in loaded.parameters())
        out = loaded(*inputs)
        assert _graph_nodes(out) == [out] and out._backward is None
        np.testing.assert_array_equal(out.data, model(*inputs).data)


def test_backward_frees_the_tape_between_steps():
    # two pretrain steps as `contrastive.pretrain` runs them: the first
    # step's z and loss stay bound while the second step's forward runs
    rng = np.random.default_rng(0)
    encoder, head = Encoder(seed=0), ProjectionHead(seed=1)
    params = encoder.parameters() + head.parameters()
    opt = AdamW(params)
    labels = [{f"c{i % 4}"} for i in range(64)]
    batches = [rng.normal(size=(64, 3, 256)).astype(np.float32) for _ in range(2)]
    peaks = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for x in batches:
            tracemalloc.reset_peak()
            z = head(encoder(Tensor(x)))
            loss = supcon_loss(z, labels)
            opt.zero_grad()
            loss.backward()
            assert _graph_nodes(loss) == [loss]
            assert all(p.grad is not None for p in params)
            opt.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    # a graph kept alive after backward would stack under the next forward
    assert peaks[1] <= 1.25 * peaks[0]


def test_pretrain_step_peak_holds_one_large_copy_at_a_time():
    # one 256-row pretrain step peaks in trunk.6's backward, over the
    # forward tape's four 4 MiB relu outputs: its weight gradient builds
    # the 12 MiB column copy after the padded copy of x is gone, and drops
    # it and g's 4 MiB transposed copy before the input gradient. The
    # step traced 40.9 MiB while the padded copy lived beside the columns,
    # and 36.7 MiB with them freed in order.
    rng = np.random.default_rng(0)
    encoder, head = Encoder(seed=0), ProjectionHead(seed=1)
    opt = AdamW(encoder.parameters() + head.parameters())
    labels = [{f"c{i % 4}"} for i in range(256)]
    x = Tensor(rng.normal(size=(256, 3, 256)).astype(np.float32))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = supcon_loss(head(encoder(x)), labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 38.5 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB at the step's peak"


def test_encoder_forward_tape_holds_each_activation_once():
    # one pretrain-sized forward (256 rows, 128 view pairs): the tape keeps
    # the four 4 MiB relu outputs (16 MiB) and no conv output or padded copy
    encoder = Encoder(seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(256, 3, 256)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h = encoder(x)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert h.requires_grad and h.shape == (256, 128)
    assert live < 24 * 2 ** 20, f"{live / 2 ** 20:.1f} MiB live after the forward"


def test_frozen_decoder_forward_memory_bounded_by_the_block(tmp_path):
    """A frozen LeadDecoder forward holds the fusion block's output, which
    `fused_projection` clamps in place (one [B, 32, 256] float32 array),
    while temp1 writes its [B, 16, 256] output; temp1's and temp2's
    windows are built one CONV_BLOCK_BYTES block at a time, so the peak
    above those two arrays does not grow with the rows. At 256 rows that
    excess was 4.0 MiB while the fusion output and a separate relu of it
    were both alive, and 1.2 MiB with the relu inside the op. With one
    whole-batch im2col, temp1's [256, 160, 256] column copy and its padded
    input added about 40 MiB."""
    save_checkpoint(tmp_path / "decoder.ckpt", LeadDecoder(seed=3))
    decoder, _ = load_checkpoint(tmp_path / "decoder.ckpt")
    rng = np.random.default_rng(0)
    for rows in (256, 64):
        x = Tensor(rng.normal(size=(rows, 3, 256)))
        h = Tensor(rng.normal(size=(rows, 128)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = decoder(x, h)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, 256) and not out.requires_grad
        excess = peak - rows * (LeadDecoder.FUSION_CH + LeadDecoder.TEMPORAL_CH) * 256 * 4
        assert excess < 3 * T.CONV_BLOCK_BYTES, \
            f"{rows} rows: {excess / 2 ** 20:.1f} MiB above the fused and temp1 outputs"


ENCODER_DESCRIPTOR = {
    "type": "encoder", "embed_dim": 128,
    "trunk": {"type": "sequential", "layers": [
        {"type": "conv1d", "in_ch": 3, "out_ch": 32, "kernel": 7, "stride": 2, "padding": 3},
        {"type": "relu"},
        {"type": "conv1d", "in_ch": 32, "out_ch": 64, "kernel": 5, "stride": 2, "padding": 2},
        {"type": "relu"},
        {"type": "conv1d", "in_ch": 64, "out_ch": 128, "kernel": 3, "stride": 2, "padding": 1},
        {"type": "relu"},
        {"type": "conv1d", "in_ch": 128, "out_ch": 128, "kernel": 3, "stride": 1, "padding": 1},
        {"type": "relu"}]}}


@pytest.mark.parametrize("model, descriptor, params", [
    pytest.param(Encoder(), ENCODER_DESCRIPTOR, [
        ("trunk.0.weight", (32, 3, 7)), ("trunk.0.bias", (32,)),
        ("trunk.2.weight", (64, 32, 5)), ("trunk.2.bias", (64,)),
        ("trunk.4.weight", (128, 64, 3)), ("trunk.4.bias", (128,)),
        ("trunk.6.weight", (128, 128, 3)), ("trunk.6.bias", (128,))], id="encoder"),
    pytest.param(ProjectionHead(), {"type": "projection_head", "proj_dim": 64}, [
        ("proj.fc1.weight", (128, 128)), ("proj.fc1.bias", (128,)),
        ("proj.fc2.weight", (128, 64)), ("proj.fc2.bias", (64,))], id="projection"),
    pytest.param(LeadDecoder(lead="V4"), {"type": "lead_decoder", "lead": "V4",
                                          "fusion_ch": 32, "temporal_ch": 16}, [
        ("x_proj.weight", (128, 3, 1)), ("x_proj.bias", (128,)),
        ("h_proj.weight", (128, 128)), ("h_proj.bias", (128,)),
        ("fusion.weight", (32, 256, 1)), ("fusion.bias", (32,)),
        ("temp1.weight", (16, 32, 5)), ("temp1.bias", (16,)),
        ("temp2.weight", (1, 16, 5)), ("temp2.bias", (1,))], id="decoder"),
])
def test_model_descriptor_and_parameter_order(model, descriptor, params):
    # the checkpoint's architecture descriptor and the order of its blob
    assert model.describe() == descriptor
    assert [(p.name, p.shape) for p in model.parameters()] == params
    assert all(p.requires_grad and p.dtype == np.float32 for p in model.parameters())


def test_pass_through_gradients_are_copied():
    # add, reshape and tensor_sum hand their parents a view of a gradient
    # that another node holds too: each add gives both its leaves one
    # array, and d's first gradient is a read-only broadcast view. No
    # gradient is written in place, so a's gradient from the other add
    # cannot land in b's or c's, and d's second gradient is summed into a
    # new array.
    rng = np.random.default_rng(3)
    p = Tensor(rng.normal(size=6), dtype=np.float64)
    q = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)

    def loss(leaves):
        a, b, c, d = leaves
        ab = T.tensor_sum(T.mul(T.reshape(T.add(a, b), (6,)), p))
        ac = T.tensor_sum(T.mul(T.add(a, c), q))
        return T.add(T.add(ab, ac), T.mul(T.tensor_sum(d), T.tensor_sum(d)))

    finite_diff_check(loss, [rng.normal(size=(2, 3)) for _ in range(3)]
                      + [rng.normal(size=4)])


@pytest.mark.parametrize("seed", range(5))
def test_composite_graph_gradcheck(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def loss(leaves):
        out = T.relu(T.matmul(leaves[0], leaves[1]))
        out = T.l2_normalize(T.add(out, 0.5))
        return T.add(T.mean(T.mul(out, out)),
                     T.mul(T.tensor_sum(T.absolute(leaves[0])), 0.1))

    finite_diff_check(loss, [x, w])


def test_broadcast_over_time_and_concat_grad():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(2, 3))
    x = rng.normal(size=(2, 3, 4))
    proj = rng.normal(size=(2, 6, 4))

    def loss(leaves):
        tiled = T.broadcast_over_time(leaves[0], 4)
        cat = T.concat([tiled, leaves[1]], axis=1)
        return T.tensor_sum(T.mul(cat, Tensor(proj, dtype=np.float64)))

    finite_diff_check(loss, [v, x])


def _unfused_projection(x, h, wx, bx, wh, bh, wf, bf):
    """The decoder's fusion block and its relu as separate tape ops."""
    xp = T.conv1d(x, wx, bx)
    hp = T.broadcast_over_time(T.add(T.matmul(h, wh), bh), x.shape[2])
    return T.relu(T.conv1d(T.concat([xp, hp], axis=1), wf, bf))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("inputs_grad", [False, True], ids=["params", "inputs"])
def test_fused_projection_matches_unfused_graph(dtype, tol, inputs_grad):
    # decoder shapes: x [B, 3, T], h [B, 128] -> 128 + 128 channels -> 32
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=s) for s in
              [(4, 3, 32), (4, 128), (128, 3, 1), (128,), (128, 128), (128,),
               (32, 256, 1), (32,)]]
    proj = rng.normal(size=(4, 32, 32))

    def run(op):
        leaves = [Tensor(a, requires_grad=i >= 2 or inputs_grad, dtype=dtype)
                  for i, a in enumerate(arrays)]
        out = op(*leaves)
        T.tensor_sum(T.mul(out, Tensor(proj, dtype=dtype))).backward()
        return out.data, [l.grad for l in leaves]

    got, got_grads = run(T.fused_projection)
    want, want_grads = run(_unfused_projection)

    def rel(a, b):
        return np.max(np.abs(a.astype(np.float64) - b)) / np.max(np.abs(b))

    assert got.dtype == dtype and got.shape == want.shape
    assert 0.2 < np.mean(got > 0) < 0.8
    assert rel(got, want) < tol
    for g, w in zip(got_grads, want_grads):
        if w is None:
            assert g is None
        else:
            assert g.dtype == dtype and g.shape == w.shape and rel(g, w) < tol
    assert (got_grads[0] is None) == (not inputs_grad)


def test_fused_projection_rejects_mismatched_shapes():
    z = lambda *s: Tensor(np.zeros(s))  # noqa: E731
    with pytest.raises(ShapeError, match="fused_projection"):
        # fusion expects 5 + 5 input channels, not 9
        T.fused_projection(z(2, 3, 6), z(2, 4), z(5, 3, 1), z(5), z(4, 5), z(5),
                           z(3, 9, 1), z(3))


BINARY_CONSTANTS = {
    "python-float": 0.3,
    "0d-array": np.array(-1.7, dtype=np.float32),
    "row": np.linspace(-1.0, 1.0, 5, dtype=np.float32)[None, :],
    "full": np.arange(15, dtype=np.float32).reshape(3, 5) / 7,
    "float64": np.arange(15, dtype=np.float64).reshape(3, 5) / 7 + 1e-9,
}


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("const", list(BINARY_CONSTANTS))
def test_binary_op_with_a_constant_operand(op, const):
    c = BINARY_CONSTANTS[const]
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    g = rng.normal(size=(3, 5)).astype(np.float32)
    out = getattr(T, op)(x, c)
    assert out.dtype == x.dtype == np.float32
    assert out._parents == (x,)
    T.tensor_sum(T.mul(out, Tensor(g))).backward()
    want = g if op == "add" else g * np.asarray(c, dtype=np.float32)
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, want)
    # the same constant as a leaf that takes no gradient
    leaf = Tensor(c, dtype=np.float32)
    y = Tensor(x.data, requires_grad=True)
    out = getattr(T, op)(y, leaf)
    T.tensor_sum(T.mul(out, Tensor(g))).backward()
    assert leaf.grad is None
    np.testing.assert_array_equal(y.grad, want)


def test_parents_are_only_tensors_that_take_a_gradient():
    # every op, with inputs and constants that take no gradient beside
    # parameters that do
    rng = np.random.default_rng(0)

    def leaf(*shape, grad=False):
        return Tensor(rng.normal(size=shape), requires_grad=grad)

    x, h = leaf(2, 3, 8), leaf(2, 4)
    w, b = leaf(4, 3, 3, grad=True), leaf(4)
    out = T.conv1d(x, w, b, stride=1, padding=1, relu=True)
    out = T.concat([T.relu(out), T.broadcast_over_time(h, 8)], axis=1)
    out = T.fused_projection(out, h, leaf(5, 8, 1, grad=True), leaf(5), leaf(4, 3),
                             leaf(3, grad=True), leaf(8, 8, 1), leaf(8, grad=True))
    out = T.matmul(T.global_avg_pool(out), leaf(8, 2))
    out = T.reshape(T.transpose(T.l2_normalize(out)), (4,))
    out = T.add(T.mul(T.exp(out), 2.0), T.mul(T.log(T.add(T.absolute(out), 1.0)), leaf(4)))
    loss = T.mean(T.add(T.power(T.sqrt(T.add(T.mul(out, out), 1.0)), 3.0), leaf(4)))
    nodes = _graph_nodes(loss)
    assert len(nodes) > 30
    for node in nodes:
        assert all(p.requires_grad for p in node._parents)
        assert (node._backward is None) == (not node._parents)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.mul(x, 2.0).backward()


def test_reduction_accumulates_in_float64():
    # 1 + 1e-8 repeated: float32 accumulation would lose the tail entirely
    x = Tensor(np.full(1000, 1.0 + 1e-4, dtype=np.float32))
    total = T.tensor_sum(x).item()
    assert total == pytest.approx(float(np.sum(x.data, dtype=np.float64)), rel=1e-7)
