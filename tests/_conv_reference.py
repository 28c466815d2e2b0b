"""conv1d's numpy references for the shapes of `nn`, and the rows of
`test_tensor.test_conv1d_bit_identical_to_pad_window_im2col`.

    PYTHONPATH=src python3 tests/_conv_reference.py

checks every row of that test and prints one JSON object: each row's id
mapped to null, or to why it failed. The test runs it once at one and
once at two OpenBLAS threads (OPENBLAS_NUM_THREADS), since OpenBLAS
reads its thread count when it loads. It imports only numpy and
`ecgrecon.tensor`, so each run starts fast.
"""

import json

import numpy as np

from ecgrecon import tensor as T
from ecgrecon.tensor import Tensor


def pad_window_reference(x, w, b, stride, padding, g):
    """conv1d as an np.pad + sliding_window_view im2col, summed in the
    order `conv1d` sums: the output, and the x, w and b gradients of
    sum(output * g). The weight gradient is `g2 @ col.T`, where `conv1d`
    takes `(col @ g2.T).T`: the two orientations are bit-identical on
    OpenBLAS's kernels, which this reference keeps checked. The input
    gradient is a transposed convolution at stride 1 with Cout < Cin, a
    per-tap scatter otherwise."""
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)[:, :, ::stride, :]
    t_out = win.shape[2]
    cols = win.transpose(0, 1, 3, 2).reshape(B, Cin * K, t_out)
    out = np.matmul(w.reshape(Cout, Cin * K), cols)
    out += b[None, :, None]
    gw = (g.transpose(1, 0, 2).reshape(Cout, B * t_out)
          @ win.transpose(1, 3, 0, 2).reshape(Cin * K, B * t_out).T).reshape(Cout, Cin, K)
    gb = np.sum(g, axis=(0, 2), dtype=np.float64).astype(g.dtype)
    if stride == 1 and Cout < Cin:
        gp = np.pad(g, ((0, 0), (0, 0), (K - 1, K - 1)))[:, :, padding:padding + T + K - 1]
        gwin = np.lib.stride_tricks.sliding_window_view(gp, K, axis=2)
        w_flip = w[:, :, ::-1].transpose(1, 0, 2).reshape(Cin, Cout * K)
        gx = np.matmul(w_flip, gwin.transpose(0, 1, 3, 2).reshape(B, Cout * K, T))
    else:
        gx = per_tap_grads(x, w, stride, padding, g)[0]
    return out, gx, gw, gb


def per_tap_grads(x, w, stride, padding, g):
    """The x and w gradients of sum(conv1d(x, w) * g) as sums over the
    kernel taps: one [Cin, Cout] matmul per tap, and a tensordot."""
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)[:, :, ::stride, :]
    t_out = win.shape[2]
    gw = np.tensordot(g, win, axes=([0, 2], [0, 2]))
    gxp = np.zeros_like(xp)
    w_taps = w.T.copy()
    for k in range(K):
        gxp[:, :, k:k + stride * t_out:stride] += np.matmul(w_taps[k], g)
    return gxp[:, :, padding:padding + T], gw


# (batch, in channels, length, out channels, kernel, stride, padding, input
# is a view): the encoder's four convs, the decoder's two, at batch 1 too,
# and padding 0, which reads the input in place, on a non-contiguous view
NN_CONVS = {"enc0": (4, 3, 256, 32, 7, 2, 3, False), "enc2": (4, 32, 128, 64, 5, 2, 2, False),
            "enc4": (4, 64, 64, 128, 3, 2, 1, False), "enc6": (4, 128, 32, 128, 3, 1, 1, False),
            "temp1": (4, 32, 256, 16, 5, 1, 2, False), "temp2": (4, 16, 256, 1, 5, 1, 2, False),
            "enc0-b1": (1, 3, 256, 32, 7, 2, 3, False),
            "temp1-b1": (1, 32, 256, 16, 5, 1, 2, False),
            "pad0-view": (3, 5, 40, 6, 3, 2, 0, True),
            "pointwise-view": (3, 5, 40, 6, 1, 1, 0, True),
            # batches whose forward spans several row blocks and ends in a
            # partial one (test_conv1d_rows_span_several_blocks)
            "temp1-b13": (13, 32, 256, 16, 5, 1, 2, False),
            "enc6-b40": (40, 128, 32, 128, 3, 1, 1, False),
            "pad0-view-b1000": (1000, 5, 40, 6, 3, 2, 0, True)}


# max |got - ref| / max |ref| allowed between the x and w gradients and
# their per-tap sums, which add the same terms in another order
GRAD_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


def check_against_pad_window_im2col(conv, dtype):
    B, cin, t, cout, k, stride, padding, view = NN_CONVS[conv]
    rng = np.random.default_rng(k * 100 + cin)
    if view:    # a sliced transpose: no axis is contiguous
        x = rng.normal(size=(B, t + 3, cin + 2)).astype(dtype).transpose(0, 2, 1)[:, 1:-1, 2:-1]
    else:
        x = rng.normal(size=(B, cin, t)).astype(dtype)
    w = rng.normal(size=(cout, cin, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b))
    out = T.conv1d(xt, wt, bt, stride=stride, padding=padding)
    g = rng.normal(size=out.shape).astype(dtype)
    T.tensor_sum(T.mul(out, Tensor(g, dtype=dtype))).backward()
    want = pad_window_reference(x, w, b, stride, padding, g)
    for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)
    for got, ref in zip((xt.grad, wt.grad), per_tap_grads(x, w, stride, padding, g)):
        assert np.abs(got - ref).max() <= GRAD_RTOL[dtype] * np.abs(ref).max()


def main():
    """Print {row id: None, or why the row failed} for every row of
    test_conv1d_bit_identical_to_pad_window_im2col, as JSON."""
    failures = {}
    for conv in NN_CONVS:
        for dtype in (np.float32, np.float64):
            try:
                check_against_pad_window_im2col(conv, dtype)
                failures[f"{conv}-{dtype.__name__}"] = None
            except AssertionError as exc:
                failures[f"{conv}-{dtype.__name__}"] = str(exc) or "assertion failed"
    print(json.dumps(failures))


if __name__ == "__main__":
    main()
