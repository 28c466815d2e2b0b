"""Dense tensors with tape-based reverse-mode automatic differentiation.

Storage is 32-bit float by default; reductions accumulate in 64-bit and
cast back. A whole graph can be evaluated in float64 (pass dtype to the
leaf tensors) for finite-difference shadow checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sum64(a, axis=None, keepdims=False):
    """Sum with 64-bit accumulation, cast back to the input dtype."""
    return np.sum(a, axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)


class Tensor:
    """A dense array node in the autodiff tape."""

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        """Add `g` into .grad. No gradient is ever written in place, so a
        first gradient is kept as it is, even when it is a view of another
        node's gradient, and a later one is summed into a new array."""
        g = np.asarray(g, dtype=self.dtype)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Reverse sweep from a scalar; populates .grad on reachable leaves.

        The sweep consumes the graph: once a node's closure has run, the
        node drops its gradient, closure and parents, so each intermediate
        array dies as soon as nothing downstream needs it. Afterwards only
        leaves that require grad, and this root, hold a .grad, and this
        root has no parents; `backward` runs once per graph.
        """
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:     # a leaf
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = None, ()
            if node is not self:
                node.grad = None
        if not self.requires_grad:
            self.grad = None

    def item(self):
        return float(self.data.reshape(()))


def _make(data, parents, backward):
    """A node holding `data`. Only the parents that require grad are kept,
    so constants and inputs never enter `backward`'s sweep; with none, the
    node records no closure either."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out._parents else None
    return out


def _binary(a, b, fwd, bwd_a, bwd_b, name):
    """An elementwise op of tensor `a` and `b`, which may be a constant: a
    constant becomes a leaf of `a`'s dtype that takes no gradient."""
    if not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.dtype)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(name, a.shape, b.shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(bwd_a(g, a.data, b.data), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(bwd_b(g, a.data, b.data), b.shape))

    return _make(data, (a, b), backward)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g, "add")


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def power(a, exponent):
    e = float(exponent)

    def backward(g):
        a._accumulate(g * e * np.power(a.data, e - 1.0))

    return _make(np.power(a.data, e), (a,), backward)


def exp(a):
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return _make(data, (a,), backward)


def log(a):
    def backward(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a):
    data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / data)

    return _make(data, (a,), backward)


def absolute(a):
    def backward(g):
        a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def relu(a):
    data = np.maximum(a.data, 0)

    def backward(g):
        a._accumulate(g * (data > 0))

    return _make(data, (a,), backward)


def tensor_sum(a, axis=None, keepdims=False):
    data = _sum64(a.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward)


def mean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.shape)

    def backward(g):
        a._accumulate(g.T)

    return _make(a.data.T.copy(), (a,), backward)


def reshape(a, shape):
    old = a.shape

    def backward(g):
        a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis=1):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tuple(tensors), backward)


def _windows(x, k, stride, padding, t_out):
    """The windows of x [B, C, T] as one read-only strided view
    [B, C, k, t_out], laid out in the order conv1d's matmul reads them; x
    is zero-padded into a fresh buffer first when `padding > 0`."""
    if padding:
        xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * padding,), dtype=x.dtype)
        xp[:, :, padding:-padding] = x
        x = xp
    sb, sc, st = x.strides
    return np.lib.stride_tricks.as_strided(x, x.shape[:2] + (k, t_out),
                                           (sb, sc, st, st * stride), writeable=False)


# Bytes of the padded copy and im2col copy that one block of conv1d's
# forward builds. At 256 rows the whole-batch copies were 12.6 MB for the
# encoder's last conv and 42 MB for the decoder's temp1. With blocks of
# this size a frozen forward at 256 rows traced 9.0 MiB at its peak, not
# 20.3, for the Encoder and 16.0, not 56.1, for a LeadDecoder, and ran no
# slower than the whole-batch copy (2-CPU host, one BLAS thread); at
# 256 KiB the Encoder ran about 10% slower than at 1 MiB.
CONV_BLOCK_BYTES = 2 ** 20


def conv1d(x, w, b=None, stride=1, padding=0, relu=False):
    """1-D convolution: x [B, Cin, T], w [Cout, Cin, K], b [Cout]; with
    `relu`, followed by max(., 0) as part of the same op.

    One im2col matmul for every kernel size, stride and padding: the
    weight as [Cout, Cin*K] times the windows (`_windows`) as
    [B, Cin*K, t_out]. The forward builds those windows for one block of
    rows at a time, as many as fit their padded and column copies in
    `CONV_BLOCK_BYTES` (at least one), and multiplies each block into its
    rows of one preallocated output. numpy runs a stacked matmul as one
    GEMM per row, so the output is bit-identical to one whole-batch
    matmul. The relu clamps that output in place, so the op stores one
    array, and its backward masks g by `out > 0`. The tape keeps x, not
    its padded copy or windows: the backward rebuilds the windows from
    `x.data`, which costs one copy of x when `padding > 0`.

    The backward takes the weight gradient as one GEMM for every shape,
    `(col @ g2.T).T`: the windows' column copy col [Cin*K, B*t_out] times
    g2, g as [Cout, B*t_out], transposed. It is bit-identical to
    `g2 @ col.T` on OpenBLAS's kernels and no slower on any shape of `nn`
    (`temp1`: 1.29 -> 0.67 ms at one BLAS thread). The copies are made
    in turn: col first, so the padded copy of x dies before the GEMM,
    then g2; both are freed before the input gradient. The GEMM is not
    blocked: a sum of GEMMs over row blocks or taps re-associates its
    sums. At stride 1 with Cout < Cin the input gradient is a transposed
    convolution: the flipped kernel as [Cin, Cout*K] times the windows of
    g zero-padded by K - 1, one matmul. Other shapes scatter one
    [Cin, Cout] matmul per tap, which measured faster there. Both
    gradients differ from a per-tap sum by float re-association only
    (within 1e-5 of their largest value in float32).
    """
    if x.data.ndim != 3 or w.data.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv1d", x.shape, w.shape)
    B, Cin, T = x.shape
    Cout, _, K = w.shape
    t_out = (T + 2 * padding - K) // stride + 1
    if t_out < 1:
        raise ShapeError("conv1d", x.shape, w.shape)
    w2 = w.data.reshape(Cout, Cin * K)
    data = np.empty((B, Cout, t_out), dtype=np.result_type(w.data, x.data))
    row_bytes = x.data.itemsize * Cin * ((T + 2 * padding if padding else 0) + K * t_out)
    rows = max(1, CONV_BLOCK_BYTES // row_bytes)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        np.matmul(w2, _windows(x.data[lo:hi], K, stride, padding, t_out)
                  .reshape(hi - lo, Cin * K, t_out), out=data[lo:hi])
    if b is not None:
        data += b.data[None, :, None]
    if relu:
        np.maximum(data, 0, out=data)

    def backward(g):
        if relu:
            g = g * (data > 0)
        if w.requires_grad:
            # the padded copy dies once the columns are built, and the
            # columns and g2 before the input gradient
            col = (_windows(x.data, K, stride, padding, t_out)
                   .transpose(1, 2, 0, 3).reshape(Cin * K, B * t_out))
            g2 = g.transpose(1, 0, 2).reshape(Cout, B * t_out)
            w._accumulate((col @ g2.T).T.reshape(Cout, Cin, K))
            del col, g2
        if b is not None and b.requires_grad:
            b._accumulate(_sum64(g, axis=(0, 2)))
        if not x.requires_grad:
            return
        if stride == 1 and Cout < Cin:
            # transposed convolution: the flipped kernel over g padded by K - 1
            gwin = _windows(g, K, 1, K - 1, t_out + K - 1)[:, :, :, padding:padding + T]
            w_flip = w.data[:, :, ::-1].transpose(1, 0, 2).reshape(Cin, Cout * K)
            x._accumulate(np.matmul(w_flip, gwin.reshape(B, Cout * K, T)))
        else:
            gxp = np.zeros((B, Cin, T + 2 * padding), dtype=x.data.dtype)
            w_taps = w.data.T.copy()   # [K, Cin, Cout]: each tap contiguous for BLAS
            for k in range(K):
                gxp[:, :, k:k + stride * t_out:stride] += np.matmul(w_taps[k], g)
            x._accumulate(gxp[:, :, padding:padding + T])

    parents = (x, w) if b is None else (x, w, b)
    return _make(data, parents, backward)


def fused_projection(x, h, wx, bx, wh, bh, wf, bf):
    """The decoder's fusion block and its relu, `relu(conv1d(concat(
    [conv1d(x, wx, bx), broadcast_over_time(h @ wh + bh)]), wf, bf))`, as
    one op.

    x [B, Cx, T], h [B, D]; wx [P, Cx, 1], bx [P]; wh [D, Q], bh [Q];
    wf [F, P + Q, 1], bf [F] -> [B, F, T]. No nonlinearity sits between
    the layers, so with wf = [Wf_x | Wf_h] split on its input channels the
    block is (Wf_x Wx) x plus a per-row constant over time, and the
    [B, P + Q, T] concat is never built. The relu clamps that output in
    place, as `conv1d(relu=True)` does, so the op stores one array, and
    its backward masks g by `out > 0`. Results differ from the unfused
    graph by float re-association only.
    """
    if (x.data.ndim != 3 or h.data.ndim != 2 or x.shape[0] != h.shape[0]
            or wx.data.ndim != 3 or wx.shape[1:] != (x.shape[1], 1)
            or wh.data.ndim != 2 or wh.shape[0] != h.shape[1]
            or wf.data.ndim != 3
            or wf.shape[1:] != (wx.shape[0] + wh.shape[1], 1)):
        raise ShapeError("fused_projection", x.shape, h.shape, wx.shape,
                         wh.shape, wf.shape)
    p = wx.shape[0]
    wx2 = wx.data[:, :, 0]                  # [P, Cx]
    wf_x, wf_h = wf.data[:, :p, 0], wf.data[:, p:, 0]
    a = wf_x @ wx2                          # [F, Cx]
    hp = h.data @ wh.data + bh.data         # [B, Q]
    c = hp @ wf_h.T + (wf_x @ bx.data + bf.data)
    data = np.matmul(a, x.data)
    data += c[:, :, None]
    np.maximum(data, 0, out=data)

    def backward(g):
        g = g * (data > 0)
        s = _sum64(g, axis=2)               # [B, F]
        s_b = _sum64(s, axis=0)             # [F]
        gx = np.tensordot(g, x.data, axes=([0, 2], [0, 2]))    # [F, Cx]
        if wx.requires_grad:
            wx._accumulate((wf_x.T @ gx)[:, :, None])
        if bx.requires_grad:
            bx._accumulate(wf_x.T @ s_b)
        if wf.requires_grad:
            gwf = np.concatenate([gx @ wx2.T + np.outer(s_b, bx.data), s.T @ hp],
                                 axis=1)
            wf._accumulate(gwf[:, :, None])
        if bf.requires_grad:
            bf._accumulate(s_b)
        ghp = s @ wf_h                      # [B, Q]
        if wh.requires_grad:
            wh._accumulate(h.data.T @ ghp)
        if bh.requires_grad:
            bh._accumulate(s_b @ wf_h)
        if h.requires_grad:
            h._accumulate(ghp @ wh.data.T)
        if x.requires_grad:
            x._accumulate(np.matmul(a.T, g))

    return _make(data, (x, h, wx, bx, wh, bh, wf, bf), backward)


def global_avg_pool(x):
    """Mean over the time axis: [B, C, T] -> [B, C]."""
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool", x.shape)
    return mean(x, axis=2)


def broadcast_over_time(v, t):
    """Tile a [B, C] tensor to [B, C, T]."""
    if v.data.ndim != 2:
        raise ShapeError("broadcast_over_time", v.shape)
    data = np.broadcast_to(v.data[:, :, None], v.shape + (t,)).copy()

    def backward(g):
        v._accumulate(_sum64(g, axis=2))

    return _make(data, (v,), backward)


def l2_normalize(x, eps=1e-12):
    """Normalize rows of the last axis to unit L2 norm."""
    sq = tensor_sum(mul(x, x), axis=-1, keepdims=True)
    norm = sqrt(add(sq, eps))
    return mul(x, power(norm, -1.0))
