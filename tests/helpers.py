"""Shared test utilities: central finite-difference gradient checking, the
ReLU and indexing nodes and the composed multi-head attention that fused
nodes are checked against, and the per-joint input renderer."""

import numpy as np
from scipy.ndimage import gaussian_filter

from handmesh import autograd as ag
from handmesh.synth import HEATMAP_SIGMA, IMAGE_SIZE, NUM_JOINTS


def fd_gradcheck(fn, tensors, step=1e-5, rng=None, max_checks=64):
    """Max relative error between tape gradients and central differences.

    fn maps the tensors to a scalar Tensor. Analytic gradients come from
    one taped forward/backward; finite differences re-run fn outside any
    tape. Relative error is |analytic - fd| / max(1, |fd|) so near-zero
    gradients are compared absolutely.
    """
    for t in tensors:
        assert t.dtype == np.float64, "gradcheck needs float64 inputs"
    with ag.Tape() as tape:
        loss = fn(*tensors)
        tape.backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for t in tensors]
    worst = 0.0
    for t, analytic in zip(tensors, grads):
        if not t.requires_grad:
            continue
        if analytic is None:
            analytic = np.zeros_like(t.data)
        if t.size <= max_checks or rng is None:
            flat_idxs = np.arange(t.size)
        else:
            flat_idxs = rng.choice(t.size, size=max_checks, replace=False)
        for i in flat_idxs:
            idx = np.unravel_index(i, t.data.shape)
            keep = t.data[idx]
            t.data[idx] = keep + step
            hi = float(fn(*tensors).data)
            t.data[idx] = keep - step
            lo = float(fn(*tensors).data)
            t.data[idx] = keep
            fd = (hi - lo) / (2.0 * step)
            rel = abs(analytic[idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    return worst


def relu(x):
    """max(x, 0) as a tape node of its own: the reference for the ReLU that
    `ag.conv2d(..., relu=True)` fuses into the conv."""
    def backward_fn(g):
        ag._accum(x, g * (x.data > 0))

    return ag._node(np.maximum(x.data, 0), backward_fn, x)


def getitem(x, key):
    """x[key] as a tape node: the indexing step of `attention_composed`."""
    def backward_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        ag._accum(x, gx)

    return ag._node(x.data[key].copy(), backward_fn, x)


def attention_composed(qkv, heads):
    """Multi-head attention built from reshape/transpose/getitem/matmul/softmax
    tape primitives: the reference for the fused `ag.attention`."""
    b, n, c3 = qkv.shape
    c = c3 // 3
    dh = c // heads
    qkv = ag.reshape(qkv, (b, n, 3, heads, dh))
    qkv = ag.transpose(qkv, (2, 0, 3, 1, 4))  # (3, B, heads, N, dh)
    q, k, v = (getitem(qkv, i) for i in range(3))
    att = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2)))
    att = ag.softmax(ag.mul(att, 1.0 / np.sqrt(dh)))
    y = ag.matmul(att, v)  # (B, heads, N, dh)
    return ag.reshape(ag.transpose(y, (0, 2, 1, 3)), (b, n, c))


def render_input_loop(J_2d, V_2d, size=IMAGE_SIZE, sigma=HEATMAP_SIGMA):
    """The input renderer with one Gaussian heatmap per loop pass, in
    float64: the reference for the broadcast `synth.render_input`."""
    grid = np.arange(size, dtype=np.float64)
    out = np.zeros((NUM_JOINTS + 1, size, size))
    for j in range(NUM_JOINTS):
        u, v = J_2d[j]
        gx = np.exp(-0.5 * ((grid - u) / sigma) ** 2)
        gy = np.exp(-0.5 * ((grid - v) / sigma) ** 2)
        out[j] = gy[:, None] * gx[None, :]
    counts = np.zeros((size, size))
    ix = np.clip(V_2d[:, 0].round().astype(int), 0, size - 1)
    iy = np.clip(V_2d[:, 1].round().astype(int), 0, size - 1)
    np.add.at(counts, (iy, ix), 1.0)
    blur = gaussian_filter(counts, sigma=3.0)
    out[NUM_JOINTS] = blur / blur.max()
    return out
