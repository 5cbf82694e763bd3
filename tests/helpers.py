"""Shared test utilities: central finite-difference gradient checking and
the composed multi-head attention reference."""

import numpy as np

from handmesh import autograd as ag


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


def attention_composed(qkv, heads):
    """Multi-head attention built from reshape/transpose/getitem/matmul/softmax
    tape primitives: the reference for the fused `ag.attention`."""
    b, n, c3 = qkv.shape
    c = c3 // 3
    dh = c // heads
    qkv = ag.reshape(qkv, (b, n, 3, heads, dh))
    qkv = ag.transpose(qkv, (2, 0, 3, 1, 4))  # (3, B, heads, N, dh)
    q, k, v = qkv[0], qkv[1], qkv[2]
    att = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2)))
    att = ag.softmax(ag.mul(att, 1.0 / np.sqrt(dh)), axis=-1)
    y = ag.matmul(att, v)  # (B, heads, N, dh)
    return ag.reshape(ag.transpose(y, (0, 2, 1, 3)), (b, n, c))
