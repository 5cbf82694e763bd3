"""Dense tensors with reverse-mode gradients on an explicit tape.

Everything the decoder differentiates through lives here: elementwise
arithmetic, matmul, softmax, multi-head attention, layer norm, conv2d /
transposed conv2d and bilinear point sampling. Forward math is plain
numpy; each primitive records a backward closure on the active Tape, and
Tape.backward replays the record in reverse execution order.

Outside a `with Tape():` block nothing is recorded, which doubles as
inference mode.

Convolutions build no column matrix. The padded input is folded
space-to-depth, so a stride-s conv becomes a stride-1 conv with ceil(k/s)
taps per axis, and each tap is one GEMM on a strided view of one sample's
fold. Three helpers (forward, input gradient, weight gradient) serve
conv2d and, as its adjoint, conv_transpose2d. Padded folds read float32
subnormals as zero, and each GEMM scales one operand by an exact power of
two so that products of tiny normal values stay normal (see _pow2).
"""

import numpy as np
from scipy.special import erf

_ACTIVE_TAPE = None

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense nd-array plus an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; all route through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def abs(self):
        return abs_(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


class Tape:
    """Execution-ordered computation record for one forward pass.

    While active, every primitive whose inputs carry requires_grad appends
    (output, backward_fn). backward(loss) seeds d(loss)/d(loss) = 1 and
    walks the record in reverse, so replay order is deterministic. Each
    output's gradient is dropped once its backward_fn has consumed it;
    leaves, which are never recorded outputs, keep theirs.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Accumulate gradients of a scalar loss into every recorded leaf."""
        if loss.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(self._nodes):
            if out.grad is None:
                continue
            backward_fn(out.grad)
            out.grad = None


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _record(out, backward_fn):
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE._nodes.append((out, backward_fn))


def _wants_grad(*tensors):
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in tensors)


def _accum(t, g):
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and shape primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a = _as_tensor(a, None)
    b = _as_tensor(b, a.dtype)
    out = Tensor(a.data + b.data, requires_grad=_wants_grad(a, b))

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    _record(out, backward_fn)
    return out


def sub(a, b):
    a = _as_tensor(a, None)
    b = _as_tensor(b, a.dtype)
    out = Tensor(a.data - b.data, requires_grad=_wants_grad(a, b))

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, -_unbroadcast(g, b.shape))

    _record(out, backward_fn)
    return out


def mul(a, b):
    a = _as_tensor(a, None)
    b = _as_tensor(b, a.dtype)
    out = Tensor(a.data * b.data, requires_grad=_wants_grad(a, b))

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    _record(out, backward_fn)
    return out


def sum_(x, axis=None, keepdims=False):
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), requires_grad=_wants_grad(x))

    def backward_fn(g):
        if axis is not None and not keepdims:
            ax = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, ax)
        _accum(x, np.broadcast_to(g, x.shape))

    _record(out, backward_fn)
    return out


def mean(x, axis=None, keepdims=False):
    n = x.size if axis is None else np.prod(
        [x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims), requires_grad=_wants_grad(x))

    def backward_fn(g):
        if axis is not None and not keepdims:
            ax = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, ax)
        _accum(x, np.broadcast_to(g, x.shape) / x.dtype.type(n))

    _record(out, backward_fn)
    return out


def abs_(x):
    out = Tensor(np.abs(x.data), requires_grad=_wants_grad(x))
    # subgradient at 0 is 0: np.sign(0) == 0
    sign = np.sign(x.data)

    def backward_fn(g):
        _accum(x, g * sign)

    _record(out, backward_fn)
    return out


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), requires_grad=_wants_grad(x))

    def backward_fn(g):
        _accum(x, g.reshape(x.shape))

    _record(out, backward_fn)
    return out


def transpose(x, axes=None):
    axes = tuple(axes) if axes else tuple(range(x.ndim - 1, -1, -1))
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)), requires_grad=_wants_grad(x))
    inv = np.argsort(axes)

    def backward_fn(g):
        _accum(x, g.transpose(inv))

    _record(out, backward_fn)
    return out


def getitem(x, key):
    out = Tensor(x.data[key].copy(), requires_grad=_wants_grad(x))

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        _accum(x, gx)

    _record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# matmul and nonlinearities
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), requires_grad=_wants_grad(a, b))

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    _record(out, backward_fn)
    return out


def cast(x, dtype):
    """Dtype conversion; the gradient is cast back to the input's dtype."""
    out = Tensor(x.data.astype(dtype), requires_grad=_wants_grad(x))

    def backward_fn(g):
        _accum(x, g.astype(x.dtype))

    _record(out, backward_fn)
    return out


def relu(x):
    out = Tensor(np.maximum(x.data, 0), requires_grad=_wants_grad(x))

    def backward_fn(g):
        _accum(x, g * (x.data > 0))

    _record(out, backward_fn)
    return out


def gelu(x):
    phi = 0.5 * (1.0 + erf(x.data * x.dtype.type(_INV_SQRT2)))
    out = Tensor(x.data * phi, requires_grad=_wants_grad(x))

    def backward_fn(g):
        dens = np.exp(-0.5 * x.data * x.data) * x.dtype.type(_INV_SQRT2PI)
        _accum(x, g * (phi + x.data * dens))

    _record(out, backward_fn)
    return out


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, requires_grad=_wants_grad(x))

    def backward_fn(g):
        _accum(x, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    _record(out, backward_fn)
    return out


def attention(qkv, heads):
    """Multi-head softmax(q k^T / sqrt(dh)) v: qkv (B, N, 3C) -> (B, N, C).

    The last axis of qkv holds q, k and v side by side, each split into
    `heads` blocks of dh = C / heads channels. Each (sample, head) runs on
    strided views of qkv: q k^T goes into one (N, N) block, which is
    scaled, max-shifted, exponentiated and normalised in place, so no
    (B, heads, N, N) temporary is ever made. Under a Tape the blocks are
    kept as the probabilities P for backward; without one a single
    (N, N) scratch block is reused.
    """
    if qkv.ndim != 3:
        raise ValueError(f"attention expects (B, N, 3C) input, got {qkv.shape}")
    if heads < 1 or qkv.shape[-1] % (3 * heads):
        raise ValueError(f"attention: last axis {qkv.shape[-1]} is not divisible by 3 * {heads} heads")
    bsz, n, c3 = qkv.shape
    c = c3 // 3
    dh = c // heads
    scale = qkv.dtype.type(1.0 / np.sqrt(dh))
    x = qkv.data.reshape(bsz, n, 3, heads, dh)
    requires_grad = _wants_grad(qkv)
    probs = np.empty((bsz, heads, n, n), x.dtype) if requires_grad else None
    scratch = None if requires_grad else np.empty((n, n), x.dtype)
    y = np.empty((bsz, n, heads, dh), x.dtype)
    for bi in range(bsz):
        for hi in range(heads):
            q, k, v = x[bi, :, :, hi].transpose(1, 0, 2)
            p = probs[bi, hi] if requires_grad else scratch
            np.matmul(q, k.T, out=p)
            p *= scale
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            np.matmul(p, v, out=y[bi, :, hi])
    out = Tensor(y.reshape(bsz, n, c), requires_grad=requires_grad)

    def backward_fn(g):
        g = g.reshape(bsz, n, heads, dh)
        gx = np.empty_like(x)
        dp = np.empty((n, n), x.dtype)
        # rowsum(P * dP) = rowsum(dy * y), an (N, dh) product in place of an (N, N) one
        rowsum = (g * y).sum(axis=-1)
        for bi in range(bsz):
            for hi in range(heads):
                q, k, v = x[bi, :, :, hi].transpose(1, 0, 2)
                gq, gk, gv = gx[bi, :, :, hi].transpose(1, 0, 2)
                gy = g[bi, :, hi]
                p = probs[bi, hi]
                np.matmul(p.T, gy, out=gv)
                np.matmul(gy, v.T, out=dp)
                dp -= rowsum[bi, :, hi, None]
                dp *= p
                dp *= scale
                np.matmul(dp, k, out=gq)
                np.matmul(dp.T, q, out=gk)
        _accum(qkv, gx.reshape(qkv.shape))

    _record(out, backward_fn)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis: gamma * (x - mean) / sqrt(var + eps) + beta."""
    c = x.shape[-1]
    if c < 1:
        raise ValueError("layer_norm needs at least one channel")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data, requires_grad=_wants_grad(x, gamma, beta))

    def backward_fn(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        _accum(beta, g.sum(axis=reduce_axes))
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accum(x, dx)

    _record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _phases(n, q, stride, padding):
    """Per phase i < s: the fold slots r (padded index r*s + i) that hold
    input, and the input indices they hold; slots on the padding are left out."""
    out = []
    for i in range(stride):
        r0 = max(0, -((i - padding) // stride))
        src = r0 * stride + i - padding
        cnt = max(0, min(q - r0, -((src - n) // stride)))
        out.append((slice(r0, r0 + cnt), slice(src, src + stride * cnt, stride)))
    return out


def _geometry(h, w, kh, kw, stride, padding):
    """Fold geometry of a conv over an (h, w) map: (ho, wo, hq, wq, offs, n, phases).

    Each axis has kq = ceil(k/s) taps and q = o + kq - 1 fold positions for
    o outputs. Tap (u, v) reads the flat (hq*wq) fold from column
    u*wq + v on, over n = (ho-1)*wq + wo columns. phases pairs each fold
    phase (i, j) with the input pixels it holds.
    """
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    kqh, kqw = -(-kh // stride), -(-kw // stride)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    hq, wq = ho + kqh - 1, wo + kqw - 1
    offs = [u * wq + v for u in range(kqh) for v in range(kqw)]
    rows, cols = _phases(h, hq, stride, padding), _phases(w, wq, stride, padding)
    phases = [(i, j, fr, fc, xr, xc) for i, (fr, xr) in enumerate(rows) for j, (fc, xc) in enumerate(cols)]
    return ho, wo, hq, wq, offs, (ho - 1) * wq + wo, phases


def _fold_weight(w, stride):
    """(Cout, C, kh, kw) -> taps (kqh*kqw, Cout, C*s*s), zero-padded to whole taps."""
    cout, c, kh, kw = w.shape
    kqh, kqw = -(-kh // stride), -(-kw // stride)
    wp = np.zeros((cout, c, kqh * stride, kqw * stride), w.dtype)
    wp[:, :, :kh, :kw] = w
    wp = wp.reshape(cout, c, kqh, stride, kqw, stride).transpose(2, 4, 0, 1, 3, 5)
    return wp.reshape(kqh * kqw, cout, c * stride * stride)


def _unfold_weight(wt, w_shape, stride):
    """Inverse of _fold_weight."""
    cout, c, kh, kw = w_shape
    kqh, kqw = -(-kh // stride), -(-kw // stride)
    w = wt.reshape(kqh, kqw, cout, c, stride, stride).transpose(2, 3, 0, 4, 1, 5)
    return w.reshape(cout, c, kqh * stride, kqw * stride)[:, :, :kh, :kw]


def _pow2(fixed, scaled, terms, dtype):
    """Exponent k >= 0 by which one GEMM operand is scaled, as 2**k.

    `fixed` and `scaled` bound the two operands' magnitudes and `terms` is
    the number of products summed into one output. k is the largest value
    for which every scaled product and partial sum stays below
    2**(maxexp - 1), the scaled operand stays finite, and 2**-k is normal.
    Multiplying by a power of two is exact while the value stays normal, so
    the scaled GEMM times 2**-k is bit-identical to the unscaled one whenever
    the unscaled one never left the normal range; otherwise products of tiny
    normal values (heatmap tails times 1e-3 weights) stay normal instead of
    turning subnormal, each of which would take a microcode assist.
    """
    fi = np.finfo(dtype)
    ef, es = int(np.frexp(fixed)[1]), int(np.frexp(scaled)[1])  # |v| < 2**e
    head = max(ef + (terms - 1).bit_length(), 0)
    return max(0, min(-fi.minexp, fi.maxexp - 1 - es - head))


def _pad_cols(gb, wq, scale):
    """(Cout, ho, wo) -> (Cout, ho*wq) times `scale`, zero in the junk columns."""
    cout, ho, wo = gb.shape
    gq = np.zeros((cout, ho, wq), gb.dtype)
    np.multiply(gb, scale, out=gq[:, :, :wo])
    return gq.reshape(cout, ho * wq)


def _folds(x, geom, stride, padding):
    """Yield each sample of x (B, C, H, W) folded to (C*s*s, hq*wq), with its max |v|.

    Fold channel (c, i, j) at (r, t) holds padded pixel (c, r*s + i, t*s + j).
    With stride 1 and no padding the fold is a view of the sample; otherwise
    it is a fresh copy, and with padding > 0 that copy reads float32
    subnormals as zero (denormals-are-zero): values below the dtype's
    smallest normal are zeroed. About 14% of the nonzero values of rendered
    inputs are float32 subnormals, every op that touches one takes a slow
    microcode assist, and numpy cannot set the CPU's DAZ flag. The flush and
    the max share one reused scratch buffer. The caller's array is never
    written, and float64 (tiny 2.2e-308) keeps its range.
    """
    _, c, h, w = x.shape
    hq, wq, phases = geom[2], geom[3], geom[6]
    if stride == 1 and padding == 0:
        for xb in x:
            yield xb.reshape(c, h * w), max(xb.max(), -xb.min())
        return
    tiny = np.finfo(x.dtype).tiny
    mag = np.empty((c * stride * stride, hq * wq), x.dtype)
    small = np.empty(mag.shape, bool)
    for xb in x:
        xf = np.zeros((c, stride, stride, hq, wq), x.dtype)
        for i, j, fr, fc, xr, xc in phases:
            xf[:, i, j, fr, fc] = xb[:, xr, xc]
        xf = xf.reshape(mag.shape)
        np.abs(xf, out=mag)
        if padding:
            np.less(mag, tiny, out=small)
            np.copyto(xf, 0, where=small)
        yield xf, mag.max()


def _conv_fwd(folds, wt, geom, bsz):
    """Stride-1 conv of folded samples with taps wt (T, Cout, Cf) -> (B, Cout, ho, wo).

    Tap t adds wt[t] @ fold[:, offs[t]:offs[t] + n] into a (Cout, ho*wq)
    accumulator, whose wq - wo junk columns per row are dropped. Each
    sample scales the taps by its own 2**k.
    """
    ho, wo, _, wq, offs, n, _ = geom
    cout, one = wt.shape[1], wt.dtype.type(1)
    aw = np.abs(wt).max()
    y = np.empty((bsz, cout, ho, wo), wt.dtype)
    acc = np.empty((cout, ho * wq), wt.dtype)
    tmp = np.empty((cout, n), wt.dtype)
    for yb, (xf, ax) in zip(y, folds):
        k = _pow2(ax, aw, wt.shape[0] * wt.shape[2], wt.dtype)
        acc.fill(0)
        for off, ws in zip(offs, wt * np.ldexp(one, k)):
            np.matmul(ws, xf[:, off : off + n], out=tmp)
            acc[:, :n] += tmp
        np.multiply(acc.reshape(cout, ho, wq)[:, :, :wo], np.ldexp(one, -k), out=yb)
    return y


def _conv_dx(g, wt, geom, x_shape, stride):
    """Adjoint of _conv_fwd and the fold: g (B, Cout, ho, wo) -> (B, C, H, W).

    Each sample scales g by its own 2**k; input pixels no window reads get zero.
    """
    _, _, hq, wq, offs, n, phases = geom
    c, one = x_shape[1], wt.dtype.type(1)
    aw = np.abs(wt).max()
    dx = np.zeros(x_shape, wt.dtype)
    dxf = np.empty((wt.shape[2], hq * wq), wt.dtype)
    dxf5 = dxf.reshape(c, stride, stride, hq, wq)
    tmp = np.empty((wt.shape[2], n), wt.dtype)
    for gb, dxb in zip(g, dx):
        k = _pow2(aw, max(gb.max(), -gb.min()), wt.shape[0] * wt.shape[1], wt.dtype)
        gq = _pad_cols(gb, wq, np.ldexp(one, k))[:, :n]
        dxf.fill(0)
        for off, w_t in zip(offs, wt):
            np.matmul(w_t.T, gq, out=tmp)
            dxf[:, off : off + n] += tmp
        for i, j, fr, fc, xr, xc in phases:
            np.multiply(dxf5[:, i, j, fr, fc], np.ldexp(one, -k), out=dxb[:, xr, xc])
    return dx


def _conv_dw(folds, g, geom, w_shape, stride):
    """Weight gradient sum_b g_b fold_b^T per tap, unfolded to w_shape.

    g is scaled by one 2**k for the whole batch, so the sum over samples
    accumulates in the scaled range and is unscaled once.
    """
    _, _, _, wq, offs, n, _ = geom
    dtype = np.result_type(g, folds[0][0])
    one = dtype.type(1)
    k = _pow2(max(a for _, a in folds), max(g.max(), -g.min()), len(folds) * n, dtype)
    # (Cf, n) @ (n, Cout) ran ~25% faster than (Cout, n) @ (n, Cf) on stage 0's shapes
    dwt = np.zeros((len(offs), folds[0][0].shape[0], g.shape[1]), dtype)
    tmp = np.empty(dwt.shape[1:], dtype)
    for gb, (xf, _) in zip(g, folds):
        gqt = _pad_cols(gb, wq, np.ldexp(one, k))[:, :n].T
        for off, dw_t in zip(offs, dwt):
            np.matmul(xf[:, off : off + n], gqt, out=tmp)
            dw_t += tmp
    dwt *= np.ldexp(one, -k)
    return _unfold_weight(dwt.transpose(0, 2, 1), w_shape, stride)


def conv2d(x, w, b=None, stride=1, padding=0):
    """Cross-correlation (no kernel flip): x (B,Cin,H,W), w (Cout,Cin,kh,kw).

    Runs as _conv_fwd over _folds of x; backward keeps the folds for the
    weight gradient (_conv_dw) only when w wants one, and the input
    gradient is _conv_dx.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d: channel mismatch, input {x.shape} vs weight {w.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    geom = _geometry(*x.shape[2:], *w.shape[2:], stride, padding)
    wt = _fold_weight(w.data, stride).astype(np.result_type(x.data, w.data), copy=False)
    requires_grad = _wants_grad(x, w) or (b is not None and _wants_grad(b))
    folds = _folds(x.data, geom, stride, padding)
    if requires_grad and w.requires_grad:
        folds = list(folds)
    y = _conv_fwd(folds, wt, geom, x.shape[0])
    if b is not None:
        y += b.data[:, None, None]
    out = Tensor(y, requires_grad=requires_grad)

    def backward_fn(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            _accum(w, _conv_dw(folds, g, geom, w.shape, stride))
        if x.requires_grad:
            _accum(x, _conv_dx(g, wt, geom, x.shape, stride))

    _record(out, backward_fn)
    return out


def conv_transpose2d(x, w, b=None, stride=2, padding=1):
    """Adjoint of conv2d: x (B,Cin,H,W), w (Cin,Cout,kh,kw) -> (B,Cout,s*H,s*W).

    Geometry is restricted to exact integer upsampling (k - 2p == s). With
    w read in conv2d's (Cout, Cin, kh, kw) layout from the output map back
    to x, the forward is conv2d's input gradient (_conv_dx), the input
    gradient is conv2d's forward over the fold of g (_conv_fwd), and the
    weight gradient is conv2d's with x in the role of g.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv_transpose2d expects 4D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"conv_transpose2d: channel mismatch, input {x.shape} vs weight {w.shape}")
    _, cout, kh, kw = w.shape
    if stride not in (2, 4):
        raise ValueError(f"conv_transpose2d: stride must be 2 or 4, got {stride}")
    if kh != kw or kh - 2 * padding != stride:
        raise ValueError(
            f"conv_transpose2d: kernel {kh}x{kw} pad {padding} stride {stride} "
            "does not give exact stride-fold upsampling (need square k with k - 2p == s)"
        )
    bsz, _, h, wd = x.shape
    out_shape = (bsz, cout, h * stride, wd * stride)
    geom = _geometry(*out_shape[2:], kh, kw, stride, padding)
    wt = _fold_weight(w.data, stride).astype(np.result_type(x.data, w.data), copy=False)
    y = _conv_dx(x.data, wt, geom, out_shape, stride)
    if b is not None:
        y += b.data[:, None, None]
    out = Tensor(y, requires_grad=_wants_grad(x, w) or (b is not None and _wants_grad(b)))

    def backward_fn(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))
        folds = _folds(g, geom, stride, padding)
        if w.requires_grad:
            folds = list(folds)
            _accum(w, _conv_dw(folds, x.data, geom, w.shape, stride))
        if x.requires_grad:
            _accum(x, _conv_fwd(folds, wt, geom, bsz))

    _record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# bilinear point sampling
# ---------------------------------------------------------------------------

def bilinear_sample(fmap, coords):
    """Sample fmap (B,C,H,W) at continuous pixel coords (B,N,2) -> (B,N,C).

    coords hold (x, y); out-of-range values are clamped to the border
    before interpolation, so their gradient is zero outside the map.
    """
    if fmap.ndim != 4 or coords.ndim != 3 or coords.shape[-1] != 2:
        raise ValueError(
            f"bilinear_sample expects map (B,C,H,W) and coords (B,N,2), got {fmap.shape} and {coords.shape}"
        )
    if not np.isfinite(coords.data).all():
        raise FloatingPointError("non-finite sampling coordinates")
    bsz, c, h, w = fmap.shape
    cx = np.clip(coords.data[..., 0], 0.0, w - 1.0)
    cy = np.clip(coords.data[..., 1], 0.0, h - 1.0)
    in_x = (coords.data[..., 0] >= 0.0) & (coords.data[..., 0] <= w - 1.0)
    in_y = (coords.data[..., 1] >= 0.0) & (coords.data[..., 1] <= h - 1.0)
    x0 = np.minimum(np.floor(cx), w - 2).astype(np.intp) if w > 1 else np.zeros_like(cx, dtype=np.intp)
    y0 = np.minimum(np.floor(cy), h - 2).astype(np.intp) if h > 1 else np.zeros_like(cy, dtype=np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = (cx - x0).astype(fmap.dtype)
    wy = (cy - y0).astype(fmap.dtype)

    bb = np.arange(bsz)[:, None]
    v00 = fmap.data[bb, :, y0, x0]  # (B, N, C)
    v01 = fmap.data[bb, :, y0, x1]
    v10 = fmap.data[bb, :, y1, x0]
    v11 = fmap.data[bb, :, y1, x1]
    wxe = wx[..., None]
    wye = wy[..., None]
    top = v00 + wxe * (v01 - v00)
    bot = v10 + wxe * (v11 - v10)
    out = Tensor(top + wye * (bot - top), requires_grad=_wants_grad(fmap, coords))

    def backward_fn(g):
        if fmap.requires_grad:
            gm = np.zeros_like(fmap.data)
            n = coords.shape[1]
            bi = np.broadcast_to(np.arange(bsz)[:, None, None], (bsz, n, c))
            ci = np.broadcast_to(np.arange(c)[None, None, :], (bsz, n, c))
            y0e = np.broadcast_to(y0[..., None], (bsz, n, c))
            y1e = np.broadcast_to(y1[..., None], (bsz, n, c))
            x0e = np.broadcast_to(x0[..., None], (bsz, n, c))
            x1e = np.broadcast_to(x1[..., None], (bsz, n, c))
            np.add.at(gm, (bi, ci, y0e, x0e), g * (1 - wxe) * (1 - wye))
            np.add.at(gm, (bi, ci, y0e, x1e), g * wxe * (1 - wye))
            np.add.at(gm, (bi, ci, y1e, x0e), g * (1 - wxe) * wye)
            np.add.at(gm, (bi, ci, y1e, x1e), g * wxe * wye)
            _accum(fmap, gm)
        if coords.requires_grad:
            dvdx = (1 - wye) * (v01 - v00) + wye * (v11 - v10)
            dvdy = (1 - wxe) * (v10 - v00) + wxe * (v11 - v01)
            gx = (g * dvdx).sum(axis=-1) * in_x
            gy = (g * dvdy).sum(axis=-1) * in_y
            _accum(coords, np.stack([gx, gy], axis=-1).astype(coords.dtype))

    _record(out, backward_fn)
    return out
