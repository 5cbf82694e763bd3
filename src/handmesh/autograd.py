"""Dense tensors with reverse-mode gradients on an explicit tape.

Everything the decoder differentiates through lives here: elementwise
arithmetic, matmul, softmax, layer norm, conv2d / transposed conv2d and
bilinear point sampling. Forward math is plain numpy; each primitive
records a backward closure on the active Tape, and Tape.backward replays
the record in reverse execution order.

Outside a `with Tape():` block nothing is recorded, which doubles as
inference mode.
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

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

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
    walks the record in reverse, so replay order is deterministic.
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


def concat(tensors, axis):
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        requires_grad=_wants_grad(*tensors),
    )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

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
        _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
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

def _im2col(x, kh, kw, stride, padding):
    """(B, C, H, W) -> column matrix (B, C*kh*kw, Ho*Wo) plus output geometry.

    Channels-first column layout so wmat @ col yields (B, Cout, Ho*Wo),
    which reshapes to the output tensor without another copy.

    With padding > 0 the input is read with subnormals as zero
    (denormals-are-zero): values below the dtype's smallest normal are
    zeroed in the fresh padded copy, one sample at a time. Rendered
    inputs are ~14% float32 subnormals, and every GEMM or elementwise op
    that touches one takes a slow microcode assist, which roughly halves
    batch-1 forward throughput; numpy cannot set the CPU's DAZ flag. The
    caller's array and a p=0 `col` (possibly a read-only view of it) are
    never written.
    """
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        tiny = np.finfo(x.dtype).tiny
        for xb in x:
            np.putmask(xb, (xb < tiny) & (xb > -tiny), 0)
    hp, wp = x.shape[2], x.shape[3]
    if kh > hp or kw > wp:
        raise ValueError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, Ho, Wo, kh, kw)
    col = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(b, c * kh * kw, ho * wo)
    return col, ho, wo


def _col2im(dcol, x_shape, kh, kw, stride, padding, ho, wo):
    """Adjoint of _im2col: scatter-add columns back onto a (B, C, H, W) map.

    Serves conv2d's input gradient and conv_transpose2d's forward.
    """
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    dxp = np.zeros((b, c, hp, wp), dtype=dcol.dtype)
    dcol = dcol.reshape(b, c, kh, kw, ho, wo)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += dcol[:, :, u, v]
    if padding:
        return dxp[:, :, padding : hp - padding, padding : wp - padding]
    return dxp


def conv2d(x, w, b=None, stride=1, padding=0):
    """Cross-correlation (no kernel flip): x (B,Cin,H,W), w (Cout,Cin,kh,kw)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d: channel mismatch, input {x.shape} vs weight {w.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    cout, _, kh, kw = w.shape
    col, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = w.data.reshape(cout, -1)
    y = wmat @ col
    if b is not None:
        y = y + b.data[:, None]
    out = Tensor(
        y.reshape(x.shape[0], cout, ho, wo),
        requires_grad=_wants_grad(x, w) or (b is not None and _wants_grad(b)),
    )

    def backward_fn(g):
        gmat = g.reshape(x.shape[0], cout, ho * wo)
        if b is not None:
            _accum(b, gmat.sum(axis=(0, 2)))
        if w.requires_grad:
            # batched GEMM against the transposed column view beats tensordot
            # here by ~5x (no contiguous repack of the 100MB column matrix)
            dw = np.matmul(gmat, col.transpose(0, 2, 1)).sum(axis=0)
            _accum(w, dw.reshape(w.shape))
        if x.requires_grad:
            dcol = wmat.T @ gmat
            _accum(x, _col2im(dcol, x.shape, kh, kw, stride, padding, ho, wo))

    _record(out, backward_fn)
    return out


def conv_transpose2d(x, w, b=None, stride=2, padding=1):
    """Adjoint of conv2d: x (B,Cin,H,W), w (Cin,Cout,kh,kw) -> (B,Cout,s*H,s*W).

    Geometry is restricted to exact integer upsampling (k - 2p == s).
    The forward is conv2d's input gradient (col2im of wmat.T @ x) and the
    input gradient is conv2d's forward (wmat @ im2col), with w read in
    conv2d's (Cout, Cin, kh, kw) layout from the output map back to x.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv_transpose2d expects 4D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"conv_transpose2d: channel mismatch, input {x.shape} vs weight {w.shape}")
    cin, cout, kh, kw = w.shape
    if stride not in (2, 4):
        raise ValueError(f"conv_transpose2d: stride must be 2 or 4, got {stride}")
    if kh != kw or kh - 2 * padding != stride:
        raise ValueError(
            f"conv_transpose2d: kernel {kh}x{kw} pad {padding} stride {stride} "
            "does not give exact stride-fold upsampling (need square k with k - 2p == s)"
        )
    bsz, _, h, wd = x.shape
    out_shape = (bsz, cout, h * stride, wd * stride)
    wmat = w.data.reshape(cin, -1)
    xmat = x.data.reshape(bsz, cin, h * wd)
    y = _col2im(wmat.T @ xmat, out_shape, kh, kw, stride, padding, h, wd)
    if b is not None:
        y = y + b.data[:, None, None]
    out = Tensor(y, requires_grad=_wants_grad(x, w) or (b is not None and _wants_grad(b)))

    def backward_fn(g):
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))
        col, _, _ = _im2col(g, kh, kw, stride, padding)
        if w.requires_grad:
            dw = np.matmul(xmat, col.transpose(0, 2, 1)).sum(axis=0)
            _accum(w, dw.reshape(w.shape))
        if x.requires_grad:
            _accum(x, (wmat @ col).reshape(x.shape))

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
