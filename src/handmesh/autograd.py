"""Dense tensors with reverse-mode gradients on an explicit tape.

Everything the decoder differentiates through lives here: elementwise
arithmetic, matmul, softmax, multi-head attention, layer norm, conv2d /
transposed conv2d and bilinear point sampling. Forward math is plain
numpy; each primitive defines a backward closure and returns its output
through _node, the one place that decides whether the output requires a
gradient and records the closure on the active Tape. Tape.backward replays
the record in reverse execution order and consumes it: each node, with the
arrays its closure saved, is dropped as soon as it has run, so a backward
holds only what its remaining nodes need.

Outside a `with Tape():` block nothing is recorded, which doubles as
inference mode.

Convolutions build no column matrix. The padded input is folded
space-to-depth, so a stride-s conv becomes a stride-1 conv with ceil(k/s)
taps per axis, and each tap is one GEMM on a strided view of one sample's
fold. Three helpers (forward, input gradient, weight gradient) serve
conv2d and, as its adjoint, conv_transpose2d. No fold outlives the pass
that draws it: the tape keeps a conv's input, as it keeps matmul's, plus
the batch's largest fold magnitude, and backward folds the input again.
Every fold reads float32 subnormals as zero, and each GEMM scales one
operand by an exact power of two so that products of tiny normal values
stay normal (see _pow2).
"""

import numpy as np

_ACTIVE_TAPE = None

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# fold elements per block of whole channels that _folds flushes and reduces in
# one pass (256 KiB of float32 scratch); a channel wider than this is one block
_FOLD_BLOCK = 1 << 16
_LN_EPS = 1e-5  # layer_norm's variance floor

# Cephes ndtr.c's rationals, as scipy.special.erf evaluates them, highest power
# first (U and Q are monic): erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8. Both give the same double at
# |x| = 1; past 8, 1 - erfc(x) rounds to 1 in float64, so |x| is clamped there.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_CLAMP = 8.0
# elements erf evaluates per float64 pass (128 KiB per temporary)
_ERF_BLOCK = 1 << 14


class Tensor:
    """A dense nd-array plus an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
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


class Tape:
    """Execution-ordered computation record for one forward pass.

    While active, _node appends (output, backward_fn) for each primitive
    call with an input that requires a gradient, and len(tape) counts the
    recorded nodes not yet replayed. backward(loss) seeds
    d(loss)/d(loss) = 1 and pops the record from its end, so replay order
    is deterministic and the tape is empty afterwards. Each node's closure,
    the tape's reference to its output and that output's gradient are
    dropped once its backward_fn has run; leaves, which are never recorded
    outputs, keep their gradients.
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
        while self._nodes:
            out, backward_fn = self._nodes.pop()
            if out.grad is None:
                continue
            backward_fn(out.grad)
            out.grad = None


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _wants_grad(*tensors):
    """True when a Tape is active and some tensor (None is skipped) requires a gradient."""
    return _ACTIVE_TAPE is not None and any(t is not None and t.requires_grad for t in tensors)


def _node(value, backward_fn, *inputs):
    """The output Tensor of a primitive over `inputs`: the one place the tape's
    rule is stated. The output requires a gradient, and (out, backward_fn) is
    appended to the active Tape, exactly when _wants_grad(*inputs)."""
    out = Tensor(value, requires_grad=_wants_grad(*inputs))
    if out.requires_grad:
        _ACTIVE_TAPE._nodes.append((out, backward_fn))
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    t.grad = g if t.grad is None else t.grad + g


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
    b = _as_tensor(b, a.dtype)

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, backward_fn, a, b)


def mul(a, b):
    b = _as_tensor(b, a.dtype)

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, backward_fn, a, b)


def sum_(x):
    def backward_fn(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _node(x.data.sum(), backward_fn, x)


def mean(x, axis=None):
    n = x.size if axis is None else np.prod([x.shape[a] for a in axis])

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape) / x.dtype.type(n))

    return _node(x.data.mean(axis=axis), backward_fn, x)


def abs_(x):
    # subgradient at 0 is 0: np.sign(0) == 0
    sign = np.sign(x.data)

    def backward_fn(g):
        _accum(x, g * sign)

    return _node(np.abs(x.data), backward_fn, x)


def reshape(x, shape):
    def backward_fn(g):
        _accum(x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), backward_fn, x)


def transpose(x, axes):
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward_fn(g):
        _accum(x, g.transpose(inv))

    return _node(np.ascontiguousarray(x.data.transpose(axes)), backward_fn, x)


# ---------------------------------------------------------------------------
# matmul and nonlinearities
# ---------------------------------------------------------------------------

def matmul(a, b, bias=None):
    """a @ b over the last two axes, batched over the leading ones.

    A `bias` is broadcast onto the product and added in place to it, so an
    affine map is one tape node with one output array.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    y = np.matmul(a.data, b.data)
    if bias is not None:
        y += bias.data

    def backward_fn(g):
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.shape))
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    return _node(y, backward_fn, a, b, bias)


def cast(x, dtype):
    """Dtype conversion; the gradient is cast back to the input's dtype."""
    def backward_fn(g):
        _accum(x, g)

    return _node(x.data.astype(dtype), backward_fn, x)


def _polevl(x, coeffs, out):
    """coeffs[0] x^n + ... + coeffs[n] into out, by Horner's rule in Cephes' order."""
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def erf(x):
    """The error function of a float array, as scipy.special.erf computes it.

    Evaluated in float64 over blocks of at most _ERF_BLOCK elements and
    rounded to x's dtype, as scipy's float32 loop does. Every element takes
    the |x| < 1 rational on x clipped to [-1, 1], so no input overflows it;
    those with |x| >= 1 then take 1 - erfc(|x|), signed like x. NaN stays NaN.
    """
    out = np.empty_like(x)
    src, dst = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((4, min(src.size, _ERF_BLOCK)))
    for i in range(0, src.size, _ERF_BLOCK):
        v = src[i:i + _ERF_BLOCK]
        s, z, y, den = scratch[:, :v.size]
        np.clip(v, -1.0, 1.0, out=s)
        np.multiply(s, s, out=z)
        _polevl(z, _ERF_T, y)
        y *= s
        y /= _polevl(z, _ERF_U, den)
        big = np.flatnonzero(z == 1.0)  # the clip leaves z == 1 exactly where |v| >= 1
        w = v[big].astype(np.float64)
        a = np.minimum(np.abs(w), _ERFC_CLAMP)
        erfc = np.exp(-a * a) * _polevl(a, _ERFC_P, np.empty_like(a))
        erfc /= _polevl(a, _ERFC_Q, np.empty_like(a))
        y[big] = np.copysign(1.0 - erfc, w)
        dst[i:i + v.size] = y
    return out


def gelu(x):
    """x * Phi(x), Phi the standard normal CDF through `erf`."""
    phi = 0.5 * (1.0 + erf(x.data * x.dtype.type(_INV_SQRT2)))

    def backward_fn(g):
        dens = np.exp(-0.5 * x.data * x.data) * x.dtype.type(_INV_SQRT2PI)
        _accum(x, g * (phi + x.data * dens))

    return _node(x.data * phi, backward_fn, x)


def softmax(x):
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        _accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _node(y, backward_fn, x)


def _attention_probs(q, k, scale, p):
    """Write softmax(q k^T * scale) over rows into the (N, N) block p.

    attention's forward and backward both call this, so the backward's
    recomputed probabilities carry the forward's bits.
    """
    np.matmul(q, k.T, out=p)
    p *= scale
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def attention(qkv, heads):
    """Multi-head softmax(q k^T / sqrt(dh)) v: qkv (B, N, 3C) -> (B, N, C).

    The last axis of qkv holds q, k and v side by side, each split into
    `heads` blocks of dh = C / heads channels. Each (sample, head) runs on
    strided views of qkv: its probabilities P are written into one (N, N)
    scratch block by _attention_probs, so no (B, heads, N, N) array is ever
    made. The tape keeps no probabilities: backward recomputes each block
    from q and k, as FlashAttention's backward does (Dao et al., 2022).
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
    p = np.empty((n, n), x.dtype)
    y = np.empty((bsz, n, heads, dh), x.dtype)
    for bi in range(bsz):
        for hi in range(heads):
            q, k, v = x[bi, :, :, hi].transpose(1, 0, 2)
            np.matmul(_attention_probs(q, k, scale, p), v, out=y[bi, :, hi])

    def backward_fn(g):
        g = g.reshape(bsz, n, heads, dh)
        gx = np.empty_like(x)
        p = np.empty((n, n), x.dtype)
        dp = np.empty((n, n), x.dtype)
        # rowsum(P * dP) = rowsum(dy * y), an (N, dh) product in place of an (N, N) one
        rowsum = (g * y).sum(axis=-1)
        for bi in range(bsz):
            for hi in range(heads):
                q, k, v = x[bi, :, :, hi].transpose(1, 0, 2)
                gq, gk, gv = gx[bi, :, :, hi].transpose(1, 0, 2)
                gy = g[bi, :, hi]
                _attention_probs(q, k, scale, p)
                np.matmul(p.T, gy, out=gv)
                np.matmul(gy, v.T, out=dp)
                dp -= rowsum[bi, :, hi, None]
                dp *= p
                dp *= scale
                np.matmul(dp, k, out=gq)
                np.matmul(dp.T, q, out=gk)
        _accum(qkv, gx.reshape(qkv.shape))

    return _node(y.reshape(bsz, n, c), backward_fn, qkv)


def layer_norm(x, gamma, beta):
    """Normalize over the last axis: gamma * (x - mean) / sqrt(var + _LN_EPS) + beta."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(_LN_EPS))
    xhat = xc * inv

    def backward_fn(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        _accum(beta, g.sum(axis=reduce_axes))
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(x, dx)

    return _node(gamma.data * xhat + beta.data, backward_fn, x, gamma, beta)


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
    turning subnormal, each of which would take a microcode assist. A NaN
    or infinite bound gives k = 0: frexp reads it as below 1, and a scale
    sized by that would overflow the operand's finite products.
    """
    if not (np.isfinite(fixed) and np.isfinite(scaled)):
        return 0
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


def _folds(x, geom, stride):
    """Yield each sample of x (B, C, H, W) folded to (C*s*s, hq*wq), with its max |v|.

    Fold channel (c, i, j) at (r, t) holds padded pixel (c, r*s + i, t*s + j).
    Every sample is copied into one buffer, zeroed once per call, whose
    padding slots are never written, so each fold is valid only until the
    next is drawn; a caller that needs the folds again draws them again.
    The copy runs one block of whole channels at a time, at most _FOLD_BLOCK
    elements or one wider channel, and flushes each block and reduces it to
    its max in one pass while it is still in cache. The copy reads float32
    subnormals as zero (denormals-are-zero): values with |v| below the
    dtype's smallest normal are zeroed, so NaN and inf are kept. About
    14% of the nonzero values of rendered inputs are float32 subnormals,
    every op that touches one takes a slow microcode assist, and numpy cannot
    set the CPU's DAZ flag. The caller's array is never written, and float64
    (tiny 2.2e-308) keeps its range. geom places the padding.
    """
    c = x.shape[1]
    hq, wq, phases = geom[2], geom[3], geom[6]
    tiny = np.finfo(x.dtype).tiny
    per_c = stride * stride * hq * wq
    cb = min(c, max(1, _FOLD_BLOCK // per_c))  # channels per block
    buf = np.zeros((c, stride, stride, hq, wq), x.dtype)
    mag = np.empty((cb, *buf.shape[1:]), x.dtype)
    small = np.empty(mag.shape, bool)
    for xb in x:
        amax = x.dtype.type(0)
        for c0 in range(0, c, cb):
            block = buf[c0 : c0 + cb]
            for i, j, fr, fc, xr, xc in phases:
                block[:, i, j, fr, fc] = xb[c0 : c0 + cb, xr, xc]
            m, z = mag[: len(block)], small[: len(block)]
            np.abs(block, out=m)
            np.less(m, tiny, out=z)
            np.copyto(block, 0, where=z)
            amax = np.maximum(amax, m.max())
        yield buf.reshape(c * stride * stride, hq * wq), amax


def _conv_fwd(folds, wt, geom, bsz):
    """Stride-1 conv of folded samples with taps wt (T, Cout, Cf) -> (B, Cout, ho, wo).

    Tap t adds wt[t] @ fold[:, offs[t]:offs[t] + n] into a (Cout, ho*wq)
    accumulator, whose wq - wo junk columns per row are dropped. Each
    sample scales the taps by its own 2**k. Returns the output and the
    largest fold max of the batch, which bounds the folds for _conv_dw.
    """
    ho, wo, _, wq, offs, n, _ = geom
    cout, one = wt.shape[1], wt.dtype.type(1)
    aw = np.abs(wt).max()
    y = np.empty((bsz, cout, ho, wo), wt.dtype)
    acc = np.empty((cout, ho * wq), wt.dtype)
    tmp = np.empty((cout, n), wt.dtype)
    peaks = []
    for yb, (xf, ax) in zip(y, folds):
        peaks.append(ax)
        k = _pow2(ax, aw, wt.shape[0] * wt.shape[2], wt.dtype)
        acc.fill(0)
        for off, ws in zip(offs, wt * np.ldexp(one, k)):
            np.matmul(ws, xf[:, off : off + n], out=tmp)
            acc[:, :n] += tmp
        np.multiply(acc.reshape(cout, ho, wq)[:, :, :wo], np.ldexp(one, -k), out=yb)
    return y, max(peaks)


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


def _conv_dw(folds, amax, g, geom, w_shape, stride):
    """Weight gradient sum_b g_b fold_b^T per tap, unfolded to w_shape.

    `folds` streams one fold per sample of g, each consumed before the next
    is drawn, and `amax`, a scalar of the folds' dtype, bounds them all (the
    forward's batch max). g is scaled by one 2**k for the whole batch, so the
    sum over samples accumulates in the scaled range and is unscaled once.
    """
    _, _, _, wq, offs, n, _ = geom
    one = g.dtype.type(1)
    k = _pow2(amax, max(g.max(), -g.min()), len(g) * n, g.dtype)
    # (Cf, n) @ (n, Cout) ran ~25% faster than (Cout, n) @ (n, Cf) on stage 0's shapes
    dwt = np.zeros((len(offs), w_shape[1] * stride * stride, g.shape[1]), g.dtype)
    tmp = np.empty(dwt.shape[1:], g.dtype)
    for gb, (xf, _) in zip(g, folds):
        gqt = _pad_cols(gb, wq, np.ldexp(one, k))[:, :n].T
        for off, dw_t in zip(offs, dwt):
            np.matmul(xf[:, off : off + n], gqt, out=tmp)
            dw_t += tmp
    dwt *= np.ldexp(one, -k)
    return _unfold_weight(dwt.transpose(0, 2, 1), w_shape, stride)


def conv2d(x, w, b, stride=1, padding=0, relu=False):
    """Cross-correlation (no kernel flip): x (B,Cin,H,W), w (Cout,Cin,kh,kw).

    Runs as _conv_fwd over _folds of x and keeps only the batch's fold max.
    Backward folds x.data again for the weight gradient (_conv_dw), reading
    the input as matmul's backward does, and the input gradient is
    _conv_dx. With `relu` the bias and max(., 0) are applied in
    place to the conv's own output, and backward first masks g by out > 0,
    so the whole conv+bias+ReLU is one tape node with one output array.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d: channel mismatch, input {x.shape} vs weight {w.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    geom = _geometry(*x.shape[2:], *w.shape[2:], stride, padding)
    wt = _fold_weight(w.data, stride)
    y, amax = _conv_fwd(_folds(x.data, geom, stride), wt, geom, x.shape[0])
    y += b.data[:, None, None]
    if relu:
        np.maximum(y, 0, out=y)

    def backward_fn(g):
        if relu:
            g = g * (y > 0)
        _accum(b, g.sum(axis=(0, 2, 3)))
        _accum(w, _conv_dw(_folds(x.data, geom, stride), amax, g, geom, w.shape, stride))
        if x.requires_grad:
            _accum(x, _conv_dx(g, wt, geom, x.shape, stride))

    return _node(y, backward_fn, x, w, b)


def conv_transpose2d(x, w, b, stride=2, padding=1):
    """Adjoint of conv2d: x (B,Cin,H,W), w (Cin,Cout,kh,kw) -> (B,Cout,s*H,s*W).

    Geometry is restricted to exact integer upsampling (k - 2p == s). With
    w read in conv2d's (Cout, Cin, kh, kw) layout from the output map back
    to x, the forward is conv2d's input gradient (_conv_dx), the input
    gradient is conv2d's forward over the folds of g (_conv_fwd), and the
    weight gradient is conv2d's with x in the role of g. Backward streams
    the folds of g twice: the input-gradient pass, which always runs,
    yields their batch max, and the weight-gradient pass folds g again.
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
    wt = _fold_weight(w.data, stride)
    y = _conv_dx(x.data, wt, geom, out_shape, stride)
    y += b.data[:, None, None]

    def backward_fn(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        gx, amax = _conv_fwd(_folds(g, geom, stride), wt, geom, bsz)
        _accum(x, gx)
        _accum(w, _conv_dw(_folds(g, geom, stride), amax, x.data, geom, w.shape, stride))

    return _node(y, backward_fn, x, w, b)


# ---------------------------------------------------------------------------
# bilinear point sampling
# ---------------------------------------------------------------------------

def bilinear_sample(fmap, coords):
    """Sample fmap (B,C,H,W) at continuous pixel coords (B,N,2) -> (B,N,C).

    coords hold (x, y); out-of-range values are clamped to the border
    before interpolation, so their gradient is zero outside the map. The
    four corners are (B, N) flat indices into the map's (B, H*W, C) rows,
    gathered forward and scattered back with np.add.at. Per axis the low
    corner is floor(c) capped at n - 2, so a one-pixel axis reads its one
    pixel as both corners.
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
    x0 = np.minimum(np.floor(cx), max(w - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(cy), max(h - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = (cx - x0).astype(fmap.dtype)
    wy = (cy - y0).astype(fmap.dtype)

    bb = np.arange(bsz)[:, None]
    corners = [(bb, y * w + x) for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))]
    rows = fmap.data.reshape(bsz, c, h * w).transpose(0, 2, 1)
    v00, v01, v10, v11 = (rows[i] for i in corners)  # (B, N, C) each
    wxe = wx[..., None]
    wye = wy[..., None]
    top = v00 + wxe * (v01 - v00)
    bot = v10 + wxe * (v11 - v10)

    def backward_fn(g):
        gm = np.zeros(fmap.shape, fmap.dtype)
        grows = gm.reshape(bsz, c, h * w).transpose(0, 2, 1)
        i00, i01, i10, i11 = corners
        np.add.at(grows, i00, g * (1 - wxe) * (1 - wye))
        np.add.at(grows, i01, g * wxe * (1 - wye))
        np.add.at(grows, i10, g * (1 - wxe) * wye)
        np.add.at(grows, i11, g * wxe * wye)
        _accum(fmap, gm)
        dvdx = (1 - wye) * (v01 - v00) + wye * (v11 - v10)
        dvdy = (1 - wxe) * (v10 - v00) + wxe * (v11 - v01)
        gx = (g * dvdx).sum(axis=-1) * in_x
        gy = (g * dvdy).sum(axis=-1) * in_y
        _accum(coords, np.stack([gx, gy], axis=-1))

    return _node(top + wye * (bot - top), backward_fn, fmap, coords)
