"""Numeric core: forward oracles and finite-difference gradient checks."""

import numpy as np
import pytest

from handmesh import autograd as ag
from handmesh.autograd import Tape, Tensor
from handmesh.nn import SelfAttention

from helpers import attention_composed, fd_gradcheck


# ---------------------------------------------------------------------------
# independent oracles (slow but obviously correct)
# ---------------------------------------------------------------------------

def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_formula(x, axis):
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm_two_pass(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def conv2d_loops(x, w, b, stride, padding):
    bsz, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=x.dtype)
    for bi in range(bsz):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[bi, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def tconv_zero_stuff_oracle(x, w, b, stride, padding):
    """Insert stride-1 zeros between input samples, then run the loop conv
    with the spatially flipped, channel-swapped kernel."""
    bsz, cin, h, wid = x.shape
    _, cout, k, _ = w.shape
    xs = np.zeros((bsz, cin, (h - 1) * stride + 1, (wid - 1) * stride + 1), dtype=x.dtype)
    xs[:, :, ::stride, ::stride] = x
    w2 = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return conv2d_loops(xs, w2, b, 1, k - 1 - padding)


def bilinear_corner_oracle(fmap, coords):
    bsz, c, h, w = fmap.shape
    n = coords.shape[1]
    out = np.zeros((bsz, n, c), dtype=fmap.dtype)
    for bi in range(bsz):
        for i in range(n):
            x = min(max(float(coords[bi, i, 0]), 0.0), w - 1.0)
            y = min(max(float(coords[bi, i, 1]), 0.0), h - 1.0)
            x0 = min(int(np.floor(x)), w - 2)
            y0 = min(int(np.floor(y)), h - 2)
            wx = x - x0
            wy = y - y0
            top = (1 - wx) * fmap[bi, :, y0, x0] + wx * fmap[bi, :, y0, x0 + 1]
            bot = (1 - wx) * fmap[bi, :, y0 + 1, x0] + wx * fmap[bi, :, y0 + 1, x0 + 1]
            out[bi, i] = (1 - wy) * top + wy * bot
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(ag.matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        assert np.array_equal(ag.matmul(a, b).data, np.array([[17.0], [39.0]]))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        got = ag.matmul(Tensor(a), Tensor(b)).data
        want = naive_matmul(a, b)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 6))
        got = ag.matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            assert np.allclose(got[i], naive_matmul(a[i], b[i]), atol=1e-12)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_gradcheck_2d(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        err = fd_gradcheck(lambda a, b: ag.matmul(a, b).sum(), [a, b])
        assert err < 1e-4

    def test_gradcheck_broadcast_batch(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        err = fd_gradcheck(lambda a, b: ag.mean(ag.matmul(a, b)), [a, b])
        assert err < 1e-4

    @pytest.mark.parametrize("const", ["a", "b"])
    def test_constant_operand_gets_no_gradient(self, const):
        # the other operand's gradient must equal the one from a fully
        # differentiated product
        rng = np.random.default_rng(4)
        a_data = rng.standard_normal((2, 4, 3))
        b_data = rng.standard_normal((3, 5))
        w = rng.standard_normal((2, 4, 5))

        def grads(a_grad, b_grad):
            a = Tensor(a_data, requires_grad=a_grad)
            b = Tensor(b_data, requires_grad=b_grad)
            with Tape() as tape:
                tape.backward(ag.sum_(ag.mul(ag.matmul(a, b), w)))
            return a.grad, b.grad

        full = grads(True, True)
        got = grads(const != "a", const != "b")
        for name, g, g_full in zip("ab", got, full):
            if name == const:
                assert g is None
            else:
                assert np.array_equal(g, g_full)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetric_pair(self):
        y = ag.softmax(Tensor(np.zeros(2)), axis=-1).data
        assert np.allclose(y, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(9)
        a = ag.softmax(Tensor(v), axis=-1).data
        b = ag.softmax(Tensor(v + 123.456), axis=-1).data
        assert np.abs(a - b).max() < 1e-12

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        got = ag.softmax(Tensor(v), axis=-1).data
        want = softmax_formula(v, -1)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_probability_vector(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 7)) * 20
        y = ag.softmax(Tensor(x), axis=1).data
        assert y.min() >= 0
        assert np.abs(y.sum(axis=1) - 1).max() < 1e-10

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 6)))

        def fn(x, c):
            return ag.sum_(ag.mul(ag.softmax(x, axis=-1), c))

        assert fd_gradcheck(fn, [x, c]) < 1e-4


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

class TestAttention:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck(self, heads, n):
        rng = np.random.default_rng(40 + heads + n)
        qkv = Tensor(rng.standard_normal((3, n, 3 * 2 * heads)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, n, 2 * heads)))

        def fn(qkv, c):
            return ag.sum_(ag.mul(ag.attention(qkv, heads), c))

        assert fd_gradcheck(fn, [qkv, c], rng=rng) < 1e-8

    @pytest.mark.parametrize("b,n,c,heads", [(4, 336, 64, 4), (4, 84, 128, 4)])
    def test_float32_matches_composition(self, b, n, c, heads):
        # the decoder's layer-2 and layer-1 shapes, at qkv's Affine scale
        rng = np.random.default_rng(46)
        qkv0 = (rng.standard_normal((b, n, 3 * c)) * 0.6).astype(np.float32)
        g = Tensor(rng.standard_normal((b, n, c)).astype(np.float32))
        results = []
        for attn in (ag.attention, attention_composed):
            qkv = Tensor(qkv0.copy(), requires_grad=True)
            with Tape() as tape:
                y = attn(qkv, heads)
                tape.backward(ag.sum_(ag.mul(y, g)))
            results.append((y.data, qkv.grad))
        (y, gq), (y_ref, gq_ref) = results
        assert y.dtype == gq.dtype == np.float32
        assert np.abs(y - y_ref).max() / np.abs(y_ref).max() < 1e-6
        assert np.abs(gq - gq_ref).max() / np.abs(gq_ref).max() < 1e-6

    @pytest.mark.parametrize(
        "shape,heads",
        [((6, 12), 2), ((2, 3, 4, 12), 2), ((2, 3, 12), 3), ((2, 3, 12), 0)],
        ids=["2d", "4d", "12-by-3x3", "zero-heads"],
    )
    def test_bad_shape_rejected(self, shape, heads):
        with pytest.raises(ValueError):
            ag.attention(Tensor(np.zeros(shape)), heads)

    def test_no_tape_forward_peaks_below_one_score_tensor(self):
        # the composed form held (B, heads, N, N) scores several times over
        import tracemalloc

        b, n, c, heads = 16, 336, 64, 4
        attn = SelfAttention(c, heads, np.random.default_rng(47))
        x = Tensor(np.random.default_rng(48).standard_normal((b, n, c)).astype(np.float32))
        tracemalloc.start()
        try:
            attn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * heads * n * n * 4

    def test_taped_self_attention_records_five_nodes(self):
        # qkv matmul + bias, one attention node, proj matmul + bias
        attn = SelfAttention(8, 2, np.random.default_rng(49))
        x = Tensor(np.random.default_rng(50).standard_normal((2, 5, 8)).astype(np.float32))
        with Tape() as tape:
            attn(x)
        assert len(tape) == 5


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

class TestLayerNorm:
    def test_constant_vector_goes_to_zero(self):
        x = Tensor(np.full(8, 3.7))
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = ag.layer_norm(x, g, b).data
        assert np.abs(y).max() < 1e-10

    def test_moments(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 32)) * 3 + 1)
        g = Tensor(np.ones(32))
        b = Tensor(np.zeros(32))
        y = ag.layer_norm(x, g, b).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-10
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4  # eps-adjusted

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 16))
        g = rng.standard_normal(16)
        b = rng.standard_normal(16)
        got = ag.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        want = layer_norm_two_pass(x, g, b, 1e-5)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10

    def test_gradcheck_all_inputs(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        g = Tensor(rng.standard_normal(8), requires_grad=True)
        b = Tensor(rng.standard_normal(8), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 8)))

        def fn(x, g, b, c):
            return ag.sum_(ag.mul(ag.layer_norm(x, g, b), c))

        assert fd_gradcheck(fn, [x, g, b, c]) < 1e-4


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_pointwise_1x1_is_per_pixel_linear_map(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 1, 1))
        got = ag.conv2d(Tensor(x), Tensor(w)).data
        want = np.einsum("bchw,oc->bohw", x, w[:, :, 0, 0])
        assert got.shape == (2, 4, 5, 5)
        assert np.abs(got - want).max() < 1e-12

    def test_impulse_response(self):
        # cross-correlation: the output around a delta reproduces the
        # kernel flipped in both spatial axes
        x = np.zeros((1, 1, 7, 7))
        x[0, 0, 3, 3] = 1.0
        w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        y = ag.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert np.array_equal(y[0, 0, 2:5, 2:5], w[0, 0, ::-1, ::-1])

    @pytest.mark.parametrize(
        "stride,padding,k,hw",
        [(1, 0, 3, (8, 8)), (2, 1, 3, (8, 8)), (1, 1, 3, (8, 8)), (2, 0, 2, (8, 8)), (1, 0, 1, (8, 8)),
         (4, 2, 8, (8, 8)), (2, 1, 3, (8, 6)), (4, 2, 8, (8, 6))],
        ids=["1-0-3", "2-1-3", "1-1-3", "2-0-2", "1-0-1", "4-2-8", "2-1-3-8x6", "4-2-8-8x6"],
    )
    def test_matches_loop_oracle(self, stride, padding, k, hw):
        # the 8x6 inputs give different fold heights and widths (hq != wq)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, *hw))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        got = ag.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
        want = conv2d_loops(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ag.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_gradcheck(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def fn(x, w, b):
            return ag.mean(ag.abs_(ag.conv2d(x, w, b, stride=2, padding=1)))

        assert fd_gradcheck(fn, [x, w, b], rng=rng) < 1e-4

    def test_stage0_forward_peaks_below_twice_its_input(self):
        # a column matrix would take k*k/(s*s) = 4x the input on its own
        import tracemalloc

        rng = np.random.default_rng(19)
        x = Tensor(rng.random((4, 22, 224, 224), dtype=np.float32))
        w = Tensor(rng.standard_normal((24, 22, 4, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(24, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape():
                ag.conv2d(x, w, b, stride=2, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes


class TestConvPowerOfTwoScaling:
    """Scaling the input or the upstream gradient by 2**e scales each conv
    result by exactly 2**e: tiny normal inputs keep full float32 precision
    and huge ones stay finite."""

    @staticmethod
    def _run(conv, x, w, r, stride, padding):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        with Tape() as tape:
            y = conv(xt, wt, stride=stride, padding=padding)
            tape.backward(ag.sum_(ag.mul(y, Tensor(r))))
        return y.data, wt.grad, xt.grad

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [-120, 100])
    @pytest.mark.parametrize("transposed", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_results_scale_exactly(self, transposed, e):
        rng = np.random.default_rng(47)

        def signed(lo, hi, shape):
            return (rng.uniform(lo, hi, shape) * rng.choice([-1, 1], shape)).astype(np.float32)

        if transposed:
            conv, x_shape, w_shape, y_shape = ag.conv_transpose2d, (2, 4, 5, 5), (4, 3, 4, 4), (2, 3, 10, 10)
        else:
            conv, x_shape, w_shape, y_shape = ag.conv2d, (2, 3, 10, 10), (4, 3, 4, 4), (2, 4, 5, 5)
        x = rng.uniform(0.5, 1.0, x_shape).astype(np.float32)
        w = signed(1e-3, 1e-2, w_shape)
        r_small = signed(1e-3, 1e-2, y_shape)  # an upstream gradient the size of the weights
        r_unit = signed(0.5, 1.0, y_shape)  # stays normal when scaled by 2**-120
        s = np.float32(2.0**e)
        y, dw, _ = self._run(conv, x, w, r_small, 2, 1)
        ys, dws, _ = self._run(conv, x * s, w, r_small, 2, 1)
        _, dw1, dx = self._run(conv, x, w, r_unit, 2, 1)
        _, dw1s, dxs = self._run(conv, x, w, r_unit * s, 2, 1)
        cases = {"forward": (ys, y), "weight gradient": (dws, dw),
                 "input gradient": (dxs, dx), "weight gradient, scaled g": (dw1s, dw1)}
        for name, (got, base) in cases.items():
            assert np.isfinite(got).all(), name
            assert got.tobytes() == (base * s).tobytes(), name


class TestConvReadsSubnormalsAsZero:
    """Padded convs read float32 subnormals as zero; nothing else moves."""

    @staticmethod
    def _with_subnormals(shape, seed):
        # channel 0 and the two left columns hold only subnormals, so the
        # outputs and weight gradients that read nothing else would show
        # them; elsewhere a normal value would round them away
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(np.float32)
        mask = rng.random(shape) < 0.2
        mask[:, 0] = True
        mask[..., :2] = True
        x[mask] = np.float32(1e-40) * rng.choice(np.array([-1, 1], dtype=np.float32), size=int(mask.sum()))
        zeroed = np.where(mask, np.float32(0), x)
        return x, zeroed

    @staticmethod
    def _fwd_bwd(x, w, b, padding):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        r = np.random.default_rng(40).standard_normal((2, 4, 6, 6)).astype(np.float32)
        with Tape() as tape:
            y = ag.conv2d(xt, wt, bt, stride=1, padding=padding)
            tape.backward(ag.sum_(ag.mul(y, Tensor(r))))
        return xt, y.data, wt.grad, bt.grad

    def test_padded_conv_matches_zeroed_input_bit_for_bit(self):
        x, zeroed = self._with_subnormals((2, 3, 6, 6), 41)
        rng = np.random.default_rng(42)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = np.zeros(4, np.float32)
        _, y, dw, db = self._fwd_bwd(x, w, b, padding=1)
        _, y0, dw0, db0 = self._fwd_bwd(zeroed, w, b, padding=1)
        assert y.tobytes() == y0.tobytes()
        assert dw.tobytes() == dw0.tobytes()
        assert db.tobytes() == db0.tobytes()

    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
    def test_caller_input_never_written(self, k, padding):
        x, _ = self._with_subnormals((2, 3, 6, 6), 43)
        before = x.tobytes()
        rng = np.random.default_rng(44)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        xt, _, _, _ = self._fwd_bwd(x, w, np.zeros(4, np.float32), padding=padding)
        assert xt.data.tobytes() == before

    def test_float64_subnormal_range_is_kept(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 2] = 1e-40  # normal in float64
        w = np.ones((1, 1, 3, 3))
        y = ag.conv2d(Tensor(x), Tensor(w), padding=1).data
        y0 = ag.conv2d(Tensor(np.zeros_like(x)), Tensor(w), padding=1).data
        assert not np.array_equal(y, y0)
        assert y.max() == 1e-40

    def test_paper_model_builds_no_subnormal_padded_columns(self, monkeypatch):
        from handmesh.config import ExperimentConfig
        from handmesh.dataio import sample_seed
        from handmesh.synth import build_assets, generate_sample
        from handmesh.train import build_model

        tiny = np.finfo(np.float32).tiny
        img = generate_sample(build_assets(), sample_seed(0, 0)).input.astype(np.float32)
        assert ((img != 0) & (np.abs(img) < tiny)).any()
        padded_calls = []
        folds = ag._folds

        def checked(x, geom, stride, padding):
            for xf, amax in folds(x, geom, stride, padding):  # one sample: B == 1
                if padding > 0:
                    padded_calls.append(int(((xf != 0) & (np.abs(xf) < tiny)).sum()))
                yield xf, amax

        monkeypatch.setattr(ag, "_folds", checked)
        build_model(ExperimentConfig())(Tensor(img[None]))
        assert len(padded_calls) >= 5  # one per backbone stage
        assert padded_calls == [0] * len(padded_calls)


# ---------------------------------------------------------------------------
# conv_transpose2d
# ---------------------------------------------------------------------------

class TestConvTranspose2d:
    @pytest.mark.parametrize("h,stride,k,p,expected", [(7, 2, 4, 1, 14), (7, 4, 8, 2, 28), (14, 2, 4, 1, 28)])
    def test_exact_upsampling_shape(self, h, stride, k, p, expected):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((1, 3, h, h)))
        w = Tensor(rng.standard_normal((3, 2, k, k)))
        y = ag.conv_transpose2d(x, w, stride=stride, padding=p)
        assert y.shape == (1, 2, expected, expected)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(15)
        w = Tensor(rng.standard_normal((3, 2, 4, 4)))
        y = ag.conv_transpose2d(Tensor(np.zeros((1, 3, 5, 5))), w, stride=2, padding=1)
        assert np.array_equal(y.data, np.zeros_like(y.data))

    @pytest.mark.parametrize("stride,k,p", [(2, 4, 1), (4, 8, 2)])
    def test_matches_zero_stuffing_oracle(self, stride, k, p):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(2)
        got = ag.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=p).data
        want = tconv_zero_stuff_oracle(x, w, b, stride, p)
        assert got.shape == want.shape
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    @pytest.mark.parametrize("stride,k,p", [(2, 3, 1), (2, 4, 0), (3, 5, 1), (1, 3, 1)])
    def test_bad_geometry_rejected(self, stride, k, p):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((2, 2, k, k)))
        with pytest.raises(ValueError):
            ag.conv_transpose2d(x, w, stride=stride, padding=p)

    @pytest.mark.parametrize("stride,k,p", [(2, 4, 1), (4, 8, 2)])
    def test_adjoint_of_conv2d(self, stride, k, p):
        # <conv(x), y> == <x, tconv(y)> with the same weight tensor
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 3 * stride, 3 * stride))
        w = rng.standard_normal((4, 3, k, k))  # conv layout (Cout, Cin, k, k)
        y = rng.standard_normal((2, 4, 3, 3))
        cx = ag.conv2d(Tensor(x), Tensor(w), stride=stride, padding=p).data
        ty = ag.conv_transpose2d(Tensor(y), Tensor(w), stride=stride, padding=p).data
        assert abs(np.vdot(cx, y) - np.vdot(x, ty)) < 1e-10

    @pytest.mark.parametrize("stride,k,p", [(2, 4, 1), (4, 8, 2)])
    def test_gradcheck(self, stride, k, p):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, k, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def fn(x, w, b):
            return ag.mean(ag.abs_(ag.conv_transpose2d(x, w, b, stride=stride, padding=p)))

        assert fd_gradcheck(fn, [x, w, b], rng=rng) < 1e-4


# ---------------------------------------------------------------------------
# bilinear_sample
# ---------------------------------------------------------------------------

class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(19)
        fmap = rng.standard_normal((1, 3, 5, 6))
        coords = np.array([[[2.0, 3.0], [0.0, 0.0], [5.0, 4.0]]])
        got = ag.bilinear_sample(Tensor(fmap), Tensor(coords)).data
        assert np.abs(got[0, 0] - fmap[0, :, 3, 2]).max() < 1e-15
        assert np.abs(got[0, 1] - fmap[0, :, 0, 0]).max() < 1e-15
        assert np.abs(got[0, 2] - fmap[0, :, 4, 5]).max() < 1e-15

    def test_block_midpoint_is_mean(self):
        fmap = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
        coords = np.array([[[0.5, 0.5]]])
        got = ag.bilinear_sample(Tensor(fmap), Tensor(coords)).data
        assert abs(got[0, 0, 0] - fmap.mean()) < 1e-15

    def test_matches_corner_oracle(self):
        rng = np.random.default_rng(20)
        fmap = rng.standard_normal((2, 4, 7, 9))
        coords = rng.uniform(-1.0, 10.0, size=(2, 12, 2))  # includes out-of-range
        got = ag.bilinear_sample(Tensor(fmap), Tensor(coords)).data
        want = bilinear_corner_oracle(fmap, coords)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_clamping_returns_border_pixel(self):
        rng = np.random.default_rng(21)
        fmap = rng.standard_normal((1, 2, 4, 4))
        coords = np.array([[[-50.0, -50.0], [50.0, 50.0]]])
        got = ag.bilinear_sample(Tensor(fmap), Tensor(coords)).data
        assert np.abs(got[0, 0] - fmap[0, :, 0, 0]).max() < 1e-15
        assert np.abs(got[0, 1] - fmap[0, :, 3, 3]).max() < 1e-15

    def test_linear_in_map(self):
        rng = np.random.default_rng(22)
        m1 = rng.standard_normal((1, 3, 6, 6))
        m2 = rng.standard_normal((1, 3, 6, 6))
        coords = Tensor(rng.uniform(0, 5, size=(1, 8, 2)))
        a, b = 0.37, -2.1
        lhs = ag.bilinear_sample(Tensor(a * m1 + b * m2), coords).data
        rhs = a * ag.bilinear_sample(Tensor(m1), coords).data + b * ag.bilinear_sample(Tensor(m2), coords).data
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12

    def test_gradcheck_map_and_coords(self):
        rng = np.random.default_rng(23)
        fmap = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        # keep coords strictly interior and off the lattice so FD is smooth
        coords = Tensor(rng.uniform(0.6, 4.4, size=(1, 5, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((1, 5, 3)))

        def fn(fmap, coords, c):
            return ag.sum_(ag.mul(ag.bilinear_sample(fmap, coords), c))

        assert fd_gradcheck(fn, [fmap, coords, c], rng=rng) < 1e-4


# ---------------------------------------------------------------------------
# tape mechanics and remaining primitives
# ---------------------------------------------------------------------------

class TestTape:
    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            loss = ag.sum_(ag.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_backward_on_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ag.mul(x, 2.0)
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_no_recording_outside_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ag.mul(x, 2.0)
        assert not y.requires_grad
        with Tape() as tape:
            z = ag.mul(x, 2.0)
            assert z.requires_grad
            assert len(tape) == 1

    def test_gradients_accumulate_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = ag.sum_(ag.add(ag.mul(x, 3.0), ag.mul(x, x)))
            tape.backward(loss)
        assert np.allclose(x.grad, [3.0 + 2 * 2.0])

    def test_forward_determinism_bit_identical(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        a = ag.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        b = ag.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        assert np.array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 16)) * 50)
        y = ag.softmax(x, axis=-1)
        z = ag.layer_norm(y, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.isfinite(z.data).all()

    def test_backward_frees_intermediate_gradients(self):
        # each recorded output's gradient is dead once its node has run;
        # the leaves keep theirs, and those are the finite-difference ones
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def fn(x, w):
            h = ag.gelu(ag.matmul(x, w))
            return ag.sum_(ag.mul(ag.softmax(h, axis=-1), h))

        with Tape() as tape:
            tape.backward(fn(x, w))
        outputs = [out for out, _ in tape._nodes]
        assert len(outputs) == 5
        assert all(out.grad is None for out in outputs)
        got = [x.grad, w.grad]
        x.grad = w.grad = None
        assert fd_gradcheck(fn, [x, w]) < 1e-6
        for g, leaf in zip(got, (x, w)):
            assert np.array_equal(g, leaf.grad)


class TestElementwisePrimitives:
    def test_relu_values_and_zero_subgradient(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            y = ag.sum_(ag.relu(x))
            tape.backward(y)
        assert np.array_equal(ag.relu(x).data, [0.0, 0.0, 2.0])
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_abs_sign_zero_subgradient(self):
        x = Tensor(np.array([-3.0, 0.0, 5.0]), requires_grad=True)
        with Tape() as tape:
            tape.backward(ag.sum_(ag.abs_(x)))
        assert np.array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf
        rng = np.random.default_rng(26)
        x = rng.standard_normal(64)
        got = ag.gelu(Tensor(x)).data
        want = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        assert np.abs(got - want).max() < 1e-14

    def test_cast_converts_forward_and_restores_gradient_dtype(self):
        x = Tensor(np.linspace(-2.0, 2.0, 7), requires_grad=True)
        with Tape() as tape:
            y = ag.cast(x, np.float32)
            tape.backward(ag.sum_(ag.cast(y, np.float64)))
        assert y.dtype == np.float32
        assert x.grad.dtype == np.float64
        assert np.array_equal(x.grad, np.ones(7))

    @pytest.mark.parametrize(
        "name",
        ["add", "sub", "mul", "relu", "gelu", "mean_axis", "sum_keepdims", "abs",
         "reshape", "transpose", "getitem"],
    )
    def test_gradcheck_each_primitive(self, name):
        rng = np.random.default_rng(hash(name) % (2**32))
        a = Tensor(rng.standard_normal((3, 1, 5)) + 0.05, requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)) + 0.05, requires_grad=True)

        def reduce(t):
            return ag.sum_(ag.mul(t, t))

        fns = {
            "add": lambda a, b: reduce(ag.add(a, b)),
            "sub": lambda a, b: reduce(ag.sub(a, b)),
            "mul": lambda a, b: reduce(ag.mul(a, b)),
            "relu": lambda a, b: reduce(ag.relu(ag.add(a, b))),
            "gelu": lambda a, b: reduce(ag.gelu(ag.add(a, b))),
            "mean_axis": lambda a, b: ag.sum_(ag.mean(ag.add(a, b), axis=(0, 2))),
            "sum_keepdims": lambda a, b: ag.sum_(ag.mul(ag.sum_(a, axis=2, keepdims=True), ag.sum_(b, axis=1, keepdims=True))),
            "abs": lambda a, b: ag.sum_(ag.abs_(ag.add(a, b))),
            "reshape": lambda a, b: reduce(ag.reshape(ag.add(a, b), (3, 20))),
            "transpose": lambda a, b: reduce(ag.transpose(ag.add(a, b), (2, 0, 1))),
            "getitem": lambda a, b: reduce(ag.add(a, b)[:, :, 1:4]),
        }
        assert fd_gradcheck(fns[name], [a, b], rng=rng) < 1e-4

    def test_composite_chain_gradcheck(self):
        # conv -> relu -> flatten -> affine -> softmax-weighted sum,
        # checking a deeper composition than single primitives
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        wf = Tensor(rng.standard_normal((27, 4)) * 0.3, requires_grad=True)

        def fn(x, w, wf):
            h = ag.relu(ag.conv2d(x, w, stride=2, padding=1))
            h = ag.reshape(h, (1, 27))
            logits = ag.matmul(h, wf)
            p = ag.softmax(logits, axis=-1)
            return ag.sum_(ag.mul(p, logits))

        assert fd_gradcheck(fn, [x, w, wf], rng=rng) < 1e-3

