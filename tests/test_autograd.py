"""Numeric core: forward oracles and finite-difference gradient checks."""

import warnings

import numpy as np
import pytest

from handmesh import autograd as ag
from handmesh.autograd import Tape, Tensor
from handmesh.nn import SelfAttention

from helpers import attention_composed, fd_gradcheck, getitem, relu


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


def zero_bias(w, transposed=False):
    """The zero bias of a conv2d (or, transposed, conv_transpose2d) weight, in its dtype."""
    w = w.data if isinstance(w, Tensor) else np.asarray(w)
    return Tensor(np.zeros(w.shape[1 if transposed else 0], w.dtype))


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
        err = fd_gradcheck(lambda a, b: ag.sum_(ag.matmul(a, b)), [a, b])
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

    # (a, b, bias) shapes of the decoder's two affine forms: an Affine
    # layer's (D,) bias over its (B, N, C) @ (C, D), and the token
    # upsampling's (D, 1) bias over its (D, N) @ (B, N, C)
    BIAS_SHAPES = {"affine": ((2, 5, 3), (3, 4), (4,)),
                   "token-upsampling": ((6, 5), (2, 5, 3), (6, 1))}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("form", sorted(BIAS_SHAPES))
    def test_bias_matches_separate_add_bit_for_bit(self, form, dtype):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(s).astype(dtype) for s in self.BIAS_SHAPES[form]]
        w = rng.standard_normal(np.matmul(arrays[0], arrays[1]).shape).astype(dtype)

        def run(fused):
            a, b, c = (Tensor(x.copy(), requires_grad=True) for x in arrays)
            with Tape() as tape:
                y = ag.matmul(a, b, bias=c) if fused else ag.add(ag.matmul(a, b), c)
                loss = ag.sum_(ag.mul(y, w))
                nodes = len(tape)
                tape.backward(loss)
            return [y.data, a.grad, b.grad, c.grad], nodes

        fused, n_fused = run(True)
        separate, n_separate = run(False)
        assert (n_fused, n_separate) == (3, 4)
        for got, want in zip(fused, separate):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("form", sorted(BIAS_SHAPES))
    def test_gradcheck_bias(self, form):
        rng = np.random.default_rng(6)
        a, b, c = (Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in self.BIAS_SHAPES[form])
        err = fd_gradcheck(lambda a, b, c: ag.sum_(ag.gelu(ag.matmul(a, b, bias=c))), [a, b, c])
        assert err < 1e-4


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetric_pair(self):
        y = ag.softmax(Tensor(np.zeros(2))).data
        assert np.allclose(y, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(9)
        a = ag.softmax(Tensor(v)).data
        b = ag.softmax(Tensor(v + 123.456)).data
        assert np.abs(a - b).max() < 1e-12

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        got = ag.softmax(Tensor(v)).data
        want = softmax_formula(v, -1)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_probability_vector(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 7)) * 20
        y = ag.softmax(Tensor(x)).data
        assert y.min() >= 0
        assert np.abs(y.sum(axis=1) - 1).max() < 1e-10

    def test_peaked_heatmap_rows_normalized(self):
        # the soft-argmax's spatial softmax: 21 keypoint rows over a 28x28
        # map, logits sharp enough that each row is nearly one-hot
        x = 80.0 * np.random.default_rng(9).standard_normal((3, 21, 28 * 28))
        y = ag.softmax(Tensor(x)).data
        assert y.min() >= 0
        assert np.abs(y.sum(axis=-1) - 1).max() < 1e-8

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 6)))

        def fn(x, c):
            return ag.sum_(ag.mul(ag.softmax(x), c))

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

    def test_taped_forward_keeps_no_probabilities(self):
        # backward recomputes each (N, N) probability block from q and k,
        # so the tape holds less than half of one (B, heads, N, N) array
        import tracemalloc

        b, n, c, heads = 2, 128, 8, 2
        rng = np.random.default_rng(51)
        qkv0 = rng.standard_normal((b, n, 3 * c)).astype(np.float32)
        g = Tensor(rng.standard_normal((b, n, c)).astype(np.float32))
        qkv = Tensor(qkv0.copy(), requires_grad=True)
        with Tape() as tape:
            tracemalloc.start()
            try:
                y = ag.attention(qkv, heads)
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            tape.backward(ag.sum_(ag.mul(y, g)))
        assert retained < b * heads * n * n * 4 / 2
        ref = Tensor(qkv0.copy(), requires_grad=True)
        with Tape() as tape:
            tape.backward(ag.sum_(ag.mul(attention_composed(ref, heads), g)))
        assert np.abs(qkv.grad - ref.grad).max() < 1e-6 * np.abs(ref.grad).max()

    def test_taped_self_attention_records_three_nodes(self):
        # qkv matmul with its bias, one attention node, proj matmul with its bias
        attn = SelfAttention(8, 2, np.random.default_rng(49))
        x = Tensor(np.random.default_rng(50).standard_normal((2, 5, 8)).astype(np.float32))
        with Tape() as tape:
            attn(x)
        assert len(tape) == 3


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
        got = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w)).data
        want = np.einsum("bchw,oc->bohw", x, w[:, :, 0, 0])
        assert got.shape == (2, 4, 5, 5)
        assert np.abs(got - want).max() < 1e-12

    def test_impulse_response(self):
        # cross-correlation: the output around a delta reproduces the
        # kernel flipped in both spatial axes
        x = np.zeros((1, 1, 7, 7))
        x[0, 0, 3, 3] = 1.0
        w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        y = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), stride=1, padding=1).data
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
            ag.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))

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

    def test_taped_stage0_conv_retains_only_its_output(self):
        # the tape keeps the input by reference and the batch's fold max;
        # backward folds x.data again instead of keeping a copy of the folds
        import tracemalloc

        rng = np.random.default_rng(19)
        x = Tensor(rng.random((4, 22, 224, 224), dtype=np.float32))
        w = Tensor(rng.standard_normal((24, 22, 4, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(24, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape():
                y = ag.conv2d(x, w, b, stride=2, padding=1)
                retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= y.data.nbytes + 2**20

    def test_fold_wider_than_a_block_matches_oracles(self):
        # one channel's fold, 4 * 129 * 129 elements, spans two flush blocks
        rng = np.random.default_rng(20)
        x = rng.standard_normal((1, 3, 256, 256))
        w = rng.standard_normal((2, 3, 3, 3))
        r = rng.standard_normal((1, 2, 128, 128))
        hq, wq = ag._geometry(256, 256, 3, 3, 2, 1)[2:4]
        assert 4 * hq * wq > ag._FOLD_BLOCK
        wt = Tensor(w, requires_grad=True)
        with Tape() as tape:
            y = ag.conv2d(Tensor(x), wt, zero_bias(w), stride=2, padding=1)
            tape.backward(ag.sum_(ag.mul(y, Tensor(r))))
        want = conv2d_loops(x, w, None, 2, 1)
        assert np.abs(y.data - want).max() / np.abs(want).max() < 1e-12
        xp = np.pad(x[0], ((0, 0), (1, 1), (1, 1)))
        dw = np.empty(w.shape)
        for u in range(3):
            for v in range(3):
                dw[:, :, u, v] = np.einsum("oij,cij->oc", r[0], xp[:, u : u + 256 : 2, v : v + 256 : 2])
        assert np.abs(wt.grad - dw).max() / np.abs(dw).max() < 1e-12

    @pytest.mark.parametrize("sampler", [{}, {"variant": "coarse_mesh", "upsample_scheme": "single-4x"},
                                         {"upsample_scheme": "4x-with-extra-convs"}],
                             ids=["paper", "coarse_mesh-single-4x", "keypoint-4x-with-extra-convs"])
    def test_model_folds_fit_one_block(self, sampler, tmp_path, monkeypatch):
        # _folds flushes each block of whole channels in one pass, so its
        # scratch stays one block only while no real fold channel is wider
        # than _FOLD_BLOCK (stage 0's 4 * 113 * 113 is the widest)
        from handmesh import dataio
        from handmesh.config import ExperimentConfig
        from handmesh.train import batch_loss, build_model

        widths = []
        folds = ag._folds

        def recorded(x, geom, stride):
            widths.append(stride * stride * geom[2] * geom[3])
            return folds(x, geom, stride)

        monkeypatch.setattr(ag, "_folds", recorded)
        dataio.generate_dataset(tmp_path, 1, 0)
        ds = dataio.Dataset(tmp_path)
        cfg = ExperimentConfig.from_dict({"sampler": sampler})
        with Tape() as tape:
            bd = batch_loss(build_model(cfg), ds.batch([0]), ds.assets.J, cfg.loss_weights)
            forward = len(widths)
            tape.backward(bd.total_node)
        assert 5 <= forward < len(widths)  # the backbone's five, then backward's refolds
        assert max(widths) <= ag._FOLD_BLOCK


class TestConv2dRelu:
    """conv2d(..., relu=True) is conv2d then ReLU, fused into one tape node."""

    @staticmethod
    def _run(x, w, b, r, fused):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        with Tape() as tape:
            if fused:
                y = ag.conv2d(xt, wt, bt, stride=2, padding=1, relu=True)
            else:
                y = relu(ag.conv2d(xt, wt, bt, stride=2, padding=1))
            loss = ag.sum_(ag.mul(y, Tensor(r)))
            nodes = len(tape)
            tape.backward(loss)
        return (y.data, xt.grad, wt.grad, bt.grad), nodes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_conv_then_relu_bit_for_bit(self, dtype):
        # float32 subnormal inputs go through the padded fold's flush
        x, _ = TestConvReadsSubnormalsAsZero._with_subnormals((3, 4, 10, 10), 60)
        rng = np.random.default_rng(61)
        w = rng.standard_normal((5, 4, 4, 4)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        r = rng.standard_normal((3, 5, 5, 5)).astype(dtype)
        fused, fused_nodes = self._run(x.astype(dtype), w, b, r, fused=True)
        composed, composed_nodes = self._run(x.astype(dtype), w, b, r, fused=False)
        assert (fused[0] == 0).any() and (fused[0] > 0).any()
        for name, got, want in zip(("y", "dx", "dw", "db"), fused, composed):
            assert got.dtype == dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert (fused_nodes, composed_nodes) == (3, 4)

    def test_gradcheck(self):
        rng = np.random.default_rng(62)
        x = Tensor(rng.standard_normal((2, 3, 7, 7)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.5, requires_grad=True)
        r = Tensor(rng.standard_normal((2, 4, 4, 4)))

        def fn(x, w, b):
            return ag.sum_(ag.mul(ag.conv2d(x, w, b, stride=2, padding=1, relu=True), r))

        assert fd_gradcheck(fn, [x, w, b], rng=rng) < 1e-6

    @pytest.mark.parametrize("transposed", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_kept_folds_never_share_memory(self, transposed):
        # folds kept for the weight gradient that aliased one buffer would
        # sum the last sample's fold three times
        rng = np.random.default_rng(63)
        if transposed:
            conv, x, w, r = ag.conv_transpose2d, (3, 4, 5, 5), (4, 2, 4, 4), (3, 2, 10, 10)
        else:
            conv, x, w, r = ag.conv2d, (3, 2, 10, 10), (4, 2, 4, 4), (3, 4, 5, 5)
        x, w, r = (rng.standard_normal(shape) for shape in (x, w, r))

        def weight_grad(i):
            wt = Tensor(w, requires_grad=True)
            with Tape() as tape:
                y = conv(Tensor(x[i]), wt, zero_bias(w, transposed), stride=2, padding=1)
                tape.backward(ag.sum_(ag.mul(y, Tensor(r[i]))))
            return wt.grad

        per_sample = sum(weight_grad(slice(i, i + 1)) for i in range(3))
        assert np.abs(weight_grad(slice(None)) - per_sample).max() < 1e-12 * np.abs(per_sample).max()


class TestConvPowerOfTwoScaling:
    """Scaling the input or the upstream gradient by 2**e scales each conv
    result by exactly 2**e: tiny normal inputs keep full float32 precision
    and huge ones stay finite."""

    @staticmethod
    def _run(conv, x, w, r, stride, padding):
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        with Tape() as tape:
            y = conv(xt, wt, zero_bias(w, conv is ag.conv_transpose2d), stride=stride, padding=padding)
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
    """Convs, padded or not, read float32 subnormals as zero; nothing else moves."""

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

    def test_unpadded_1x1_conv_matches_zeroed_input_bit_for_bit(self):
        # the fold rule of the keypoint and coarse heads
        x, zeroed = self._with_subnormals((2, 3, 6, 6), 49)
        w = np.random.default_rng(50).standard_normal((4, 3, 1, 1)).astype(np.float32)
        b = np.zeros(4, np.float32)
        _, y, dw, _ = self._fwd_bwd(x, w, b, padding=0)
        _, y0, dw0, _ = self._fwd_bwd(zeroed, w, b, padding=0)
        assert y.tobytes() == y0.tobytes()
        assert dw.tobytes() == dw0.tobytes()

    def test_nan_and_inf_are_kept(self):
        # the flush zeroes only |v| < tiny, and NaN fails that comparison;
        # the finite values beside NaN and inf keep their bits, 3e38 included
        x, zeroed = self._with_subnormals((1, 1, 6, 6), 45)
        x[0, 0, 2:5, 3] = zeroed[0, 0, 2:5, 3] = [np.nan, np.inf, -np.inf]
        x[0, 0, 5, 5] = zeroed[0, 0, 5, 5] = 3e38
        w = np.ones((1, 1, 1, 1), np.float32)
        y = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), padding=1).data
        assert y.dtype == np.float32
        assert np.array_equal(y[0, 0, 1:-1, 1:-1], zeroed[0, 0], equal_nan=True)

    def test_folds_wider_than_a_block_hold_each_sample(self):
        # sample 0 is the larger: a flush block that ran past its channel
        # would read sample 0's next channel into sample 1's max
        x, _ = self._with_subnormals((2, 3, 256, 256), 48)
        x[1] *= np.float32(1e-3)
        zeroed = np.where(np.abs(x) < np.finfo(np.float32).tiny, np.float32(0), x)
        geom = ag._geometry(256, 256, 3, 3, 2, 1)
        for xb, zb, (xf, amax) in zip(x, zeroed, ag._folds(x, geom, 2)):
            xp = np.pad(zb, ((0, 0), (1, 1), (1, 1)))
            want = xp.reshape(3, 129, 2, 129, 2).transpose(0, 2, 4, 1, 3).reshape(12, 129 * 129)
            assert xf.tobytes() == want.tobytes()
            assert amax == np.abs(xb).max()

    def test_fold_wider_than_a_block_matches_zeroed_input_bit_for_bit(self):
        x, zeroed = self._with_subnormals((1, 3, 256, 256), 46)
        rng = np.random.default_rng(47)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        r = Tensor(rng.standard_normal((1, 2, 128, 128)).astype(np.float32))
        results = []
        for xs in (x, zeroed):
            xt, wt = Tensor(xs, requires_grad=True), Tensor(w, requires_grad=True)
            with Tape() as tape:
                y = ag.conv2d(xt, wt, zero_bias(w), stride=2, padding=1)
                tape.backward(ag.sum_(ag.mul(y, r)))
            results.append((y.data, wt.grad, xt.grad))
        for name, got, want in zip(("y", "dw", "dx"), *results):
            assert got.dtype == np.float32, name
            assert got.tobytes() == want.tobytes(), name

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
        y = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), padding=1).data
        y0 = ag.conv2d(Tensor(np.zeros_like(x)), Tensor(w), zero_bias(w), padding=1).data
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
        # every fold flushes subnormals, the padded ones included
        subnormals = []
        folds = ag._folds

        def checked(x, geom, stride):
            for xf, amax in folds(x, geom, stride):  # one sample: B == 1
                subnormals.append(int(((xf != 0) & (np.abs(xf) < tiny)).sum()))
                yield xf, amax

        monkeypatch.setattr(ag, "_folds", checked)
        build_model(ExperimentConfig())(Tensor(img[None]))
        assert len(subnormals) >= 5  # one per backbone stage
        assert subnormals == [0] * len(subnormals)


# ---------------------------------------------------------------------------
# conv_transpose2d
# ---------------------------------------------------------------------------

class TestConvTranspose2d:
    @pytest.mark.parametrize("h,stride,k,p,expected", [(7, 2, 4, 1, 14), (7, 4, 8, 2, 28), (14, 2, 4, 1, 28)])
    def test_exact_upsampling_shape(self, h, stride, k, p, expected):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((1, 3, h, h)))
        w = Tensor(rng.standard_normal((3, 2, k, k)))
        y = ag.conv_transpose2d(x, w, zero_bias(w, True), stride=stride, padding=p)
        assert y.shape == (1, 2, expected, expected)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(15)
        w = Tensor(rng.standard_normal((3, 2, 4, 4)))
        y = ag.conv_transpose2d(Tensor(np.zeros((1, 3, 5, 5))), w, zero_bias(w, True), stride=2, padding=1)
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
            ag.conv_transpose2d(x, w, zero_bias(w, True), stride=stride, padding=p)

    @pytest.mark.parametrize("stride,k,p", [(2, 4, 1), (4, 8, 2)])
    def test_adjoint_of_conv2d(self, stride, k, p):
        # <conv(x), y> == <x, tconv(y)> with the same weight tensor
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 3 * stride, 3 * stride))
        w = rng.standard_normal((4, 3, k, k))  # conv layout (Cout, Cin, k, k)
        y = rng.standard_normal((2, 4, 3, 3))
        cx = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), stride=stride, padding=p).data
        ty = ag.conv_transpose2d(Tensor(y), Tensor(w), zero_bias(w, True), stride=stride, padding=p).data
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

    def test_repeated_point_doubles_map_gradient(self):
        rng = np.random.default_rng(24)
        fmap = rng.standard_normal((2, 3, 5, 6))
        point = rng.uniform(0.3, 4.7, size=(2, 1, 2))
        g = rng.standard_normal((2, 1, 3))
        grads = []
        for n in (1, 2):
            fm = Tensor(fmap.copy(), requires_grad=True)
            with Tape() as tape:
                out = ag.bilinear_sample(fm, Tensor(np.repeat(point, n, axis=1)))
                tape.backward(ag.sum_(ag.mul(out, Tensor(np.repeat(g, n, axis=1)))))
            grads.append(fm.grad)
        assert np.array_equal(grads[1], 2 * grads[0])

    @pytest.mark.parametrize("shape", [(1, 2, 1, 6), (1, 2, 6, 1)], ids=["one-row", "one-column"])
    def test_one_pixel_axis_matches_interp(self, shape):
        rng = np.random.default_rng(25)
        fmap = rng.standard_normal(shape)
        line = fmap.reshape(2, 6)
        t = np.linspace(-1.0, 7.0, 33)
        xy = np.stack([t, t], axis=-1)[None]  # the one-pixel axis clamps to 0
        got = ag.bilinear_sample(Tensor(fmap), Tensor(xy)).data[0]  # (33, 2)
        want = np.stack([np.interp(t, np.arange(6), line[ch]) for ch in range(2)], axis=-1)
        assert np.abs(got - want).max() < 1e-12


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
        a = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), stride=2, padding=1).data
        b = ag.conv2d(Tensor(x), Tensor(w), zero_bias(w), stride=2, padding=1).data
        assert np.array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 16)) * 50)
        y = ag.softmax(x)
        z = ag.layer_norm(y, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.isfinite(z.data).all()

    def test_backward_frees_intermediate_gradients(self):
        # backward drops each node once it has run: the tape ends empty, an
        # output nothing else holds is freed with its array, and the other
        # recorded outputs lose their gradients; the leaves keep theirs, and
        # those are the finite-difference ones
        import weakref

        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def fn(x, w):
            h = ag.gelu(ag.matmul(x, w))
            return ag.sum_(ag.mul(ag.softmax(h), h))

        with Tape() as tape:
            loss = fn(x, w)
            assert len(tape) == 5
            product = weakref.ref(tape._nodes[0][0].data)  # matmul's output
            outputs = [out for out, _ in tape._nodes[1:]]
            tape.backward(loss)
        assert len(tape) == 0
        assert product() is None
        assert all(out.grad is None for out in outputs)
        got = [x.grad, w.grad]
        x.grad = w.grad = None
        assert fd_gradcheck(fn, [x, w]) < 1e-6
        for g, leaf in zip(got, (x, w)):
            assert np.array_equal(g, leaf.grad)


# every differentiable primitive, as (call, [(input name, shape), ...])
PRIMITIVE_CALLS = {
    "add": (ag.add, [("a", (2, 3)), ("b", (2, 3))]),
    "mul": (ag.mul, [("a", (2, 3)), ("b", (2, 3))]),
    "sum_": (ag.sum_, [("x", (2, 3))]),
    "mean": (ag.mean, [("x", (2, 3))]),
    "abs_": (ag.abs_, [("x", (2, 3))]),
    "reshape": (lambda x: ag.reshape(x, (3, 2)), [("x", (2, 3))]),
    "transpose": (lambda x: ag.transpose(x, (1, 0)), [("x", (2, 3))]),
    "matmul": (ag.matmul, [("a", (2, 3)), ("b", (3, 4)), ("bias", (4,))]),
    "cast": (lambda x: ag.cast(x, np.float32), [("x", (2, 3))]),
    "gelu": (ag.gelu, [("x", (2, 3))]),
    "softmax": (ag.softmax, [("x", (2, 3))]),
    "attention": (lambda qkv: ag.attention(qkv, 2), [("qkv", (1, 3, 12))]),
    "layer_norm": (ag.layer_norm, [("x", (2, 3)), ("gamma", (3,)), ("beta", (3,))]),
    "conv2d": (lambda x, w, b: ag.conv2d(x, w, b, padding=1),
               [("x", (1, 2, 4, 4)), ("w", (3, 2, 3, 3)), ("b", (3,))]),
    "conv_transpose2d": (ag.conv_transpose2d, [("x", (1, 2, 3, 3)), ("w", (2, 3, 4, 4)), ("b", (3,))]),
    "bilinear_sample": (ag.bilinear_sample, [("fmap", (1, 2, 4, 4)), ("coords", (1, 3, 2))]),
}


class TestRecordingRule:
    """An output requires a gradient, and is one tape node, exactly when a
    Tape is active and some input requires a gradient."""

    @pytest.mark.parametrize("name,wants", [
        pytest.param(name, i, id=f"{name}-{arg}")
        for name, (_, args) in PRIMITIVE_CALLS.items() for i, (arg, _) in enumerate(args)])
    def test_one_node_exactly_when_an_input_wants_grad(self, name, wants):
        fn, args = PRIMITIVE_CALLS[name]
        rng = np.random.default_rng(29)
        inputs = [Tensor(rng.random(shape) * 3) for _, shape in args]
        with Tape() as tape:
            assert not fn(*inputs).requires_grad
        assert len(tape) == 0
        inputs[wants].requires_grad = True
        assert not fn(*inputs).requires_grad
        with Tape() as tape:
            out = fn(*inputs)
        assert out.requires_grad
        assert len(tape) == 1 and tape._nodes[0][0] is out


class TestErf:
    """ag.erf, which gelu is built on, against scipy.special.erf."""

    def test_float32_equals_scipy_over_the_clamp_range(self):
        from scipy.special import erf
        x = np.concatenate([np.linspace(-8.0, 8.0, 1 << 20, dtype=np.float32),
                            np.random.default_rng(28).standard_normal(1 << 18).astype(np.float32)])
        got = ag.erf(x)
        assert got.dtype == np.float32
        assert got.tobytes() == erf(x).tobytes()

    def test_float64_within_one_ulp_of_scipy(self):
        # np.exp, not the C library's exp, so a few values differ by one ulp
        from scipy.special import erf
        x = np.concatenate([np.linspace(-8.0, 8.0, 1 << 20),
                            np.random.default_rng(29).uniform(-9.0, 9.0, 1 << 18)])
        assert np.abs(ag.erf(x) - erf(x)).max() <= 2.2e-16

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_inputs_match_scipy_without_warnings(self, dtype):
        from scipy.special import erf
        tiny, f32max = np.finfo(dtype).smallest_subnormal, np.finfo(np.float32).max
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e30, f32max, -f32max,
                      tiny, -tiny, 3 * tiny, 1.0, -1.0, 8.0, -8.0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ag.erf(x)
        want = erf(x)
        assert got.dtype == dtype
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))  # erf(-0) is -0


class TestElementwisePrimitives:
    def test_relu_values_and_zero_subgradient(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            y = ag.sum_(relu(x))
            tape.backward(y)
        assert np.array_equal(relu(x).data, [0.0, 0.0, 2.0])
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
        ["add", "mul", "relu", "gelu", "mean_axis", "abs",
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
            "mul": lambda a, b: reduce(ag.mul(a, b)),
            "relu": lambda a, b: reduce(relu(ag.add(a, b))),
            "gelu": lambda a, b: reduce(ag.gelu(ag.add(a, b))),
            "mean_axis": lambda a, b: ag.sum_(ag.mean(ag.add(a, b), axis=(0, 2))),
            "abs": lambda a, b: ag.sum_(ag.abs_(ag.add(a, b))),
            "reshape": lambda a, b: reduce(ag.reshape(ag.add(a, b), (3, 20))),
            "transpose": lambda a, b: reduce(ag.transpose(ag.add(a, b), (2, 0, 1))),
            "getitem": lambda a, b: reduce(getitem(ag.add(a, b), (slice(None), slice(None), slice(1, 4)))),
        }
        assert fd_gradcheck(fns[name], [a, b], rng=rng) < 1e-4

    def test_composite_chain_gradcheck(self):
        # conv+relu -> flatten -> affine -> softmax-weighted sum,
        # checking a deeper composition than single primitives
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        wf = Tensor(rng.standard_normal((27, 4)) * 0.3, requires_grad=True)

        def fn(x, w, wf):
            h = ag.conv2d(x, w, zero_bias(w), stride=2, padding=1, relu=True)
            h = ag.reshape(h, (1, 27))
            logits = ag.matmul(h, wf)
            p = ag.softmax(logits)
            return ag.sum_(ag.mul(p, logits))

        assert fd_gradcheck(fn, [x, w, wf], rng=rng) < 1e-3

