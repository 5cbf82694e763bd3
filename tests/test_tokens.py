"""Token generator: config law, upsampling schemes, soft-argmax, sampling."""

from dataclasses import asdict

import numpy as np
import pytest

from handmesh import autograd as ag
from handmesh.autograd import Tape, Tensor
from handmesh.rng import substream
from handmesh.tokens import (
    COARSE_TOKENS,
    NUM_KEYPOINTS,
    FeatureUpsampler,
    SamplerConfig,
    TokenGenerator,
    ToyBackbone,
    expected_tokens,
    feature_coords_from_image,
    sample_tokens,
    soft_argmax_2d,
)

from helpers import fd_gradcheck


# --- oracles -----------------------------------------------------------

def softargmax_oracle(logits, image_size=224):
    """Direct expectation sum_p p(u,v)*(u,v), then the linear pixel map."""
    b, k, h, w = logits.shape
    flat = logits.reshape(b, k, h * w)
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x_f = (p * xs.reshape(-1)).sum(axis=-1)
    y_f = (p * ys.reshape(-1)).sum(axis=-1)
    stride = image_size / w
    coords_f = np.stack([x_f, y_f], axis=-1)
    return (coords_f + 0.5) * stride - 0.5


def bilinear_oracle(fmap, coords):
    """Per-point 4-corner interpolation with border clamping."""
    b, c, h, w = fmap.shape
    out = np.zeros((b, coords.shape[1], c))
    for bi in range(b):
        for ni, (x, y) in enumerate(coords[bi]):
            x = min(max(x, 0.0), w - 1.0)
            y = min(max(y, 0.0), h - 1.0)
            x0 = min(int(np.floor(x)), w - 2)
            y0 = min(int(np.floor(y)), h - 2)
            fx, fy = x - x0, y - y0
            out[bi, ni] = (
                fmap[bi, :, y0, x0] * (1 - fx) * (1 - fy)
                + fmap[bi, :, y0, x0 + 1] * fx * (1 - fy)
                + fmap[bi, :, y0 + 1, x0] * (1 - fx) * fy
                + fmap[bi, :, y0 + 1, x0 + 1] * fx * fy
            )
    return out


# --- config law --------------------------------------------------------

class TestSamplerConfig:
    @pytest.mark.parametrize("variant,res,scheme,n", [
        ("global", 7, "none", 1),
        ("grid", 7, "none", 49),
        ("keypoint", 7, "none", 21),
        ("keypoint", 14, "single-2x", 21),
        ("keypoint", 28, "single-4x", 21),
        ("keypoint", 28, "double-2x", 21),
        ("keypoint_enhanced", 28, "4x-with-extra-convs", 21),
        ("coarse_mesh", 28, "double-2x", 98),
    ])
    def test_valid_configs_and_token_law(self, variant, res, scheme, n):
        cfg = SamplerConfig(variant, res, scheme)
        assert expected_tokens(cfg) == n

    @pytest.mark.parametrize("variant,res,scheme", [
        ("global", 14, "single-2x"),
        ("global", 7, "double-2x"),
        ("grid", 28, "double-2x"),
        ("keypoint", 28, "none"),  # resolution 28 needs an upsampler
        ("keypoint", 14, "none"),
        ("keypoint", 7, "single-4x"),
        ("keypoint_enhanced", 28, "double-2x"),
        ("nonsense", 7, "none"),
        ("keypoint", 28, "bicubic"),
        ("keypoint", 13, "none"),
    ])
    def test_invalid_configs_rejected(self, variant, res, scheme):
        with pytest.raises(ValueError):
            SamplerConfig(variant, res, scheme)

    def test_dict_round_trip(self):
        cfg = SamplerConfig("keypoint_enhanced", 28, "4x-with-extra-convs")
        assert SamplerConfig(**asdict(cfg)) == cfg


# --- backbone ----------------------------------------------------------

class TestToyBackbone:
    def test_spatial_reduction_224_to_7(self):
        bb = ToyBackbone(22, substream(0, "bb"))
        out = bb(Tensor(np.zeros((1, 22, 224, 224), dtype=np.float32)))
        assert out.shape == (1, 64, 7, 7)

    def test_indivisible_input_rejected(self):
        bb = ToyBackbone(3, substream(0, "bb"))
        with pytest.raises(ValueError):
            bb(Tensor(np.zeros((1, 3, 100, 100), dtype=np.float32)))

    def test_zero_input_zero_biases_gives_zero(self):
        bb = ToyBackbone(3, substream(1, "bb"))
        out = bb(Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32)))
        assert np.all(out.data == 0.0)

    def test_weight_gradients_finite_difference(self):
        bb = ToyBackbone(2, substream(2, "bb")).astype(np.float64)
        x = substream(3, "x").normal(size=(1, 2, 32, 32))

        def fn(*_):
            return ag.sum_(bb(Tensor(x)))

        params = [p for name, p in bb.named_parameters() if name.endswith("weight")][:5]
        rng = np.random.default_rng(0)
        assert fd_gradcheck(fn, params, rng=rng, max_checks=3) < 1e-3


# --- upsampling schemes ------------------------------------------------

class TestFeatureUpsampler:
    def _x(self, seed, res=7, c=6):
        return Tensor(substream(seed, "feat").normal(size=(2, c, res, res)))

    def test_scheme_none_is_identity(self):
        up = FeatureUpsampler("none", 6, substream(0, "up")).astype(np.float64)
        x = self._x(1)
        out = up(x)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("scheme,out_res", [
        ("single-2x", 14), ("single-4x", 28), ("double-2x", 28), ("4x-with-extra-convs", 28),
    ])
    def test_output_resolutions(self, scheme, out_res):
        up = FeatureUpsampler(scheme, 6, substream(2, "up")).astype(np.float64)
        assert up(self._x(3)).shape == (2, 6, out_res, out_res)

    def test_double_2x_matches_explicit_composition(self):
        up = FeatureUpsampler("double-2x", 6, substream(4, "up")).astype(np.float64)
        x = self._x(5)
        mid = ag.conv_transpose2d(x, up.steps[0][1].weight, up.steps[0][1].bias,
                                  stride=2, padding=1)
        assert mid.shape[2:] == (14, 14)
        two_step = ag.conv_transpose2d(mid, up.steps[1][1].weight, up.steps[1][1].bias,
                                       stride=2, padding=1)
        got = up(x)
        rel = np.abs(got.data - two_step.data).max() / np.abs(two_step.data).max()
        assert rel < 1e-12

    def test_extra_convs_scheme_is_nonlinear(self):
        # with zero biases a purely linear scheme is odd: f(-x) == -f(x).
        # The interleaved ReLUs must break that symmetry.
        up = FeatureUpsampler("4x-with-extra-convs", 4, substream(6, "up")).astype(np.float64)
        lin = FeatureUpsampler("double-2x", 4, substream(6, "lin")).astype(np.float64)
        x = self._x(7, c=4)
        neg = Tensor(-x.data)
        assert np.allclose(lin(neg).data, -lin(x).data, atol=1e-12)
        assert np.abs(up(neg).data + up(x).data).max() > 1e-6


# --- keypoint prediction -----------------------------------------------

class TestSoftArgmax:
    def test_one_hot_logit_recovers_pixel_center(self):
        h = w = 28
        logits = np.zeros((1, 1, h, w))
        logits[0, 0, 10, 17] = 50.0  # (y, x)
        _, coords = soft_argmax_2d(Tensor(logits))
        expect_x = (17 + 0.5) * 8 - 0.5
        expect_y = (10 + 0.5) * 8 - 0.5
        assert abs(coords.data[0, 0, 0] - expect_x) < 1e-3
        assert abs(coords.data[0, 0, 1] - expect_y) < 1e-3

    @pytest.mark.parametrize("res,center", [(7, 111.5), (14, 111.5), (28, 111.5)])
    def test_uniform_logits_give_image_center(self, res, center):
        _, coords = soft_argmax_2d(Tensor(np.zeros((1, 3, res, res))))
        assert np.allclose(coords.data, center, atol=1e-9)

    @pytest.mark.parametrize("dtype,tol_px", [(np.float64, 1e-8), (np.float32, 1e-3)],
                             ids=["float64", "float32"])
    def test_matches_direct_expectation_oracle(self, dtype, tol_px):
        logits = substream(8, "logits").normal(size=(2, 21, 14, 14)).astype(dtype)
        heat, coords = soft_argmax_2d(Tensor(logits))
        assert coords.dtype == dtype
        want = softargmax_oracle(logits.astype(np.float64))
        assert np.abs(coords.data - want).max() < tol_px

    def test_taped_soft_argmax_records_four_nodes(self):
        # reshape, softmax, the expectation product, the heatmap reshape
        logits = Tensor(substream(8, "logits").normal(size=(2, 21, 14, 14)), requires_grad=True)
        with Tape() as tape:
            soft_argmax_2d(logits)
        assert len(tape) == 4

    def test_heatmaps_normalized_and_coords_in_bounds(self):
        logits = 80.0 * substream(9, "logits").normal(size=(3, 21, 28, 28))
        heat, coords = soft_argmax_2d(Tensor(logits))
        sums = heat.data.sum(axis=(2, 3))
        assert np.abs(sums - 1.0).max() < 1e-8
        assert coords.data.min() >= 0.0
        assert coords.data.max() <= 223.0


# --- token sampling ----------------------------------------------------

class TestSampleTokens:
    def test_global_constant_map(self):
        cfg = SamplerConfig("global", 7, "none")
        feat = Tensor(np.full((2, 5, 7, 7), 3.25))
        tokens = sample_tokens(feat, cfg)
        assert tokens.shape == (2, 1, 5)
        assert np.all(tokens.data == 3.25)

    def test_grid_enumeration_reproduces_feature_map(self):
        cfg = SamplerConfig("grid", 7, "none")
        feat = substream(10, "feat").normal(size=(2, 5, 7, 7))
        tokens = sample_tokens(Tensor(feat), cfg)
        assert tokens.shape == (2, 49, 5)
        back = tokens.data.transpose(0, 2, 1).reshape(2, 5, 7, 7)
        assert np.array_equal(back, feat)

    def test_keypoint_integer_lattice_hits_exact_pixels(self):
        cfg = SamplerConfig("keypoint", 28, "double-2x")
        rng = substream(11, "feat")
        feat = rng.normal(size=(1, 4, 28, 28))
        cells = rng.integers(0, 28, size=(1, 21, 2))  # (x, y) feature cells
        coords_img = (cells + 0.5) * 8.0 - 0.5
        tokens = sample_tokens(Tensor(feat), cfg, kp_coords=Tensor(coords_img))
        want = feat[0, :, cells[0, :, 1], cells[0, :, 0]]
        assert np.abs(tokens.data[0] - want).max() < 1e-12

    def test_keypoint_fractional_matches_corner_oracle(self):
        cfg = SamplerConfig("keypoint", 14, "single-2x")
        rng = substream(12, "feat")
        feat = rng.normal(size=(2, 6, 14, 14))
        coords_img = rng.uniform(0, 223, size=(2, 21, 2))
        tokens = sample_tokens(Tensor(feat), cfg, kp_coords=Tensor(coords_img))
        coords_f = (coords_img + 0.5) / 16.0 - 0.5
        want = bilinear_oracle(feat, coords_f)
        rel = np.abs(tokens.data - want).max() / np.abs(want).max()
        assert rel < 1e-12

    def test_far_pixel_invariance_is_exact(self):
        cfg = SamplerConfig("keypoint", 28, "double-2x")
        rng = substream(13, "feat")
        feat = rng.normal(size=(1, 4, 28, 28))
        # keep every sampled neighborhood inside the left half of the map
        coords_img = rng.uniform(0, 80, size=(1, 21, 2))
        base = sample_tokens(Tensor(feat), cfg, kp_coords=Tensor(coords_img)).data
        poked = feat.copy()
        poked[:, :, :, 20:] += rng.normal(size=(1, 4, 28, 8))  # far columns only
        again = sample_tokens(Tensor(poked), cfg, kp_coords=Tensor(coords_img)).data
        assert np.array_equal(base, again)

    def test_coarse_mesh_needs_coords_and_counts_98(self):
        cfg = SamplerConfig("coarse_mesh", 28, "double-2x")
        feat = Tensor(np.zeros((1, 4, 28, 28)))
        with pytest.raises(ValueError):
            sample_tokens(feat, cfg)
        coords = Tensor(np.full((1, COARSE_TOKENS, 2), 100.0))
        tokens = sample_tokens(feat, cfg, coarse_coords=coords)
        assert tokens.shape == (1, COARSE_TOKENS, 4)

    def test_resolution_mismatch_rejected(self):
        cfg = SamplerConfig("keypoint", 28, "double-2x")
        with pytest.raises(ValueError):
            sample_tokens(Tensor(np.zeros((1, 4, 14, 14))), cfg,
                          kp_coords=Tensor(np.zeros((1, 21, 2))))

    def test_gradient_reaches_coordinates(self):
        cfg = SamplerConfig("keypoint", 14, "single-2x")
        rng = substream(14, "feat")
        feat = Tensor(rng.normal(size=(1, 3, 14, 14)))
        coords = Tensor(rng.uniform(40, 180, size=(1, 21, 2)), requires_grad=True)

        def fn(c):
            tokens = sample_tokens(feat, cfg, kp_coords=c)
            return ag.sum_(ag.mul(tokens, tokens))

        assert fd_gradcheck(fn, [coords]) < 1e-3


# --- full generator ----------------------------------------------------

class TestTokenGenerator:
    def _image(self, seed, b=1):
        return Tensor(substream(seed, "img").normal(size=(b, 5, 224, 224)).astype(np.float32))

    @pytest.mark.parametrize("variant,res,scheme", [
        ("global", 7, "none"),
        ("grid", 7, "none"),
        ("keypoint", 28, "double-2x"),
        ("keypoint_enhanced", 28, "4x-with-extra-convs"),
        ("coarse_mesh", 28, "double-2x"),
    ])
    def test_forward_obeys_token_count_law(self, variant, res, scheme):
        cfg = SamplerConfig(variant, res, scheme)
        gen = TokenGenerator(cfg, 5, substream(15, "gen"))
        tokens, kp_coords = gen(self._image(16))
        assert tokens.shape == (1, expected_tokens(cfg), 64)
        assert kp_coords.shape == (1, NUM_KEYPOINTS, 2)
        assert np.isfinite(tokens.data).all()

    def test_forward_is_deterministic(self):
        cfg = SamplerConfig("keypoint", 28, "double-2x")
        gen = TokenGenerator(cfg, 5, substream(17, "gen"))
        img = self._image(18)
        a, _ = gen(img)
        b, _ = gen(img)
        assert np.array_equal(a.data, b.data)

    def test_gradient_flows_into_keypoint_head(self):
        cfg = SamplerConfig("keypoint", 14, "single-2x")
        gen = TokenGenerator(cfg, 3, substream(19, "gen")).astype(np.float64)
        img = Tensor(substream(20, "img").normal(size=(1, 3, 224, 224)))
        with Tape() as tape:
            tokens, _ = gen(img)
            tape.backward(ag.sum_(ag.mul(tokens, tokens)))
        g = gen.kp_head.weight.grad
        assert g is not None and np.abs(g).sum() > 0.0
