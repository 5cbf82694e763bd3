"""Token generator: image to backbone features to a small token set.

A five-stage stride-2 backbone reduces 224x224 input to a 7x7 feature
map, optionally upsampled to 14x14 or 28x28 by transposed convolutions.
A 1x1 head predicts 21 keypoint heatmaps whose soft-argmax expectations
give differentiable 2D coordinates in full-image pixels; token variants
then pool, enumerate, or bilinearly sample the feature map.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .nn import Conv2d, ConvTranspose2d, Module

VARIANTS = ("global", "grid", "keypoint", "keypoint_enhanced", "coarse_mesh")
SCHEMES = ("none", "single-2x", "single-4x", "double-2x", "4x-with-extra-convs")

NUM_KEYPOINTS = 21
COARSE_TOKENS = 98  # every-8th vertex of the 778-vertex template
# stage 0 is at least as wide as the input so every channel keeps a
# pass-through slot under the smoothing init below
BACKBONE_WIDTHS = (24, 32, 64, 64, 64)

_SCHEME_RESOLUTION = {
    "none": 7,
    "single-2x": 14,
    "single-4x": 28,
    "double-2x": 28,
    "4x-with-extra-convs": 28,
}


@dataclass
class SamplerConfig:
    variant: str = "keypoint"
    target_resolution: int = 28
    upsample_scheme: str = "double-2x"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sampler variant {self.variant!r}, expected one of {VARIANTS}")
        if self.upsample_scheme not in SCHEMES:
            raise ValueError(f"unknown upsample scheme {self.upsample_scheme!r}, expected one of {SCHEMES}")
        if _SCHEME_RESOLUTION[self.upsample_scheme] != self.target_resolution:
            raise ValueError(
                f"scheme {self.upsample_scheme!r} yields resolution "
                f"{_SCHEME_RESOLUTION[self.upsample_scheme]}, config asks for {self.target_resolution}"
            )
        if self.variant in ("global", "grid") and (self.target_resolution != 7 or self.upsample_scheme != "none"):
            raise ValueError(f"{self.variant} sampling runs at resolution 7 with no upsampling")
        if self.variant == "keypoint_enhanced" and self.upsample_scheme != "4x-with-extra-convs":
            raise ValueError("keypoint_enhanced requires the 4x-with-extra-convs scheme")


def expected_tokens(cfg):
    if cfg.variant == "global":
        return 1
    if cfg.variant == "grid":
        return cfg.target_resolution * cfg.target_resolution
    if cfg.variant in ("keypoint", "keypoint_enhanced"):
        return NUM_KEYPOINTS
    return COARSE_TOKENS


def _tent(k, stride):
    """The k taps of the linear-interpolation (tent) filter at this stride."""
    taps = np.arange(k, dtype=np.float64)
    return np.maximum(0.0, 1.0 - np.abs(taps + 0.5 - k / 2.0) / stride)


def _add_smoothing_passthrough(conv):
    """Re-init matched channels of a conv as per-channel smoothing kernels.

    Keeps input geometry (blob centroids in particular) linearly decodable
    at init instead of scrambling it through random projections; without
    this the soft-argmax coordinates cannot localize before the spatial
    softmax sharpens and freezes them. For stride-2 convs the kernel is the
    tent filter adjoint to bilinear upsampling, so its centroid matches the
    half-pixel grid alignment the coordinate mapping assumes. Channels
    beyond the input width keep their random init and supply learnable
    mixtures. A gain of 1.4, slightly above 1, counters blur dilution.
    """
    w = conv.weight.data
    cout, cin, k, _ = w.shape
    if conv.stride == 1:
        kern = np.full((k, k), 1.0 / (k * k), dtype=w.dtype)
    else:
        t = _tent(k, conv.stride)
        t /= t.sum()
        kern = np.outer(t, t).astype(w.dtype)
    for j in range(min(cin, cout)):
        w[j] = 0.0
        w[j, j] = 1.4 * kern


def _add_bilinear_passthrough(tconv, stride):
    """Re-init matched channels of a transposed conv as bilinear upsampling."""
    w = tconv.weight.data
    cin, cout, k, _ = w.shape
    t = _tent(k, stride)
    kern = np.outer(t, t).astype(w.dtype)
    for j in range(min(cin, cout)):
        w[:, j] = 0.0
        w[j, j] = kern


class ToyBackbone(Module):
    """Five stride-2 4x4 conv stages with ReLU: (B,Cin,224,224) -> (B,64,7,7).

    Kernel 4 with padding 1 keeps each stage's sampling lattice on the
    half-pixel alignment the coordinate mapping assumes.
    """

    def __init__(self, c_in, rng):
        self.stages = []
        prev = c_in
        for w in BACKBONE_WIDTHS:
            stage = Conv2d(prev, w, 4, rng, stride=2, padding=1)
            _add_smoothing_passthrough(stage)
            self.stages.append(stage)
            prev = w
        self.out_channels = prev

    def __call__(self, x):
        if x.shape[2] % 32 or x.shape[3] % 32:
            raise ValueError(f"backbone input spatial dims must divide 32, got {x.shape}")
        for stage in self.stages:
            x = ag.relu(stage(x))
        return x


class FeatureUpsampler(Module):
    """Implements the upsample schemes; channel width is preserved."""

    def __init__(self, scheme, channels, rng):
        self.scheme = scheme
        self.steps = []
        if scheme == "single-2x":
            self._add_tconv(channels, 4, 2, 1, rng)
        elif scheme == "single-4x":
            self._add_tconv(channels, 8, 4, 2, rng)
        elif scheme in ("double-2x", "4x-with-extra-convs"):
            for _ in range(2):
                self._add_tconv(channels, 4, 2, 1, rng)
                if scheme == "4x-with-extra-convs":
                    conv = Conv2d(channels, channels, 3, rng, stride=1, padding=1)
                    _add_smoothing_passthrough(conv)
                    self.steps.append(("conv", conv))

    def _add_tconv(self, channels, k, stride, padding, rng):
        tconv = ConvTranspose2d(channels, channels, k, rng, stride=stride, padding=padding)
        _add_bilinear_passthrough(tconv, stride)
        self.steps.append(("tconv", tconv))

    def __call__(self, x):
        for kind, layer in self.steps:
            x = layer(x)
            if kind == "conv":
                x = ag.relu(x)
        return x


def feature_coords_from_image(coords_img, stride):
    return ag.add(ag.mul(ag.add(coords_img, 0.5), 1.0 / float(stride)), -0.5)


def soft_argmax_2d(logits, image_size=224):
    """Spatial softmax + expectation: logits (B,K,H,W) -> (heatmaps, coords).

    Coordinates are one expectation over the cell centers in full-image
    pixels, (x + 0.5) * stride - 0.5 per axis, so they always land strictly
    inside the image.
    """
    b, k, h, w = logits.shape
    p = ag.softmax(ag.reshape(logits, (b, k, h * w)), axis=-1)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cells = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=-1)
    centers = Tensor(((cells + 0.5) * (image_size / w) - 0.5).astype(logits.dtype))
    return ag.reshape(p, (b, k, h, w)), ag.matmul(p, centers)


def sample_tokens(feat, cfg, kp_coords=None, coarse_coords=None, image_size=224):
    """Pool, enumerate, or point-sample the feature map into (B, N, C) tokens.

    feat: (B, C, Hf, Wf); kp_coords / coarse_coords in full-image pixels.
    """
    b, c, h, w = feat.shape
    if h != cfg.target_resolution or w != cfg.target_resolution:
        raise ValueError(f"feature map {h}x{w} does not match configured resolution {cfg.target_resolution}")
    if cfg.variant == "global":
        tokens = ag.reshape(ag.mean(feat, axis=(2, 3)), (b, 1, c))
    elif cfg.variant == "grid":
        tokens = ag.transpose(ag.reshape(feat, (b, c, h * w)), (0, 2, 1))
    else:
        coords = coarse_coords if cfg.variant == "coarse_mesh" else kp_coords
        if coords is None:
            raise ValueError(f"{cfg.variant} sampling needs predicted coordinates")
        tokens = ag.bilinear_sample(feat, feature_coords_from_image(coords, image_size / w))
    if not np.isfinite(tokens.data).all():
        raise FloatingPointError("non-finite token values")
    return tokens


class TokenGenerator(Module):
    """Backbone + upsampler + keypoint head(s) + the configured sampler.

    Returns the (B, N, C) tokens and the (B, 21, 2) keypoint coordinates in
    full-image pixels.
    """

    def __init__(self, cfg, c_in, rng):
        self.cfg = cfg
        self.backbone = ToyBackbone(c_in, rng)
        self.upsampler = FeatureUpsampler(cfg.upsample_scheme, self.backbone.out_channels, rng)
        # coordinate heads start at zero: uniform heatmaps keep the
        # soft-argmax mobile while supervision shapes them
        self.kp_head = Conv2d(self.backbone.out_channels, NUM_KEYPOINTS, 1, rng)
        self.kp_head.weight.data[:] = 0.0
        if cfg.variant == "coarse_mesh":
            self.coarse_head = Conv2d(self.backbone.out_channels, COARSE_TOKENS, 1, rng)
            self.coarse_head.weight.data[:] = 0.0

    @property
    def out_channels(self):
        return self.backbone.out_channels

    def __call__(self, image):
        image_size = image.shape[-1]
        feat = self.upsampler(self.backbone(image))
        _, kp_coords = soft_argmax_2d(self.kp_head(feat), image_size)
        coarse_coords = None
        if self.cfg.variant == "coarse_mesh":
            _, coarse_coords = soft_argmax_2d(self.coarse_head(feat), image_size)
        tokens = sample_tokens(feat, self.cfg, kp_coords=kp_coords,
                               coarse_coords=coarse_coords, image_size=image_size)
        return tokens, kp_coords
