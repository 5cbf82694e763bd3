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
from .synth import IMAGE_SIZE, NUM_JOINTS

VARIANTS = ("global", "grid", "keypoint", "coarse_mesh")
# the transposed-conv strides of each upsampling scheme, applied to the backbone's map
_SCHEME_STRIDES = {"none": (), "single-2x": (2,), "single-4x": (4,), "double-2x": (2, 2),
                   "4x-with-extra-convs": (2, 2)}
SCHEMES = tuple(_SCHEME_STRIDES)

NUM_KEYPOINTS = NUM_JOINTS
COARSE_TOKENS = 98  # every-8th vertex of the 778-vertex template
# stage 0 is at least as wide as the input so every channel keeps a
# pass-through slot under the smoothing init below
BACKBONE_WIDTHS = (24, 32, 64, 64, 64)
# each stride-2 stage halves the map: IMAGE_SIZE // _REDUCTION is the backbone's output side
_REDUCTION = 2 ** len(BACKBONE_WIDTHS)


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
        if type(self.target_resolution) is not int:  # the exact check also refuses bool
            raise ValueError(f"target resolution must be an integer, got {self.target_resolution!r}")
        base = IMAGE_SIZE // _REDUCTION
        resolution = base * int(np.prod(_SCHEME_STRIDES[self.upsample_scheme]))
        if resolution != self.target_resolution:
            raise ValueError(f"scheme {self.upsample_scheme!r} yields resolution {resolution}, "
                             f"config asks for {self.target_resolution}")
        if self.variant in ("global", "grid") and self.upsample_scheme != "none":
            raise ValueError(f"{self.variant} sampling runs at resolution {base} with no upsampling")


def expected_tokens(cfg):
    if cfg.variant == "global":
        return 1
    if cfg.variant == "grid":
        return cfg.target_resolution * cfg.target_resolution
    if cfg.variant == "keypoint":
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
    """Five stride-2 4x4 conv+ReLU stages: (B,Cin,224,224) -> (B,64,7,7).

    Kernel 4 with padding 1 keeps each stage's sampling lattice on the
    half-pixel alignment the coordinate mapping assumes.
    """

    def __init__(self, c_in, rng):
        self.stages = []
        prev = c_in
        for w in BACKBONE_WIDTHS:
            stage = Conv2d(prev, w, 4, rng, stride=2, padding=1, relu=True)
            _add_smoothing_passthrough(stage)
            self.stages.append(stage)
            prev = w
        self.out_channels = prev

    def __call__(self, x):
        if x.shape[2] % _REDUCTION or x.shape[3] % _REDUCTION:
            raise ValueError(f"backbone input spatial dims must divide {_REDUCTION}, got {x.shape}")
        for stage in self.stages:
            x = stage(x)
        return x


class FeatureUpsampler(Module):
    """Implements the upsample schemes; channel width is preserved."""

    def __init__(self, scheme, channels, rng):
        self.steps = []
        for s in _SCHEME_STRIDES[scheme]:
            tconv = ConvTranspose2d(channels, channels, 2 * s, rng, stride=s, padding=s // 2)
            _add_bilinear_passthrough(tconv, s)
            self.steps.append(("tconv", tconv))
            if scheme == "4x-with-extra-convs":
                conv = Conv2d(channels, channels, 3, rng, stride=1, padding=1, relu=True)
                _add_smoothing_passthrough(conv)
                self.steps.append(("conv", conv))

    def __call__(self, x):
        for _, layer in self.steps:
            x = layer(x)
        return x


def soft_argmax_2d(logits):
    """Spatial softmax + expectation: logits (B,K,H,W) -> (B,K,2) coordinates.

    Coordinates are one expectation over the cell centers in full-image
    pixels, (x + 0.5) * stride - 0.5 per axis with stride IMAGE_SIZE / W,
    so they always land strictly inside the image.
    """
    b, k, h, w = logits.shape
    p = ag.softmax(ag.reshape(logits, (b, k, h * w)), axis=-1)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cells = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=-1)
    centers = Tensor(((cells + 0.5) * (IMAGE_SIZE / w) - 0.5).astype(logits.dtype))
    return ag.matmul(p, centers)


def sample_tokens(feat, cfg, coords=None):
    """Pool, enumerate, or point-sample the feature map into (B, N, C) tokens.

    feat: (B, C, Hf, Wf); coords (B, N, 2) in full-image pixels, the one
    point set the keypoint and coarse_mesh variants sample at (the caller
    picks it). Each map cell spans IMAGE_SIZE / Wf image pixels; the
    resolution check admits only the feature map of an IMAGE_SIZE input.
    """
    b, c, h, w = feat.shape
    if h != cfg.target_resolution or w != cfg.target_resolution:
        raise ValueError(f"feature map {h}x{w} does not match configured resolution {cfg.target_resolution}")
    if cfg.variant == "global":
        tokens = ag.reshape(ag.mean(feat, axis=(2, 3)), (b, 1, c))
    elif cfg.variant == "grid":
        tokens = ag.transpose(ag.reshape(feat, (b, c, h * w)), (0, 2, 1))
    else:
        if coords is None:
            raise ValueError(f"{cfg.variant} sampling needs predicted coordinates")
        tokens = ag.bilinear_sample(feat, ag.add(ag.mul(ag.add(coords, 0.5), 1.0 / (IMAGE_SIZE / w)), -0.5))
    if not np.isfinite(tokens.data).all():
        raise FloatingPointError("non-finite token values")
    return tokens


class TokenGenerator(Module):
    """Backbone + upsampler + keypoint head(s) + the configured sampler.

    Returns the (B, N, C) tokens and the (B, 21, 2) keypoint coordinates in
    full-image pixels. The coarse_mesh variant samples at its coarse head's
    coordinates, every other variant at the keypoints.
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

    def __call__(self, image):
        feat = self.upsampler(self.backbone(image))
        kp_coords = soft_argmax_2d(self.kp_head(feat))
        coords = kp_coords
        if self.cfg.variant == "coarse_mesh":
            coords = soft_argmax_2d(self.coarse_head(feat))
        tokens = sample_tokens(feat, self.cfg, coords)
        return tokens, kp_coords
