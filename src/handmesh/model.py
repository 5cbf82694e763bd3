"""Full pipeline: token generator feeding the cascaded mesh regressor."""

from dataclasses import dataclass

from .autograd import Tensor
from .nn import Module
from .regressor import MeshRegressor
from .rng import substream
from .tokens import TokenGenerator, expected_tokens


@dataclass
class ModelOutput:
    vertices: Tensor  # (B, 778, 3) root-relative mm
    keypoints_2d: Tensor  # (B, 21, 2) full-image pixels


class HandMeshModel(Module):
    def __init__(self, sampler_cfg, decoder_cfg, seed):
        rng = substream(seed, "model-init")
        self.tokens = TokenGenerator(sampler_cfg, rng)
        self.regressor = MeshRegressor(decoder_cfg, expected_tokens(sampler_cfg),
                                       self.tokens.backbone.out_channels, rng)

    def __call__(self, image):
        tokens, keypoints_2d = self.tokens(image)
        return ModelOutput(vertices=self.regressor(tokens), keypoints_2d=keypoints_2d)

    def param_count_split(self):
        """(backbone, non_backbone) trainable parameter counts."""
        backbone = self.tokens.backbone.num_params()
        return backbone, self.num_params() - backbone
