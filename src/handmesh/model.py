"""Full pipeline: token generator feeding the cascaded mesh regressor."""

from dataclasses import dataclass

from .autograd import Tensor
from .nn import Module
from .regressor import MeshRegressor, paper_decoder_config
from .rng import substream
from .tokens import SamplerConfig, TokenGenerator, expected_tokens

INPUT_CHANNELS = 22  # 21 keypoint heatmaps + 1 silhouette


@dataclass
class ModelOutput:
    vertices: Tensor  # (B, 778, 3) root-relative mm
    keypoints_2d: Tensor  # (B, 21, 2) full-image pixels


class HandMeshModel(Module):
    def __init__(self, sampler_cfg=None, decoder_cfg=None, seed=0, use_pos_emb=True):
        sampler_cfg = sampler_cfg or SamplerConfig()
        decoder_cfg = decoder_cfg or paper_decoder_config()
        rng = substream(seed, "model-init")
        self.sampler_cfg = sampler_cfg
        self.decoder_cfg = decoder_cfg
        self.tokens = TokenGenerator(sampler_cfg, INPUT_CHANNELS, rng)
        self.regressor = MeshRegressor(
            decoder_cfg, expected_tokens(sampler_cfg), self.tokens.out_channels, rng,
            use_pos_emb=use_pos_emb,
        )

    def __call__(self, image):
        tokens, keypoints_2d = self.tokens(image)
        return ModelOutput(vertices=self.regressor(tokens), keypoints_2d=keypoints_2d)

    def param_count_split(self):
        """(backbone, non_backbone) trainable parameter counts."""
        backbone = self.tokens.backbone.num_params()
        return backbone, self.num_params() - backbone
