"""Full pipeline: token generator feeding the cascaded mesh regressor."""

from dataclasses import dataclass

import numpy as np

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
    token_trace: list


class HandMeshModel(Module):
    def __init__(self, sampler_cfg=None, decoder_cfg=None, seed=0, c_in=INPUT_CHANNELS,
                 dtype=np.float32, use_pos_emb=True):
        sampler_cfg = sampler_cfg or SamplerConfig()
        decoder_cfg = decoder_cfg or paper_decoder_config()
        rng = substream(seed, "model-init")
        self.sampler_cfg = sampler_cfg
        self.decoder_cfg = decoder_cfg
        self.tokens = TokenGenerator(sampler_cfg, c_in, rng, dtype=dtype)
        self.regressor = MeshRegressor(
            decoder_cfg, expected_tokens(sampler_cfg), self.tokens.out_channels, rng, dtype=dtype,
            use_pos_emb=use_pos_emb,
        )

    def __call__(self, image):
        token_set, kp = self.tokens(image)
        mesh = self.regressor(token_set.tokens)
        trace = [token_set.n_tokens] + mesh.token_trace[1:]
        return ModelOutput(vertices=mesh.vertices, keypoints_2d=kp.coords, token_trace=trace)

    def param_count_split(self):
        """(backbone, non_backbone) trainable parameter counts."""
        backbone = self.tokens.backbone.num_params()
        return backbone, self.num_params() - backbone
