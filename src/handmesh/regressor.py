"""Cascaded mesh regressor: a token set to 778 3D vertices.

Each decoder layer projects channels down, adds a learnable position
embedding, runs a stack of token-mixer blocks, then linearly upsamples
the token axis. Token counts grow layer by layer until the final
per-token affine head emits 3 coordinates per vertex.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .nn import Affine, MetaformerBlock, Module, _uniform_init

NUM_VERTICES = 778
MIXERS = ("attn", "identity")


@dataclass
class DecoderConfig:
    k: int = 3
    n: list = field(default_factory=lambda: [1, 1, 1])
    d: list = field(default_factory=lambda: [84, 336, 778])
    m: list = field(default_factory=lambda: ["attn", "attn", "attn"])
    c: list = field(default_factory=lambda: [256, 128, 64])
    heads: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"layer count must be >= 1, got {self.k}")
        for name in ("n", "d", "m", "c"):
            seq = getattr(self, name)
            if len(seq) != self.k:
                raise ValueError(f"len({name}) == {len(seq)} does not match k == {self.k}")
        for mk in self.m:
            if mk not in MIXERS:
                raise ValueError(f"unknown mixer {mk!r}, expected one of {MIXERS}")
        if any(dk <= 0 for dk in self.d) or any(a >= b for a, b in zip(self.d, self.d[1:])):
            raise ValueError(f"token counts d must be strictly increasing, got {self.d}")
        if self.d[-1] != NUM_VERTICES:
            raise ValueError(f"final token count must be {NUM_VERTICES}, got {self.d[-1]}")
        if any(nk < 0 for nk in self.n):
            raise ValueError(f"block counts must be >= 0, got {self.n}")
        if self.heads < 1:
            raise ValueError(f"head count must be >= 1, got {self.heads}")
        for ck, mk in zip(self.c, self.m):
            if ck < 1:
                raise ValueError(f"channel widths must be >= 1, got {self.c}")
            if mk == "attn" and ck % self.heads:
                raise ValueError(f"channel width {ck} not divisible by {self.heads} heads")


def paper_decoder_config():
    """The best-practice three-layer attention cascade."""
    return DecoderConfig()


class DecoderLayer(Module):
    """reduce -> + pos_emb -> blocks -> token upsample."""

    def __init__(self, n_in, c_in, c_out, n_blocks, mixer, heads, d_out, rng, use_pos_emb=True):
        self.n_in = n_in
        self.d_out = d_out
        self.reduce = Affine(c_in, c_out, rng)
        # zero start keeps the block stack permutation-equivariant at init
        self.pos_emb = Tensor(np.zeros((n_in, c_out), dtype=np.float32), requires_grad=True) if use_pos_emb else None
        self.blocks = [MetaformerBlock(c_out, mixer, heads, rng) for _ in range(n_blocks)]
        self.up_weight = Tensor(_uniform_init(rng, (d_out, n_in), n_in), requires_grad=True)
        self.up_bias = Tensor(np.zeros((d_out, 1), dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        if x.shape[1] != self.n_in:
            raise ValueError(f"layer built for {self.n_in} tokens, got {x.shape[1]}")
        x = self.reduce(x)
        if self.pos_emb is not None:
            x = ag.add(x, self.pos_emb)
        for block in self.blocks:
            x = block(x)
        return ag.add(ag.matmul(self.up_weight, x), self.up_bias)


class MeshRegressor(Module):
    def __init__(self, cfg, n0, c_in, rng, use_pos_emb=True):
        if n0 < 1:
            raise ValueError(f"input token count must be >= 1, got {n0}")
        self.n0 = n0
        self.c_in = c_in
        self.layers = []
        n_prev, c_prev = n0, c_in
        for nk, dk, mk, ck in zip(cfg.n, cfg.d, cfg.m, cfg.c):
            self.layers.append(DecoderLayer(n_prev, c_prev, ck, nk, mk, cfg.heads, dk, rng,
                                            use_pos_emb=use_pos_emb))
            n_prev, c_prev = dk, ck
        self.head = Affine(cfg.c[-1], 3, rng)

    def __call__(self, tokens):
        if tokens.ndim != 3 or tokens.shape[1] != self.n0 or tokens.shape[2] != self.c_in:
            raise ValueError(
                f"regressor built for (B, {self.n0}, {self.c_in}) tokens, got {tokens.shape}"
            )
        x = tokens
        for layer in self.layers:
            x = layer(x)
        vertices = self.head(x)
        if not np.isfinite(vertices.data).all():
            raise FloatingPointError("non-finite vertex output")
        return vertices
