"""Mesh regressor: config validation, layer algebra, cascade invariants."""

import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import handmesh
from handmesh import autograd as ag
from handmesh.autograd import Tape, Tensor
from handmesh.nn import MetaformerBlock, SelfAttention
from handmesh.regressor import (
    DecoderConfig,
    DecoderLayer,
    MeshRegressor,
    paper_decoder_config,
)
from handmesh.rng import substream

from helpers import fd_gradcheck


# --- oracles -----------------------------------------------------------

def attention_oracle(x, qkv_w, qkv_b, proj_w, proj_b, heads):
    """Per-head softmax(QK^T/sqrt(dh))V from the module's own weights."""
    b, n, c = x.shape
    dh = c // heads
    qkv = x @ qkv_w + qkv_b
    q, k, v = qkv[..., :c], qkv[..., c:2 * c], qkv[..., 2 * c:]
    out = np.zeros_like(x)
    for bi in range(b):
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q[bi, :, sl], k[bi, :, sl], v[bi, :, sl]
            logits = qh @ kh.T / np.sqrt(dh)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            out[bi, :, sl] = p @ vh
    return out @ proj_w + proj_b


def layer_norm_oracle(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def zero_params(module):
    for _, p in module.named_parameters():
        p.data[...] = 0.0


# --- config ------------------------------------------------------------

class TestDecoderConfig:
    def test_paper_config_round_trips_exact_json_form(self):
        cfg = paper_decoder_config()
        assert asdict(cfg) == {"k": 3, "n": [1, 1, 1], "d": [84, 336, 778],
                               "m": ["attn", "attn", "attn"], "c": [256, 128, 64], "heads": 4}
        assert DecoderConfig(**asdict(cfg)) == cfg

    @pytest.mark.parametrize("kwargs", [
        dict(k=2, n=[1], d=[84, 778], m=["attn", "attn"], c=[64, 64]),  # len(n) != k
        dict(k=2, n=[1, 1], d=[336, 84], m=["attn", "attn"], c=[64, 64]),  # not increasing
        dict(k=2, n=[1, 1], d=[84, 84], m=["attn", "attn"], c=[64, 64]),  # ties
        dict(k=1, n=[1], d=[777], m=["attn"], c=[64]),  # wrong terminal count
        dict(k=1, n=[1], d=[778], m=["attn"], c=[66], heads=4),  # 66 % 4 != 0
        dict(k=1, n=[-1], d=[778], m=["attn"], c=[64]),
        dict(k=1, n=[1], d=[778], m=["pool"], c=[64]),
        dict(k=0, n=[], d=[], m=[], c=[]),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecoderConfig(**kwargs)

    def test_identity_mixer_ignores_head_divisibility(self):
        DecoderConfig(k=1, n=[1], d=[778], m=["identity"], c=[66], heads=4)


# --- layer algebra -----------------------------------------------------

class TestDecoderLayer:
    def _layer(self, seed, n_in=5, c_in=6, c_out=6, n_blocks=0, d_out=9, mixer="identity"):
        return DecoderLayer(n_in, c_in, c_out, n_blocks, mixer, 2, d_out,
                            substream(seed, "layer")).astype(np.float64)

    def test_reduce_identity_weights_pass_tokens_through(self):
        layer = self._layer(0)
        layer.reduce.weight.data[...] = np.eye(6)
        layer.reduce.bias.data[...] = 0.0
        x = substream(1, "x").normal(size=(2, 5, 6))
        got = layer.reduce(Tensor(x))
        assert np.abs(got.data - x).max() < 1e-15

    def test_reduce_zero_weight_emits_bias(self):
        layer = self._layer(2)
        layer.reduce.weight.data[...] = 0.0
        layer.reduce.bias.data[...] = np.arange(6.0)
        got = layer.reduce(Tensor(np.ones((1, 5, 6))))
        assert np.array_equal(got.data, np.broadcast_to(np.arange(6.0), (1, 5, 6)))

    def test_reduce_matches_matmul_oracle(self):
        layer = self._layer(3, c_in=8, c_out=4)
        x = substream(4, "x").normal(size=(2, 5, 8))
        want = x @ layer.reduce.weight.data + layer.reduce.bias.data
        got = layer.reduce(Tensor(x)).data
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_upsample_one_hot_rows_duplicate_tokens(self):
        layer = self._layer(5, n_in=4, d_out=7)
        layer.reduce.weight.data[...] = np.eye(6)
        sel = np.array([0, 0, 1, 2, 3, 3, 3])
        layer.up_weight.data[...] = np.eye(4)[sel]
        x = substream(6, "x").normal(size=(1, 4, 6))
        out = layer(Tensor(x))
        assert np.abs(out.data[0] - x[0][sel]).max() < 1e-15

    def test_upsample_matches_matmul_oracle(self):
        layer = self._layer(7, n_in=5, d_out=9)
        layer.reduce.weight.data[...] = np.eye(6)
        x = substream(8, "x").normal(size=(2, 5, 6))
        want = layer.up_weight.data @ x + layer.up_bias.data
        got = layer(Tensor(x)).data
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_zero_position_embedding_is_transparent(self):
        layer = self._layer(9, n_blocks=1, mixer="attn")
        x = Tensor(substream(10, "x").normal(size=(2, 5, 6)))
        base = layer(x).data
        layer.pos_emb.data[...] = substream(11, "emb").normal(size=(5, 6))
        shifted = layer(x).data
        assert np.abs(base - shifted).max() > 1e-8  # emb participates
        layer.pos_emb.data[...] = 0.0
        assert np.array_equal(layer(x).data, base)

    def test_position_embedding_sum_gradient_is_ones(self):
        emb = Tensor(np.zeros((5, 6)), requires_grad=True)
        x = Tensor(substream(12, "x").normal(size=(2, 5, 6)))
        with Tape() as tape:
            tape.backward(ag.sum_(ag.add(x, emb)))
        assert np.array_equal(emb.grad, np.full((5, 6), 2.0))  # batch of 2 broadcasts

    def test_position_embedding_finite_differences(self):
        layer = self._layer(13, n_blocks=1, mixer="attn")
        x = Tensor(substream(14, "x").normal(size=(1, 5, 6)))

        def fn(_):
            return ag.sum_(ag.mul(layer(x), layer(x)))

        rng = np.random.default_rng(1)
        assert fd_gradcheck(fn, [layer.pos_emb], rng=rng, max_checks=5) < 1e-4

    def test_token_count_mismatch_rejected(self):
        layer = self._layer(15)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 6, 6))))


# --- block algebra -----------------------------------------------------

class TestMetaformerBlock:
    def test_identity_mixer_with_zeroed_mlp_is_x_plus_layernorm(self):
        block = MetaformerBlock(6, "identity", 2, substream(16, "blk")).astype(np.float64)
        zero_params(block.mlp)
        x = substream(17, "x").normal(size=(2, 5, 6))
        got = block(Tensor(x)).data
        want = x + layer_norm_oracle(x)
        assert np.abs(got - want).max() < 1e-12

    def test_single_token_attention_is_value_then_output_projection(self):
        attn = SelfAttention(8, 4, substream(18, "attn")).astype(np.float64)
        x = substream(19, "x").normal(size=(3, 1, 8))
        v = x @ attn.qkv.weight.data[:, 16:] + attn.qkv.bias.data[16:]
        want = v @ attn.proj.weight.data + attn.proj.bias.data
        got = attn(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_matches_direct_oracle(self, heads):
        attn = SelfAttention(8, heads, substream(20, "attn")).astype(np.float64)
        x = substream(21, "x").normal(size=(2, 4, 8))
        want = attention_oracle(x, attn.qkv.weight.data, attn.qkv.bias.data,
                                attn.proj.weight.data, attn.proj.bias.data, heads)
        got = attn(Tensor(x)).data
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10

    def test_attention_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            SelfAttention(6, 4, substream(22, "attn"))

    def test_attention_block_is_permutation_equivariant(self):
        block = MetaformerBlock(8, "attn", 2, substream(23, "blk")).astype(np.float64)
        x = substream(24, "x").normal(size=(1, 6, 8))
        perm = substream(25, "perm").permutation(6)
        direct = block(Tensor(x[:, perm])).data
        permuted = block(Tensor(x)).data[:, perm]
        assert np.abs(direct - permuted).max() < 1e-10

    def test_nonzero_position_embedding_breaks_equivariance(self):
        block = MetaformerBlock(8, "attn", 2, substream(26, "blk")).astype(np.float64)
        emb = substream(27, "emb").normal(size=(6, 8))
        x = substream(28, "x").normal(size=(1, 6, 8))
        perm = substream(29, "perm").permutation(6)
        direct = block(Tensor(x[:, perm] + emb)).data
        permuted = block(Tensor(x + emb)).data[:, perm]
        assert np.abs(direct - permuted).max() > 1e-3


# --- full cascade ------------------------------------------------------

class TestMeshRegressor:
    def test_paper_config_trace(self):
        reg = MeshRegressor(paper_decoder_config(), 21, 64, substream(30, "reg"))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 21, 64)).astype(np.float32))
        shapes = []
        for layer in reg.layers:
            x = layer(x)
            shapes.append(x.shape)
        assert shapes == [(2, 84, 256), (2, 336, 128), (2, 778, 64)]
        assert reg.head(x).shape == (2, 778, 3)

    def test_single_layer_identity_baseline(self):
        cfg = DecoderConfig(k=1, n=[1], d=[778], m=["identity"], c=[64])
        reg = MeshRegressor(cfg, 1, 64, substream(31, "reg"))
        out = reg(Tensor(np.zeros((1, 1, 64), dtype=np.float32)))
        assert out.shape == (1, 778, 3)

    def test_zero_network_emits_origin(self):
        reg = MeshRegressor(paper_decoder_config(), 21, 64, substream(32, "reg")).astype(np.float64)
        zero_params(reg)
        out = reg(Tensor(np.zeros((1, 21, 64))))
        assert np.all(out.data == 0.0)

    def test_nan_guard_survives_optimized_mode(self):
        # `python -O` strips assert statements; the non-finite check must still raise
        script = (
            "import numpy as np\n"
            "from handmesh.autograd import Tensor\n"
            "from handmesh.model import HandMeshModel\n"
            "model = HandMeshModel()\n"
            "model.regressor.head.weight.data[...] = np.nan\n"
            "try:\n"
            "    model(Tensor(np.zeros((1, 22, 224, 224), dtype=np.float32)))\n"
            "except Exception as err:\n"
            "    print(type(err).__name__)\n"
            "else:\n"
            "    print('no error')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(handmesh.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "FloatingPointError"

    def test_wrong_token_count_rejected(self):
        reg = MeshRegressor(paper_decoder_config(), 21, 64, substream(33, "reg"))
        with pytest.raises(ValueError):
            reg(Tensor(np.zeros((1, 49, 64), dtype=np.float32)))
        with pytest.raises(ValueError):
            reg(Tensor(np.zeros((1, 21, 32), dtype=np.float32)))

    def test_forward_is_deterministic(self):
        reg = MeshRegressor(paper_decoder_config(), 21, 64, substream(34, "reg"))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 21, 64)).astype(np.float32))
        assert np.array_equal(reg(x).data, reg(x).data)

    def test_end_to_end_parameter_finite_differences(self):
        cfg = DecoderConfig(k=2, n=[1, 1], d=[84, 778], m=["attn", "attn"], c=[16, 8], heads=2)
        reg = MeshRegressor(cfg, 5, 6, substream(35, "reg")).astype(np.float64)
        x = Tensor(substream(36, "x").normal(size=(1, 5, 6)))

        def fn(*_):
            out = reg(x)
            return ag.sum_(ag.mul(out, out))

        rng = np.random.default_rng(2)
        params = [p for _, p in reg.named_parameters()]
        picked = [params[i] for i in rng.choice(len(params), size=20, replace=False)]
        assert fd_gradcheck(fn, picked, rng=rng, max_checks=1) < 1e-3
