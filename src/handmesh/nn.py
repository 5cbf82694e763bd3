"""Parameter containers and the layers shared by the backbone and decoder.

Affine weights draw from uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)).
Conv weights use the relu-gain bound sqrt(6/fan_in) so activation
variance survives a deep stack; transposed convs use the effective
fan-in cin*(k/stride)^2, since each output pixel only receives
k^2/stride^2 taps. Biases, positional embeddings and norm offsets
start at zero. Every parameter is created as float32; `Module.astype`
casts a built module. Modules register parameters by attribute walk,
giving each a stable dotted name for checkpoints.
"""

import numpy as np

from . import autograd as ag
from .autograd import Tensor

MIXERS = ("attn", "identity")  # MetaformerBlock's token mixers


class Module:
    """Base class: recursive parameter discovery over instance attributes."""

    def named_parameters(self):
        out = []
        _walk_parameters("", self, out)
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def num_params(self):
        return int(sum(p.size for p in self.parameters()))

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state):
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ValueError(f"state dict mismatch: missing={missing} unexpected={extra}")
        for name, p in own.items():
            arr = state[name]
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = np.array(arr, dtype=p.data.dtype)

    def astype(self, dtype):
        """Convert every parameter in place; returns self."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None
        return self


def _walk_parameters(prefix, obj, out):
    # a module-level function: a nested one that recursed through its own
    # closure cell would form a cycle holding `out`, so every parameter
    # listed would outlive its model until the cyclic collector ran
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            out.append((prefix, obj))
    elif isinstance(obj, Module):
        for k, v in obj.__dict__.items():
            _walk_parameters(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _walk_parameters(f"{prefix}.{i}", v, out)


def _uniform_init(rng, shape, fan_in, gain=1.0):
    bound = np.sqrt(gain / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Affine(Module):
    """y = x @ W + b over the last axis."""

    def __init__(self, fan_in, fan_out, rng):
        self.weight = Tensor(_uniform_init(rng, (fan_in, fan_out), fan_in), requires_grad=True)
        self.bias = Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return ag.matmul(x, self.weight, bias=self.bias)


class Conv2d(Module):
    """conv2d plus bias; with `relu`, the ReLU is fused into the same node."""

    def __init__(self, cin, cout, k, rng, stride=1, padding=0, relu=False):
        # gain 6 = relu-preserving variance for uniform weights
        self.weight = Tensor(_uniform_init(rng, (cout, cin, k, k), cin * k * k, gain=6.0), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding
        self.relu = relu

    def __call__(self, x):
        return ag.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding, relu=self.relu)


class ConvTranspose2d(Module):
    def __init__(self, cin, cout, k, rng, stride=2, padding=1):
        fan_eff = cin * (k // stride) ** 2  # taps actually reaching one output pixel
        self.weight = Tensor(_uniform_init(rng, (cin, cout, k, k), fan_eff, gain=3.0), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return ag.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    def __init__(self, c):
        self.gamma = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return ag.layer_norm(x, self.gamma, self.beta)


class Mlp(Module):
    """Two affine maps around a GELU, hidden width 4x."""

    def __init__(self, c, rng):
        self.fc1 = Affine(c, 4 * c, rng)
        self.fc2 = Affine(4 * c, c, rng)

    def __call__(self, x):
        return self.fc2(ag.gelu(self.fc1(x)))


class Identity(Module):
    def __call__(self, x):
        return x


class SelfAttention(Module):
    """Standard multi-head self-attention over (B, N, C) token sets."""

    def __init__(self, c, heads, rng):
        self.qkv = Affine(c, 3 * c, rng)
        self.proj = Affine(c, c, rng)
        self.heads = heads

    def __call__(self, x):
        return self.proj(ag.attention(self.qkv(x), self.heads))


class MetaformerBlock(Module):
    """Pre-norm token mixer plus pre-norm MLP, both residual."""

    def __init__(self, c, mixer, heads, rng):
        self.mixer = SelfAttention(c, heads, rng) if mixer == "attn" else Identity()
        self.norm1 = LayerNorm(c)
        self.norm2 = LayerNorm(c)
        self.mlp = Mlp(c, rng)

    def __call__(self, x):
        x = ag.add(x, self.mixer(self.norm1(x)))
        return ag.add(x, self.mlp(self.norm2(x)))
