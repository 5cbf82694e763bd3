"""Convolution kernels timed in isolation at the calls a traced run recorded.

Each recorded call is replayed with its own input, weights, geometry and
requires_grad pattern: the forward outside any Tape, and, where the run
recorded a backward, the backward of sum(y * g) minus the backward of the
same sum over a leaf of y's shape, which leaves the conv's own backward.
"""

import statistics
import time

import numpy as np

from handmesh import autograd as ag
from handmesh.autograd import Tape, Tensor

REPS = 5

# per-layer metric stem -> dotted layer name in the paper model
LAYERS = {
    **{f"tokens.backbone.stage{i}": f"tokens.backbone.stages.{i}" for i in range(5)},
    "tokens.upsampler.tconv0": "tokens.upsampler.steps.0.1",
    "tokens.upsampler.tconv1": "tokens.upsampler.steps.1.1",
    "tokens.kp_head": "tokens.kp_head",
}
FIELDS = ("macs", "fwd_ms", "fwd_gmac_s", "bwd_ms", "bwd_gmac_s")


def forward_macs(call):
    """Nominal multiply-adds of one forward."""
    b, _, h, w = call["x"].shape
    c0, c1, kh, kw = call["w"].shape  # (cout, cin) for conv2d, (cin, cout) transposed
    if call["transposed"]:
        return b * h * w * c0 * c1 * kh * kw
    s, p = call["stride"], call["padding"]
    ho = (h + 2 * p - kh) // s + 1
    wo = (w + 2 * p - kw) // s + 1
    return b * ho * wo * c0 * c1 * kh * kw


def _median_seconds(fn):
    return statistics.median([fn() for _ in range(REPS)])


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _backward_seconds(make_output, grad):
    """Seconds of Tape.backward over sum(make_output() * grad)."""
    with Tape() as tape:
        loss = ag.sum_(ag.mul(make_output(), Tensor(grad)))
    return _timed(lambda: tape.backward(loss))


def time_call(call):
    conv = ag.conv_transpose2d if call["transposed"] else ag.conv2d

    def forward():
        x = Tensor(call["x"], requires_grad=call["x_grad"])
        w = Tensor(call["w"], requires_grad=True)
        b = Tensor(call["b"], requires_grad=True)
        return conv(x, w, b, stride=call["stride"], padding=call["padding"])

    macs = forward_macs(call)
    fwd = _median_seconds(lambda: _timed(forward))
    row = {"macs": macs, "fwd_ms": 1e3 * fwd, "fwd_gmac_s": macs / fwd / 1e9,
           "bwd_ms": 0.0, "bwd_gmac_s": 0.0}
    if call["backward"]:
        y = forward().data
        grad = np.random.default_rng(0).standard_normal(y.shape).astype(y.dtype)
        leaf = _median_seconds(lambda: _backward_seconds(lambda: Tensor(y, requires_grad=True), grad))
        full = _median_seconds(lambda: _backward_seconds(forward, grad))
        bwd = max(full - leaf, 1e-9)
        bwd_macs = macs * (1 + call["x_grad"])  # dW always, dX when the input wants it
        row.update(bwd_ms=1e3 * bwd, bwd_gmac_s=bwd_macs / bwd / 1e9)
    return row


def kernel_table(conv_calls):
    """Metrics for every layer in LAYERS (zeros where the run made no such call),
    plus printable lines naming each timed shape."""
    metrics, lines = {}, []
    for stem, layer in LAYERS.items():
        call = conv_calls.get(layer)
        row = time_call(call) if call is not None else dict.fromkeys(FIELDS, 0.0)
        metrics.update({f"kernel.{stem}.{f}": row[f] for f in FIELDS})
        if call is not None:
            kind = "conv_transpose2d" if call["transposed"] else "conv2d"
            lines.append(
                f"{stem:26s} {kind:16s} x{tuple(call['x'].shape)} w{tuple(call['w'].shape)} "
                f"s{call['stride']} p{call['padding']} x_grad={call['x_grad']} "
                f"backward={call['backward']} MACs={row['macs']:.3e} "
                f"fwd {row['fwd_ms']:.2f} ms {row['fwd_gmac_s']:.2f} GMAC/s "
                f"bwd {row['bwd_ms']:.2f} ms {row['bwd_gmac_s']:.2f} GMAC/s")
    return metrics, lines
