"""Forward-latency and parameter-count benchmarking."""

import time

import numpy as np

from .autograd import Tensor
from .dataio import render_batch
from .synth import build_assets
from .train import build_model


def run_bench(cfg, iters=50):
    """Time bare forward passes on one fixed input; report parameter split.

    The input is the dataset's first rendered sample for cfg.seed, because
    rendered samples are what the model really reads.
    """
    warmup, batch_size = 5, 1
    if type(iters) is not int or iters < 10:  # the exact check also refuses bool
        raise ValueError(f"need an integer >= 10 of timed iterations, got {iters!r}")
    model = build_model(cfg)
    img = Tensor(render_batch(build_assets(), cfg.seed, range(batch_size))["input"])
    for _ in range(warmup):
        model(img)
    times = np.empty(iters)
    for i in range(iters):
        t0 = time.perf_counter()
        model(img)
        times[i] = time.perf_counter() - t0
    backbone, non_backbone = model.param_count_split()
    ms = times * 1e3
    return {
        "iterations": iters,
        "warmup": warmup,
        "batch_size": batch_size,
        "latency_ms": {
            "mean": float(ms.mean()),
            "median": float(np.median(ms)),
            "p95": float(np.percentile(ms, 95)),
        },
        "params": {
            "backbone": int(backbone),
            "non_backbone": int(non_backbone),
            "total": int(backbone + non_backbone),
        },
    }
