"""The benchmark's hooks into handmesh: every name it wraps or replays exists.

perfbench (at the repo root) patches handmesh classes, functions and
methods by name and replays convs by dotted layer name, and its modules
import handmesh names at load. A name that goes away would fail every
benchmark op; here it fails this test instead.
"""

import importlib
import os

import numpy as np
import pytest

from handmesh import autograd as ag
from handmesh import dataio
from handmesh.config import ExperimentConfig
from handmesh.model import HandMeshModel
from handmesh.regressor import DecoderConfig
from handmesh.tokens import SamplerConfig
from handmesh.train import train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    return {name: importlib.import_module(f"perfbench.{name}")
            for name in ("spans", "workloads", "kernels")}


def test_tracer_installs_and_restores(perfbench):
    before = HandMeshModel.__call__
    with perfbench["spans"].Tracer().installed():
        assert HandMeshModel.__call__ is not before
    assert HandMeshModel.__call__ is before


def test_kernel_layers_are_paper_model_modules(perfbench):
    names = set(perfbench["spans"].module_names(HandMeshModel(SamplerConfig(), DecoderConfig(), seed=0)).values())
    missing = sorted(set(perfbench["kernels"].LAYERS.values()) - names)
    assert not missing


def test_taped_step_records_every_kernel_layer(perfbench):
    # the kernel table replays the conv calls recorded at Conv2d.__call__ and
    # ConvTranspose2d.__call__; a layer run past them would report zeros
    model = HandMeshModel(SamplerConfig(), DecoderConfig(), seed=0)
    x = ag.Tensor(np.random.default_rng(0).random((1, 22, 224, 224), dtype=np.float32))
    tracer = perfbench["spans"].Tracer()
    with tracer.installed(), tracer.region("op", op=0):
        with ag.Tape() as tape:
            out = model(x)
            tape.backward(ag.sum_(out.vertices))
    calls = tracer.conv_calls
    missing = sorted(set(perfbench["kernels"].LAYERS.values()) - set(calls))
    assert not missing
    assert all(calls[layer]["backward"] for layer in perfbench["kernels"].LAYERS.values())


def test_traced_train_splits_each_step(perfbench, tmp_path):
    # the step split keys on top-level spans of Dataset.batch, the model,
    # total_loss, Tape.backward and AdamW.step; a call form the wrappers
    # miss would leave its part at zero
    data = str(tmp_path / "data")
    dataio.generate_dataset(data, 4, 0)
    cfg = ExperimentConfig(dataset=data, out_dir=str(tmp_path / "run"), total_steps=2, batch_size=2)
    tracer = perfbench["spans"].Tracer()
    with tracer.installed(), tracer.region("op", op=0):
        train(cfg)
    metrics = perfbench["spans"].summarize(tracer)
    for part in ("data", "forward", "loss", "backward", "optim"):
        assert metrics[f"train.step.{part}_ms"] > 0, part


@pytest.mark.parametrize("name", ["train_kp", "infer_b1", "eval_global"])
def test_each_workload_runs_one_checked_op(perfbench, tmp_path, name):
    # each workload's own calls into handmesh, as one benchmark op makes them
    wl = perfbench["workloads"].WORKLOADS[name]()
    wl.setup(1, str(tmp_path))
    assert wl.check(0, wl.op(0))
    failed, loss = wl.finish()
    assert not failed
    assert np.isfinite(loss)
