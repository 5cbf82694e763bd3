"""The benchmark's hooks into handmesh: every name it wraps or replays exists.

perfbench (at the repo root) patches handmesh classes, functions and
methods by name and replays convs by dotted layer name, and its modules
import handmesh names at load. A name that goes away would fail every
benchmark op; here it fails this test instead.
"""

import importlib
import os

import pytest

from handmesh.model import HandMeshModel

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
    names = set(perfbench["spans"].module_names(HandMeshModel()).values())
    missing = sorted(set(perfbench["kernels"].LAYERS.values()) - names)
    assert not missing
