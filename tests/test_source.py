"""Source lint: src states its run-time checks as raises, never as asserts,
autograd states its tape-recording rule in one function, train() stops a
run through one handler, and only the F-scores load scipy."""

import ast
import os
import subprocess
import sys

import handmesh

SRC = os.path.dirname(os.path.abspath(handmesh.__file__))

def _parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def _enclosed(tree, kind):
    """(enclosing function name or None, node) of every `kind` node in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kind):
                found.append((func, child))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_src_asserts_nothing_at_run_time():
    # `python -O` strips assert statements, so a check on run-time values
    # must raise instead
    names = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert "synth.py" in names
    stray = []
    for name in names:
        stray += [f"{name}:{node.lineno} in {func}" for func, node in _enclosed(_parse(name), ast.Assert)]
    assert stray == []


def _builds_node(call):
    """True for Tensor(..., requires_grad=...) and <x>._nodes.append(...)."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "Tensor":
        return len(call.args) > 1 or any(k.arg == "requires_grad" for k in call.keywords)
    return (isinstance(f, ast.Attribute) and f.attr == "append"
            and isinstance(f.value, ast.Attribute) and f.value.attr == "_nodes")


def test_autograd_records_only_through_node():
    # whether an output requires a gradient and is put on the Tape is
    # decided in _node alone, so a primitive cannot state its own rule
    tree = _parse("autograd.py")
    funcs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_node" in funcs
    stray = [f"autograd.py:{call.lineno} in {func}" for func, call in _enclosed(tree, ast.Call)
             if func != "_node" and _builds_node(call)]
    assert stray == []


def test_train_stops_through_one_handler():
    # a non-finite value in either dataset pass or any step ends in the one
    # handler that writes nan_dump.json
    tries = [node for func, node in _enclosed(_parse("train.py"), ast.Try) if func == "train"]
    assert len(tries) == 1
    assert [ast.unparse(h.type) for h in tries[0].handlers] == ["FloatingPointError"]
    called = [node.func.id for stmt in tries[0].body for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("dataset_loss") == 2 and called.count("batch_loss") == 1


def test_only_the_f_scores_load_scipy(tmp_path):
    # importing scipy.special or scipy.ndimage costs a process about 26 MB
    # resident, and scipy.spatial another 12 MB; rendering, inference and
    # training run without any of it
    script = (
        "import sys\n"
        "from handmesh import cli, dataio, metrics\n"
        "from handmesh.autograd import Tape, Tensor\n"
        "from handmesh.config import ExperimentConfig\n"
        "from handmesh.losses import LossWeights\n"
        "from handmesh.train import batch_loss, build_model\n"
        f"dataio.generate_dataset({str(tmp_path)!r}, 2, 0)\n"
        f"ds = dataio.Dataset({str(tmp_path)!r})\n"
        "batch = ds.batch([0, 1])\n"
        "model = build_model(ExperimentConfig(seed=0))\n"
        "out = model(Tensor(batch['input'][:1]))\n"
        "with Tape() as tape:\n"
        "    tape.backward(batch_loss(model, batch, ds.assets.J, LossWeights()).total_node)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "pred, gt = out.vertices.data[0], batch['V_3d'][0]\n"
        "metrics.compute_report(pred, gt, ds.assets.J @ pred, ds.assets.J @ gt)\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
