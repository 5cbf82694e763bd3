"""Source lint: src states its run-time checks as raises, never as asserts."""

import ast
import os

import handmesh

# the one assert src keeps: a shape check on the template built from constants
ALLOWED = {("synth.py", "_build_mesh")}


def _asserts(tree):
    """(enclosing function name or None, line) of every assert in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((func, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_src_asserts_nothing_at_run_time():
    # `python -O` strips assert statements, so a check on run-time values
    # must raise instead
    src = os.path.dirname(os.path.abspath(handmesh.__file__))
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    assert "synth.py" in names
    stray = []
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        stray += [f"{name}:{line} in {func}" for func, line in _asserts(tree)
                  if (name, func) not in ALLOWED]
    assert stray == []
