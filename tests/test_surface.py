"""The package ships only what runs: every top-level function or class in
``src/potts3`` is named by other package code or by a benchmark workload.
Checks that only the tests use live in ``tests/claims.py``.  The package
root re-exports nothing, so importing it loads no module it does not name."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module file, name) pairs kept although only tests name them, each with
# the reason it stays; empty while every definition is reached
EXEMPT: set[tuple[str, str]] = set()


def _names(tree: ast.AST) -> set[str]:
    """Identifiers a tree names: variables, attributes, imported names and
    string constants (the benchmark patches functions by their names)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_package_definition_is_reached():
    named = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        named |= _names(ast.parse(path.read_text()))
    defined = []
    for path in sorted((ROOT / "src" / "potts3").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)   # set on function and class definitions
            if own is not None:
                defined.append((path.name, own))
            # a definition's own body (recursion, its methods) does not reach it
            named |= _names(node) - {own}
    unreached = [d for d in defined if d[1] not in named and d not in EXEMPT]
    assert not unreached, f"only tests reach these; move them to tests/claims.py: {unreached}"


def test_bare_import_loads_no_numpy():
    # a fresh interpreter: this session has loaded every module already
    probe = """
import json, sys
import potts3
public = [n for n in vars(potts3) if not n.startswith("_")]
import potts3.lattice
print(json.dumps([public, sorted(sys.modules)]))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    public, modules = json.loads(out)
    assert public == []
    assert not {"numpy", "potts3.oracle", "potts3.dynamics", "potts3.entropy"} & set(modules)


def test_only_build_lattice_constructs_a_lattice():
    # one lattice per spec: every other caller goes through build_lattice
    calls = []
    for path in sorted((ROOT / "src" / "potts3").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "Lattice" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    calls.append((path.name, getattr(top, "name", None)))
    assert calls == [("lattice.py", "build_lattice")]
