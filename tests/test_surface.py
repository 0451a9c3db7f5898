"""The package ships only what runs: every top-level function or class in
``src/potts3``, and every method of such a class but the dunders, is named
by other package code or by a benchmark workload.
Checks that only the tests use live in ``tests/claims.py``.  The package
root re-exports nothing, so importing it loads no module it does not name."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module file, name) pairs kept although only tests name them, each with
# the reason it stays; empty while every definition is reached
EXEMPT: set[tuple[str, str]] = set()


def _names(tree: ast.AST) -> Counter[str]:
    """Identifiers a tree names, with their counts: variables, attributes,
    imported names and string constants (the benchmark patches functions
    by their names)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_package_definition_is_reached():
    # top-level definitions and the non-dunder methods of top-level classes
    named, defined = Counter(), []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        named += _names(ast.parse(path.read_text()))
    for path in sorted((ROOT / "src" / "potts3").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        named += _names(tree)
        for node in tree.body:
            if hasattr(node, "name"):                # function and class definitions
                defined.append((path.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    # a definition's own body (recursion, its methods) does not reach it
    unreached = [(file, name) for file, name, node in defined
                 if named[node.name] == _names(node)[node.name] and (file, name) not in EXEMPT]
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
    # the benchmark's set-up time covers this import and a lattice build:
    # it loads no numpy and no package module the lattice does not need
    assert "numpy" not in modules
    assert [m for m in modules if m.partition(".")[0] == "potts3"] == \
        ["potts3", "potts3.errors", "potts3.lattice"]


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
