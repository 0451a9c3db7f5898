"""The package ships only what runs: every top-level function or class in
``src/potts3``, and every method of such a class but the dunders, is named
by other package code or by a benchmark workload.
Checks that only the tests use live in ``tests/claims.py``.  The package
root re-exports nothing, so importing it loads no module it does not name.
The README's claims table quotes only numbers that its named tests freeze,
and its flag table and example commands are the parser's."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from potts3.cli import make_parser

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


README = (ROOT / "README.md").read_text()


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row is ``header``,
    as lists of stripped cells."""
    lines = README.splitlines()
    at = lines.index(header)
    rows = []
    for line in lines[at + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _commands(ap) -> dict[str, object]:
    """Each command of the parser ``ap`` and its subparser."""
    return ap._subparsers._group_actions[0].choices


def _quoted_numbers(cell: str) -> list[str]:
    """The numbers a cell quotes: integers, with or without thousands
    separators, and fractions p/q."""
    return re.findall(r"\d+(?:,\d{3})*(?:/\d+(?:,\d{3})*)?", cell)


def _frozen_in(number: str, source: str) -> bool:
    """Whether ``source`` holds ``number``: its separators dropped (commas
    in the README, underscores in Python), and a fraction p/q as "p/q",
    as a pair (p, q) or as Fraction(p', q') in lowest terms."""
    number = number.replace(",", "")
    source = re.sub(r"(?<=\d)_(?=\d)", "", source)
    if "/" not in number:
        return re.search(rf"(?<!\d){number}(?!\d)", source) is not None
    p, q = number.split("/")
    low = Fraction(int(p), int(q))
    flat = re.sub(r"\s", "", source)
    return (re.search(rf"(?<!\d){p}/{q}(?!\d)", source) is not None
            or f"({p},{q})" in flat
            or f"Fraction({low.numerator},{low.denominator})" in flat)


def test_readme_claims_are_frozen_by_the_named_tests():
    rows = _table("| paper's claim | exact result | command | frozen by |")
    assert README.split("## ")[1].startswith("What the lab shows")   # the README opens with it
    assert len(rows) >= 7
    for claim, result, _command, frozen_by in rows:
        path, name = re.fullmatch(r"`tests/(test_\w+)\.py::(test_\w+)`", frozen_by).groups()
        source = inspect.getsource(getattr(importlib.import_module(path), name))
        numbers = _quoted_numbers(result)
        assert numbers, claim
        missing = [x for x in numbers if not _frozen_in(x, source)]
        assert not missing, f"{frozen_by} does not freeze {missing} ({claim})"


def test_readme_flag_table_is_the_parser():
    ap = make_parser()
    commands = _commands(ap)
    rows = _table("| command | flags |")
    assert [cmd for cmd, _ in rows] == list(commands)
    for cmd, cell in rows:
        flags = set(re.findall(r"--[a-z-]+", cell))
        actions = {a.option_strings[0]: a for a in commands[cmd]._actions
                   if a.option_strings and a.option_strings[0].startswith("--")}
        assert flags == set(actions) - {"--out"}, cmd
        if "--kind" in actions:
            only = re.search(r"\((\w+) only\)", cell)
            assert tuple(actions["--kind"].choices) == ((only[1],) if only else ("box", "torus")), cmd
    settable = sum(len(set(vars(ap.parse_args([cmd]))) - {"command", "func"}) for cmd in commands)
    assert re.search(r"\((\d+) settable\s+values", README)[1] == str(settable) == "59"


def test_readme_examples_parse():
    # every command line the README shows, one per command, with declared
    # flags spelled in full
    ap = make_parser()
    commands = _commands(ap)
    examples = [shlex.split(line) for line in README.splitlines() if line.startswith("potts3 ")]
    assert sorted(argv[1] for argv in examples) == sorted(commands)
    for argv in examples:
        args = ap.parse_args(argv[1:])       # argparse exits on an unknown flag
        declared = {a.option_strings[0] for a in commands[argv[1]]._actions if a.option_strings}
        assert {tok.split("=")[0] for tok in argv if tok.startswith("--")} <= declared, argv
        assert args.out.startswith("runs/"), argv
