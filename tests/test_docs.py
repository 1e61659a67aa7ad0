"""README's module map and numerical policy name only what the library
defines, so a rename cannot leave a stale name in them."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = ("Module map", "Numerical policy")
# named in those sections, defined by no Python code of the library: the
# benchmark's workloads and the float spellings a result never prints
NOT_DEFINED = {"tower_climbs", "exact_orbits", "float_sweeps", "inf", "NaN"}
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def readme_names():
    """The backticked names, dotted or not, of README's SECTIONS."""
    text = (ROOT / "README.md").read_text()
    names = set()
    for part in re.split(r"^## ", text, flags=re.M):
        if part.split("\n", 1)[0].strip() in SECTIONS:
            names.update(t for t in re.findall(r"`([^`\n]+)`", part)
                         if NAME.fullmatch(t))
    return names


def defined_names():
    """Every module, class, function, assigned name and assigned
    attribute under ``src/iet_lab``, and the CLI's string literals (its
    command names and choices)."""
    names = set()
    for path in (ROOT / "src" / "iet_lab").glob("*.py"):
        names.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Store):
                names.add(node.attr)
            elif (path.stem == "cli" and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def test_readme_names_are_defined():
    names = readme_names()
    assert {"ExactWalker", "float_walk", "TowerTable"} <= names
    defined = defined_names()
    stale = sorted(name for name in names - NOT_DEFINED
                   if not set(name.split(".")) <= defined)
    assert stale == []
