"""The package's public surface: every name ``lieorbits`` exports is used
by the library itself or by the benchmark, and the routines that only
tests call live in ``tests/oracles.py``."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import lieorbits

PACKAGE = Path(lieorbits.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("__")
    }


def library_references() -> set[str]:
    """Names the library's code reads, as a bare name or an attribute;
    definitions, docstrings and comments do not count."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    bench = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    used = library_references()
    unused = sorted(
        name
        for name in exported_names()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)
    )
    assert unused == []


# routines whose only callers are tests, by module; tests import them from oracles
TEST_ONLY = {
    "rootsys": ("root_sum", "cartan_pairing"),
    "weyl": ("act_on_root",),
    "parabolic": ("is_parabolic", "parabolic_from_nodes", "borel_chain", "sum_absorption_holds"),
    "curves": ("p1_fibration_candidates", "FibrationCandidate", "lift_feasible"),
}


def test_test_only_routines_are_not_library_attributes():
    for module, names in TEST_ONLY.items():
        mod = importlib.import_module(f"lieorbits.{module}")
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert not hasattr(lieorbits, name), name
    assert not hasattr(lieorbits.Root, "is_positive")
    assert not hasattr(lieorbits.RootSubset, "from_json")
    fields = {f.name for f in lieorbits.CosetOrbit.__dataclass_fields__.values()}
    assert fields == {"representative", "size"}
    assert not hasattr(lieorbits.CosetOrbit, "members")
