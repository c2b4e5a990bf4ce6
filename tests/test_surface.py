"""The package's public surface: every name ``lieorbits`` exports is used
by the library itself or by the benchmark, the routines that only tests
call live in ``tests/oracles.py``, and what the benchmark reads of the
library is there."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    "parabolic": (
        "closure", "is_parabolic", "parabolic_from_nodes", "borel_chain", "sum_absorption_holds",
        "simple_roots_of_borel", "contains_borel", "closed_violation", "is_closed",
    ),
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


def test_root_lookups_that_only_tests_call_are_not_datum_methods():
    assert not hasattr(lieorbits.RootDatum, "index_of")
    assert not hasattr(lieorbits.RootDatum, "sum_index")


def test_the_tower_and_orbit_pipelines_never_build_the_sum_table(monkeypatch):
    # the walk decides "is a Borel" and the covering test "holds a Borel"
    from lieorbits.weyl import from_word

    rd = lieorbits.RootDatum("E", 8, lieorbits.cartan_matrix("E", 8))

    def refuse():
        raise AssertionError("sum table built")

    monkeypatch.setattr(rd, "sum_table", refuse)
    w = from_word(rd, [0, 2, 3, 4, 1, 3, 4, 5, 6, 7, 4, 3, 2, 0, 5, 4])
    for marks in ((), (0,), (1, 6)):
        lieorbits.demazure_refinement(rd, lieorbits.build_tower(rd, marks, w))
        lieorbits.smoothness_sufficient(rd, marks, w)
        lieorbits.minimal_schubert(rd, marks, w)
    table = lieorbits.orbit_table(rd, {7}, {7})
    assert sum(o.dense for o in table) == 1
    for o in table:
        assert lieorbits.is_dense_orbit(rd, o.w, {7}, {7}, cross_check=True) == o.dense


def qualified_functions(body, prefix=""):
    """Qualified names of the functions and methods defined in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from qualified_functions(node.body, f"{prefix}{node.name}.")


def test_only_the_cli_renders_output():
    # RootSubset.to_json serialises root coordinates, which carry no node labels
    renderers = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for name in qualified_functions(ast.parse(path.read_text()).body)
        if name.rsplit(".", 1)[-1] in ("to_json", "step_log") or name.endswith("_dot")
    ]
    assert renderers == ["parabolic.RootSubset.to_json"]


def test_tower_results_keep_only_the_layout_build_tower_decides():
    def fields(cls):
        return {f.name for f in cls.__dataclass_fields__.values()}

    assert fields(lieorbits.RefinedChain) == {"minimal_factors", "word", "groups"}
    assert not {"rd", "origins"} & fields(lieorbits.DesingTower)
    assert {"pieces", "fibres"} <= fields(lieorbits.DesingTower)
    assert not hasattr(lieorbits.DesingTower, "quotient_parabolic")


def load_bench_module(name):
    # under a name of its own: ``oracles`` is taken by tests/oracles.py
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_self_test_passes_before_any_query(monkeypatch):
    # the benchmark runs this outside any try, so a broken contract (say, a
    # non-set ``tower.base_borel.indices``) would end the whole run
    monkeypatch.syspath_prepend(str(BENCH))  # selftest imports inputs
    assert load_bench_module("oracles").selftest(lieorbits) == []


def test_every_traced_target_resolves_in_the_library():
    for _, module, attribute, _, _ in load_bench_module("spans").TARGETS:
        obj = importlib.import_module(f"lieorbits.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attribute}"


@pytest.mark.parametrize("workload", ["towers", "orbits"])
def test_one_untraced_benchmark_pass_is_correct(workload):
    # run.py checks every result outside any try, so a broken benchmark
    # contract ends the run; cli-cold is left out for its known hilbert
    # oracle defect, and traced runs write to perfbench/out/
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
