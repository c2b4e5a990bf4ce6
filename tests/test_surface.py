"""The package's public surface: every name ``lieorbits`` exports is used
by the library itself or by the benchmark, the routines that only tests
call live in ``tests/oracles.py``, and what the benchmark reads of the
library is there.  The package loads names on first use, and each ``lie``
command imports only the modules it runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lieorbits
from lieorbits import cli

PACKAGE = Path(lieorbits.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the names the package exports, by the module that defines each
EXPORTS = {
    "rootsys": "ConsistencyError DomainRefusal Root RootDatum build_root_system cartan_matrix"
    " diagram_components_after_removal involution_i",
    "weyl": "CosetOrbit WeylElement bruhat_leq double_coset_orbits from_word identity"
    " longest_element simple_reflection weyl_group",
    "parabolic": "ParabolicSequence RootSubset max_parabolic_pair next_borels parabolic_sequence"
    " quotient_dimension standard_borel standard_parabolic_set",
    "orbits": "LeviQuotient NilradicalFiltration OrbitDescriptor complement_codim_ge2"
    " complement_min_codim is_dense_orbit levi_quotient nilradical_filtration orbit_dimension"
    " orbit_table",
    "curves": "CurveClass ExistenceVerdict curve_class decide_smooth_rational_curve"
    " hilbert_dimension positivity reduce_positive_class tangent_degree tangent_degree_from_roots",
    "desing": "DesingTower MinimalModel RefinedChain borel_completion build_tower"
    " demazure_refinement minimal_schubert smoothness_sufficient tower_dimension",
}


def exported_names() -> set[str]:
    """The keys of the package's lazy name table."""
    return set(lieorbits._EXPORTS)


def test_the_lazy_table_maps_each_exported_name_to_its_home():
    # DomainRefusal lives beside ConsistencyError, and quotient_dimension beside
    # the parabolics it counts; orbits still re-exports both
    assert lieorbits._EXPORTS == {
        name: module for module, names in EXPORTS.items() for name in names.split()
    }
    assert lieorbits.orbits.DomainRefusal is lieorbits.rootsys.DomainRefusal
    assert lieorbits.orbits.quotient_dimension is lieorbits.parabolic.quotient_dimension


def fresh_interpreter(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter with the package's sources on the
    path; it prints one JSON object, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


LAZY_PACKAGE = """
import importlib, json, sys
import lieorbits

def loaded():
    return sorted(m for m in sys.modules if m.startswith("lieorbits."))

facts = {"on_import": loaded()}
facts["rootsys"] = lieorbits.rootsys is sys.modules["lieorbits.rootsys"]
facts["after_rootsys"] = loaded()
facts["curve_class"] = lieorbits.curves.curve_class is sys.modules["lieorbits.curves"].curve_class
facts["not_home"] = [
    name for name in lieorbits.__all__
    if getattr(lieorbits, name)
    is not getattr(importlib.import_module("lieorbits." + lieorbits._EXPORTS[name]), name)
]
facts["not_in_dir"] = sorted(set(lieorbits.__all__) - set(dir(lieorbits)))
try:
    lieorbits.closure
    facts["unknown"] = "resolved"
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_the_package_loads_each_name_from_its_home_on_first_use():
    facts = fresh_interpreter(LAZY_PACKAGE)
    assert facts["on_import"] == []
    assert facts["rootsys"] and facts["after_rootsys"] == ["lieorbits.rootsys"]
    assert facts["curve_class"]
    assert facts["not_home"] == [] and facts["not_in_dir"] == []
    assert facts["unknown"] == "module 'lieorbits' has no attribute 'closure'"


AFTER_SELFTEST = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lieorbits, oracles

problems = oracles.selftest(lieorbits)
print(json.dumps({"problems": problems, "loaded": sorted(sys.modules)}))
"""


def test_the_benchmark_self_test_loads_what_the_warm_passes_use():
    # run.py calls selftest before it starts the clock, so no timed query of
    # the towers or orbits pass pays an import
    facts = fresh_interpreter(AFTER_SELFTEST, str(BENCH))
    assert facts["problems"] == []
    warm = {"rootsys", "weyl", "parabolic", "desing", "orbits"}
    assert {f"lieorbits.{m}" for m in warm} <= set(facts["loaded"])


RUN_COMMAND = """
import contextlib, io, json, sys
from lieorbits.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({
    "exit": code,
    "loaded": sorted(m for m in sys.modules if m.startswith("lieorbits")),
    "heavy": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
}))
"""
# the library modules each command runs, beyond the package and the CLI
ORBIT_MODULES = ("orbits", "parabolic", "weyl", "rootsys")
CURVE_MODULES = ("curves", "parabolic", "weyl", "rootsys")
TOWER_MODULES = ("desing", "parabolic", "weyl", "rootsys")
COMMAND_MODULES = {
    "root-system": ("rootsys",),
    **dict.fromkeys(("orbits", "codim", "levi", "nilradical"), ORBIT_MODULES),
    **dict.fromkeys(("curves", "hilbert"), CURVE_MODULES),
    **dict.fromkeys(("desing", "refine", "smooth", "minimal"), TOWER_MODULES),
}


HEAVY_LOADED = """
import json, sys
print(json.dumps({"heavy": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}))
"""


def test_a_bare_interpreter_loads_neither_dataclasses_nor_inspect():
    # the premise of the check below that no command loads them: a site hook
    # that imports either would make that check fail whatever the library does
    assert fresh_interpreter(HEAVY_LOADED)["heavy"] == []


def test_every_command_has_its_module_set():
    assert set(COMMAND_MODULES) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_imports_only_the_modules_it_runs(command):
    facts = fresh_interpreter(
        RUN_COMMAND, command, "--type", "A", "--rank", "3", "--p", "1", "--pprime", "2",
        "--word", "2 1 3", "--degrees", "1",
    )
    assert facts["exit"] == 0
    want = {"lieorbits", "lieorbits.cli"} | {f"lieorbits.{m}" for m in COMMAND_MODULES[command]}
    assert facts["loaded"] == sorted(want)
    # records are NamedTuples and value types hand-written, so that a cold
    # command pays for neither dataclasses nor the inspect it imports
    assert facts["heavy"] == []


def test_the_installed_lie_script_runs_the_cli(capsys):
    # pyproject.toml maps the console script to its target, which no CI step installs
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\n(?:.+\n)*?lie = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert target, "no lie entry under [project.scripts]"
    main = getattr(importlib.import_module(target[1]), target[2])
    assert main(["root-system", "--type", "A", "--rank", "2"]) == 0
    assert capsys.readouterr().out.startswith("A2: 6 roots, 3 positive\n")


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
    assert set(lieorbits.CosetOrbit._fields) == {"representative", "size"}
    assert not hasattr(lieorbits.CosetOrbit, "members")


def test_root_lookups_that_only_tests_call_are_not_datum_methods():
    assert not hasattr(lieorbits.RootDatum, "index_of")
    assert not hasattr(lieorbits.RootDatum, "sum_index")


def test_the_tower_and_orbit_pipelines_never_build_the_sum_table():
    # the walk decides "is a Borel", the covering test "holds a Borel" and
    # marked height grades the nilradical, so a datum carries no sum table
    from lieorbits.weyl import from_word

    rd = lieorbits.RootDatum("E", 8, lieorbits.cartan_matrix("E", 8))
    w = from_word(rd, [0, 2, 3, 4, 1, 3, 4, 5, 6, 7, 4, 3, 2, 0, 5, 4])
    for marks in ((), (0,), (1, 6)):
        lieorbits.demazure_refinement(rd, lieorbits.build_tower(rd, marks, w))
        lieorbits.smoothness_sufficient(rd, marks, w)
        lieorbits.minimal_schubert(rd, marks, w)
    table = lieorbits.orbit_table(rd, {7}, {7})
    assert sum(o.dense for o in table) == 1
    for o in table:
        assert lieorbits.is_dense_orbit(rd, o.w, {7}, {7}, cross_check=True) == o.dense
    assert len(lieorbits.nilradical_filtration(rd, {3}).layers) == 6
    for name in ("sum_table", "_sums"):
        assert not hasattr(lieorbits.RootDatum, name)
        assert not hasattr(rd, name)


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
        return set(cls._fields)

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


def benchmark_attribute_paths():
    """Each ``lieorbits`` attribute chain the benchmark's code reads, as
    ``(file, dotted path)``: chains rooted at ``lib`` (the imported
    package), at a module bound by ``from lieorbits import ...`` and, in
    ``cli_child.py``, at ``cli``, the CLI module it imports by name."""
    out = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {"lib": ""}
        if path.name == "cli_child.py":
            roots["cli"] = "cli"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "lieorbits":
                roots.update({a.asname or a.name: a.name for a in node.names})
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in roots:
                dotted = ".".join([roots[node.id], *reversed(chain)]).lstrip(".")
                out.add((path.name, dotted))
    return sorted(out)


def test_every_library_attribute_the_benchmark_reads_resolves():
    # a lost name shows only when its line runs: cli_child.py evaluates its
    # ``except`` clause, with ``parabolic.ConsistencyError``, on the first
    # query that raises
    paths = benchmark_attribute_paths()
    for must in (("cli_child.py", "parabolic.ConsistencyError"), ("run.py", "desing.build_tower"),
                 ("run.py", "weyl.bruhat_leq"), ("oracles.py", "build_tower")):
        assert must in paths
    for name, dotted in paths:
        obj = lieorbits
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{name}: lieorbits.{dotted}"
            obj = getattr(obj, part)
    assert lieorbits.parabolic.ConsistencyError is lieorbits.rootsys.ConsistencyError


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
