"""Benchmark of the lieorbits library and its ``lie`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads, each a closed loop with one client in one process:

* ``towers``: a warm library session.  A query takes (type, P, w) and calls
  ``build_tower``, ``demazure_refinement``, ``tower_dimension``,
  ``smoothness_sufficient`` and ``minimal_schubert``.
* ``orbits``: a warm library session.  A query takes (type, P, P') and calls
  ``orbit_table``, ``complement_codim_ge2``, ``complement_min_codim``,
  ``is_dense_orbit(w0, cross_check=True)`` and ``bruhat_leq`` on every pair
  of orbit representatives.
* ``cli-cold``: one ``python -m lieorbits.cli`` invocation per query, each
  in a fresh interpreter.

The seed fixes the queries of one pass (see inputs.py).  The run repeats
whole passes until S seconds have passed, at least one, and checks every
result with the oracles in oracles.py.  It prints the input mix and the
metrics as text, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` one pass runs with spans (spans.py), the
spans are written to perfbench/out/, and the metrics are the per-layer ones.

Query times cover the library calls or the CLI process only; the oracle
checks run between queries, outside the timed intervals, and the host-speed
reference tasks (hostspeed.py) that interrupt a query are left out of its
time.  Every reported time is divided by the host factor measured around it,
so that it reads as on the baseline host; the raw figures are printed beside
them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
# Fixed per workload so that runs with more samples report the same
# percentile: the highest that leaves at least ten samples beyond it in one
# pass, except on cli-cold.  There the cost of the slowest fifth of commands
# (E8 and E7 tower commands, A30 and D16) falls off steeply and its shape
# changes with the seed, so p85 and p80 jumped by a quarter between seeds;
# from p70 down the commands are dense and the percentile holds still.
TAIL_PERCENTILE = {"towers": 85, "orbits": 75, "cli-cold": 70}
CLI_TIMEOUT_S = 120
UNTRACED_TIMEOUT_S = 170
MAX_FAILURE_LINES = 20


@dataclass
class Record:
    label: str
    start: float
    wall: float
    fails: list


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LIE_MAX_WEYL", None)  # the library's default cap applies
    return env


def measure_setup(workload: str, clock) -> list:
    """(start, wall time) of fresh interpreters doing the set-up alone."""
    from inputs import setup_types

    if workload == "cli-cold":
        code = "import lieorbits.cli"
    else:
        code = (
            "import lieorbits\n"
            f"for t, r in {setup_types(workload)!r}:\n"
            "    lieorbits.build_root_system(t, r)\n"
        )
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        with clock.child():
            start = time.perf_counter()
            subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
            times.append((start, time.perf_counter() - start))
    return times


def tower_query(lib, q):
    rd = lib.rootsys.build_root_system(q.lie_type, q.rank)
    w = lib.weyl.from_word(rd, q.word)
    tower = lib.desing.build_tower(rd, q.p_nodes, w)
    chain = lib.desing.demazure_refinement(rd, tower)
    dim = lib.desing.tower_dimension(tower)
    smooth = lib.desing.smoothness_sufficient(rd, q.p_nodes, w)
    model = lib.desing.minimal_schubert(rd, q.p_nodes, w)
    return rd, (tower, chain, dim, smooth, model)


def orbit_query(lib, q):
    rd = lib.rootsys.build_root_system(q.lie_type, q.rank)
    p, pp = q.p_nodes, q.pprime_nodes
    table = lib.orbits.orbit_table(rd, p, pp)
    ge2 = lib.orbits.complement_codim_ge2(rd, p, pp)
    min_codim = lib.orbits.complement_min_codim(rd, p, pp)
    w0 = lib.weyl.longest_element(rd)
    dense = lib.orbits.is_dense_orbit(rd, w0, p, pp, cross_check=True)
    leq = [[lib.weyl.bruhat_leq(a.w, b.w) for b in table] for a in table]
    return rd, (table, ge2, min_codim, dense, leq)


def tower_label(q) -> str:
    return f"{q.lie_type}{q.rank} P={sorted(i + 1 for i in q.p_nodes)} w={[i + 1 for i in q.word]}"


def orbit_label(q) -> str:
    p = sorted(i + 1 for i in q.p_nodes)
    return f"{q.lie_type}{q.rank} P={p} P'={sorted(i + 1 for i in q.pprime_nodes)}"


def run_library_pass(lib, workload, queries, rec, clock, first_index) -> list:
    import oracles

    query_fn, check_fn, label_fn = {
        "towers": (tower_query, lambda rd, q, raw: oracles.check_tower(rd, q, oracles.tower_facts(*raw)), tower_label),
        "orbits": (orbit_query, lambda rd, q, raw: oracles.check_orbits(rd, q, oracles.orbit_facts(*raw)), orbit_label),
    }[workload]
    records = []
    for k, q in enumerate(queries):
        if rec is not None:
            rec.query = first_index + k
        start, stolen = time.perf_counter(), clock.stolen
        try:
            rd, raw = query_fn(lib, q)
            error = None
        except Exception as exc:  # a query that raises is a failed query; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start - (clock.stolen - stolen)
        if rec is not None:
            rec.enabled = False
        fails = [error] if error else check_fn(rd, q, raw)
        if rec is not None:
            rec.enabled = True
        records.append(Record(label_fn(q), start, wall, fails))
    return records


def run_cli_pass(lib, queries, rec, clock, first_index) -> list:
    import oracles

    entry = [str(HERE / "cli_child.py")] if rec is not None else ["-m", "lieorbits.cli"]
    records = []
    for k, q in enumerate(queries):
        label = "lie " + " ".join(repr(a) if (" " in a or not a) else a for a in q.argv())
        with clock.child():
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, *entry, *q.argv()],
                    env=child_env(),
                    cwd=ROOT,
                    capture_output=True,
                    text=True,
                    timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
            wall = time.perf_counter() - start
        if proc is None:
            records.append(Record(label, start, wall, [f"timed out after {CLI_TIMEOUT_S} s"]))
            continue
        rc, out = proc.returncode, proc.stdout
        if rec is not None:
            try:
                child = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                records.append(Record(label, start, wall, [f"traced child failed: {proc.stderr.strip()[-300:]}"]))
                continue
            rc, out = child["rc"], child["out"]
            rec.merge(child["trace"], first_index + k)
        rd = lib.rootsys.build_root_system(q.lie_type, q.rank)
        degrees = None
        if q.degrees is not None:
            c = lib.curves.curve_class(q.p_nodes, q.degrees)
            degrees = (
                lib.curves.tangent_degree(rd, q.p_nodes, c),
                lib.curves.tangent_degree_from_roots(rd, q.p_nodes, c),
            )
        records.append(Record(label, start, wall, oracles.check_cli(rd, q, rc, out, degrees)))
    return records


def untraced_busy_seconds(workload: str, seed: int) -> float:
    """Busy seconds of one untraced pass, run in a separate process, as on
    the baseline host."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=UNTRACED_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    completed = result["attempted"] - result["failed"]
    return completed / result["metrics"]["queries_per_s"]["value"]


def nearest_rank(values: list, pct: float) -> tuple:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("towers", "orbits", "cli-cold"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "lieorbits" / "__init__.py").is_file():
        print(f"error: no lieorbits sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LIE_MAX_WEYL", None)
    import lieorbits as lib
    import oracles
    from hostspeed import HostClock
    from inputs import PASSES, input_mix
    from spans import Recorder, install, layer_metrics

    if Path(lib.__file__).resolve().parent != SRC / "lieorbits":
        print(f"error: lieorbits imported from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload, traced = args.workload, bool(args.trace)

    queries = PASSES[workload](args.seed, lib.build_root_system)
    problems = oracles.selftest(lib)
    untraced_busy = untraced_busy_seconds(workload, args.seed) if traced else None

    with HostClock() as clock:
        setups = measure_setup(workload, clock)
        rec = None
        if traced:
            rec = Recorder(clock)
            if workload != "cli-cold":
                install(rec)
        records, passes = [], 0
        start = time.perf_counter()
        while True:
            if workload == "cli-cold":
                records += run_cli_pass(lib, queries, rec, clock, len(records))
            else:
                records += run_library_pass(lib, workload, queries, rec, clock, len(records))
            passes += 1
            if traced or time.perf_counter() - start >= args.seconds:
                break

    walls = [r.wall for r in records]
    in_child = workload == "cli-cold"
    times = [r.wall / clock.factor(r.start, r.start + r.wall, in_child) for r in records]
    setup_raw = statistics.median(t for _, t in setups)
    setup_s = statistics.median(t / clock.factor(start, start + t, True) for start, t in setups)
    failed = [r for r in records if r.fails]
    busy = sum(walls)
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = nearest_rank(times, pct)
    completed = len(records) - len(failed)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(times) * 1000,
        "query_tail_ms": tail * 1000,
        "queries_per_s": completed / sum(times),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    raw = {
        "query_p50_ms": statistics.median(walls) * 1000,
        "query_tail_ms": nearest_rank(walls, pct)[0] * 1000,
        "queries_per_s": completed / busy,
    }
    factor = clock.factor(child=in_child)

    print(f"workload {workload} seed {args.seed}: {len(records)} queries in {passes} pass(es), "
          f"{busy:.3f} s busy, trace {args.trace}")
    print("input mix " + json.dumps(input_mix(queries, lib.build_root_system), sort_keys=True))
    references = f"{len(clock.child_samples)} reference children" if in_child else f"{len(clock.samples)} reference tasks"
    print(f"host factor {factor:.4f} over the run (median of {references} over the baseline host's); "
          "times below are divided by the factor around each query, raw figures in brackets")
    if not traced:
        print(f"setup_s {values['setup_s']:.4f} s [{setup_raw:.4f}] (median of {SETUP_REPEATS} fresh interpreters)")
        print(f"query_p50_ms {values['query_p50_ms']:.3f} ms [{raw['query_p50_ms']:.3f}]")
        print(f"query_tail_ms {values['query_tail_ms']:.3f} ms [{raw['query_tail_ms']:.3f}] "
              f"(p{pct}, n={len(walls)}, {beyond} beyond)")
        print(f"queries_per_s {values['queries_per_s']:.4f} 1/s [{raw['queries_per_s']:.4f}]")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {len(failed) / len(records):.4f} ({len(failed)} of {len(records)})")
    for r in failed[:MAX_FAILURE_LINES]:
        print(f"FAILED {r.label}: {'; '.join(r.fails)}")
    for p in problems:
        print(f"SELFTEST {p}")

    if traced:
        layers = layer_metrics(rec)
        for name, value in layers.items():
            if name.rsplit(".", 1)[-1] in ("s", "self_s"):  # busy seconds, as on the baseline host
                layers[name] = value / factor
        layers["trace.overhead_s"] = sum(times) - untraced_busy
        values.update(layers)
        uncovered = [max(0.0, 1 - rec.covered[k] / r.wall) for k, r in enumerate(records)]
        values["trace.uncovered_pct"] = statistics.median(uncovered) * 100
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-{args.seed}.jsonl"
        with spans_file.open("w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"tracing overhead {values['trace.overhead_s']:.3f} s over {untraced_busy:.3f} s untraced; "
              f"median uncovered share {values['trace.uncovered_pct']:.2f} %; "
              f"{len(rec.spans)} spans in {spans_file.relative_to(ROOT)}")
        for m in spec["per_layer"]:
            print(f"  {m['name']} {values[m['name']]} {m['unit']}")

    listed = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
