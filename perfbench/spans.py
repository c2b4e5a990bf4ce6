"""Spans around calls into the library's public functions.

Tracing replaces each function listed in ``TARGETS`` by a wrapper, in every
``lieorbits`` module that binds it, so calls between library modules are
timed as well as the benchmark's own calls.  Nothing in the library changes.
A span records its name, start, end, the span that called it and the query
it belongs to.  Spans stay in memory and are written out when the run ends.

Busy seconds of a function count only its outermost span, so a recursive
call is not counted twice.  Self seconds subtract the spans of the calls it
made directly.  ``reflection_perms`` is an accessor the library calls
thousands of times per tower; it is summed without keeping its spans.
Time the host clock's reference tasks (hostspeed.py) take inside a span is
left out of its busy and self seconds.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (metric prefix, module, attribute, count metric, count read from the result).
# weyl.longest_element and desing.tower_dimension have no metric in
# BENCHMARK.json; they are traced so that top-level spans cover every library
# call a query makes, which the uncovered share relies on.
TARGETS = (
    ("rootsys.build_root_system", "rootsys", "build_root_system", "rootsys.roots", lambda r: len(r.roots)),
    ("rootsys.reflection_perms", "rootsys", "RootDatum.reflection_perms", None, None),
    ("rootsys.involution_i", "rootsys", "involution_i", None, None),
    ("weyl.weyl_group", "weyl", "weyl_group", "weyl.elements", len),
    ("weyl.double_coset_orbits", "weyl", "double_coset_orbits", "weyl.double_cosets", len),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq", "weyl.bruhat_leq.calls", lambda r: 1),
    ("weyl.from_word", "weyl", "from_word", None, None),
    ("weyl.reduced_word", "weyl", "WeylElement.reduced_word", None, None),
    ("weyl.longest_element", "weyl", "longest_element", None, None),
    ("parabolic.parabolic_sequence", "parabolic", "parabolic_sequence", "parabolic.sequence_steps",
     lambda r: r.terminal_index),
    ("parabolic.borel_to_weyl", "parabolic", "borel_to_weyl", None, None),
    ("desing.borel_completion", "desing", "borel_completion", None, None),
    ("desing.build_tower", "desing", "build_tower", "desing.tower_factors", lambda r: len(r.factors)),
    ("desing.demazure_refinement", "desing", "demazure_refinement", "desing.refined_word_len",
     lambda r: len(r.word)),
    ("desing.tower_dimension", "desing", "tower_dimension", None, None),
    ("desing.smoothness_sufficient", "desing", "smoothness_sufficient", None, None),
    ("desing.minimal_schubert", "desing", "minimal_schubert", None, None),
    ("orbits.orbit_table", "orbits", "orbit_table", "orbits.orbit_count", len),
    ("orbits.is_dense_orbit", "orbits", "is_dense_orbit", None, None),
    ("orbits.complement_min_codim", "orbits", "complement_min_codim", None, None),
    ("orbits.complement_codim_ge2", "orbits", "complement_codim_ge2", None, None),
    ("orbits.levi_quotient", "orbits", "levi_quotient", None, None),
    ("orbits.nilradical_filtration", "orbits", "nilradical_filtration", "orbits.nilradical_layers",
     lambda r: len(r.layers)),
    ("curves.decide_smooth_rational_curve", "curves", "decide_smooth_rational_curve", None, None),
    ("curves.hilbert_dimension", "curves", "hilbert_dimension", None, None),
    ("curves.tangent_degree", "curves", "tangent_degree", None, None),
    ("curves.tangent_degree_from_roots", "curves", "tangent_degree_from_roots", None, None),
)
UNKEPT = {"rootsys.reflection_perms"}
MODULES = ("lieorbits", "rootsys", "weyl", "parabolic", "orbits", "curves", "desing", "cli")


class Recorder:
    """Spans of one run, with busy, self and covered time summed as they
    close."""

    def __init__(self, clock=None):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, query]
        self.stack = []  # [span index or None, seconds spent in direct children]
        self.depth = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered = defaultdict(float)  # query -> seconds inside top-level spans
        self.query = None
        self.enabled = True

    def call(self, name, fn, *args, count=None, count_fn=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = None
        if name not in UNKEPT:
            idx = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, -1 if parent is None else parent, self.query])
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        stolen = self.clock.stolen if self.clock else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.depth[name] -= 1
            took = end - start - ((self.clock.stolen if self.clock else 0.0) - stolen)
            if idx is not None:
                self.spans[idx][1:3] = [start, end]
            if self.depth[name] == 0:
                self.busy[name] += took
            self.self_s[name] += took - frame[1]
            if self.stack:
                self.stack[-1][1] += took
            else:
                self.covered[self.query] += took
        if count is not None and self.depth[name] == 0:
            self.counts[count] += count_fn(result)
        return result

    def wrap(self, name, fn, count, count_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, count_fn=count_fn, **kwargs)

        return traced

    def export(self) -> dict:
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "covered": sum(self.covered.values()),
            "spans": self.spans,
        }

    def merge(self, other: dict, query) -> None:
        """Add the spans of a query traced in another process."""
        for key, into in (("busy", self.busy), ("self", self.self_s), ("counts", self.counts)):
            for name, value in other[key].items():
                into[name] += value
        self.covered[query] += other["covered"]
        base = len(self.spans)
        for name, start, end, parent, _ in other["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, query])


def install(rec: Recorder) -> None:
    """Route every listed library function through ``rec``."""
    mods = {m: importlib.import_module("lieorbits" if m == "lieorbits" else f"lieorbits.{m}") for m in MODULES}
    for name, module, attr, count, count_fn in TARGETS:
        owner = mods[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, rec.wrap(name, getattr(cls, attr), count, count_fn))
            continue
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, count, count_fn)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer values by metric name; functions never called read 0."""
    out = {}
    for name, _, _, count, _ in TARGETS:
        out[f"{name}.s"] = rec.busy.get(name, 0.0)
        if count is not None:
            out[count] = rec.counts.get(count, 0)
    out["desing.build_tower.self_s"] = rec.self_s.get("desing.build_tower", 0.0)
    for name in ("cli.import", "cli.parse_query", "cli.run_query"):
        out[f"{name}.s"] = rec.busy.get(name, 0.0)
    return out
