"""Command-line front end: parse group/parabolic/class/word inputs,
dispatch to the library, and emit text, JSON or DOT.

Node indices are 1-based on the command line and 0-based inside the
library; the conversion happens exactly here.  Exit codes: 0 success;
1 for a parse error, a ``ValueError`` from the library (such as an orbit
table whose walk of W/W_P' passes the ``LIE_MAX_WEYL`` cap on weights, or a
degree vector whose length does not match the marks of P) or an internal
invariant failure (``ConsistencyError``); 2 for a domain refusal.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO

from . import curves, desing, orbits, rootsys, weyl


class ParseExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message: str):
        raise ParseExit(f"{self.prog}: error: {message}")


@dataclass(frozen=True)
class Query:
    """One validated CLI request."""

    command: str
    lie_type: str
    rank: int
    p_nodes: Optional[frozenset[int]]
    pprime_nodes: Optional[frozenset[int]]
    word: Optional[tuple[int, ...]]
    degrees: Optional[tuple[int, ...]]
    fmt: str


def _parse_nodes(raw: str, rank: int, flag: str) -> frozenset[int]:
    out = set()
    for tok in raw.replace(",", " ").split():
        try:
            i = int(tok)
        except ValueError:
            raise ParseExit(f"error: {flag}: {tok!r} is not a node index") from None
        if not 1 <= i <= rank:
            raise ParseExit(f"error: {flag}: node {i} outside 1..{rank}")
        out.add(i - 1)
    return frozenset(out)


def _parse_word(raw: str, lie_type: str, rank: int) -> tuple[int, ...]:
    toks = raw.split()
    if len(toks) == 1 and len(toks[0]) > 1 and toks[0].isdigit():
        digits = [int(ch) for ch in toks[0]]
        if lie_type == "A" and sorted(digits) == list(range(1, rank + 2)):
            return weyl.permutation_to_word(digits)
        toks = list(toks[0])  # compact word, e.g. "121"
    out = []
    for tok in toks:
        try:
            i = int(tok)
        except ValueError:
            raise ParseExit(f"error: --word: {tok!r} is not a reflection index") from None
        if not 1 <= i <= rank:
            raise ParseExit(
                f"error: --word: reflection index {i} outside 1..{rank}"
                + (" (not a valid one-line permutation either)" if lie_type == "A" else "")
            )
        out.append(i - 1)
    return tuple(out)


def _parse_degrees(raw: str) -> tuple[int, ...]:
    out = []
    for tok in raw.replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseExit(f"error: --degrees: {tok!r} is not an integer") from None
    return tuple(out)


def build_parser() -> Parser:
    parser = Parser(prog="lie", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--type", required=True, choices=list("ABCDEFG"), dest="lie_type")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--p", default=None, help="marked nodes of P, e.g. '1,3'")
        p.add_argument("--pprime", default=None, help="marked nodes of P'")
        p.add_argument(
            "--word",
            default=None,
            help="reflection word '2 1 3 2' or, for type A, a one-line permutation like '3412'",
        )
        p.add_argument("--degrees", default=None, help="degree vector, e.g. '1,0,2'")
        p.add_argument(
            "--format",
            default="text",
            choices=("text", "json", "dot"),
            dest="fmt",
        )
    return parser


def parse_query(argv: Sequence[str]) -> Query:
    argv = list(argv)
    # argparse reads a value such as "-1,1" as an option unless it is glued
    # on; "--d" and longer prefixes abbreviate --degrees alone
    for k in range(len(argv) - 1, 0, -1):
        opt, value = argv[k - 1], argv[k]
        if len(opt) > 2 and "--degrees".startswith(opt) and re.match(r"-\d", value):
            argv[k - 1 : k + 1] = [f"--degrees={value}"]
    ns = build_parser().parse_args(argv)
    if ns.command is None:
        raise ParseExit("error: a command is required (see --help)")
    rootsys.validate_type(ns.lie_type, ns.rank)
    for flag in COMMANDS[ns.command].required:
        if getattr(ns, flag) is None:
            raise ParseExit(f"error: --{flag} is required for {ns.command}")
    p_nodes = _parse_nodes(ns.p, ns.rank, "--p") if ns.p is not None else None
    pp_nodes = (
        _parse_nodes(ns.pprime, ns.rank, "--pprime") if ns.pprime is not None else None
    )
    word = _parse_word(ns.word, ns.lie_type, ns.rank) if ns.word is not None else None
    degrees = _parse_degrees(ns.degrees) if ns.degrees is not None else None
    return Query(
        ns.command, ns.lie_type, ns.rank, p_nodes, pp_nodes, word, degrees, ns.fmt
    )


def _nodes_1based(nodes) -> list[int]:
    return sorted(i + 1 for i in nodes)


def _emit_json(out: TextIO, payload) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _root_system(rd, q: Query, p_nodes, out: TextIO) -> None:
    if q.fmt == "dot":
        out.write(rootsys.dynkin_dot(rd))
    elif q.fmt == "json":
        _emit_json(
            out,
            {
                "type": rd.lie_type,
                "rank": rd.rank,
                "cartan": [list(row) for row in rd.cartan],
                "positive_count": rd.positive_count,
                "roots": [list(r.coords) for r in rd.roots],
            },
        )
    else:
        out.write(f"{rd.lie_type}{rd.rank}: {len(rd.roots)} roots, ")
        out.write(f"{rd.positive_count} positive\n")
        out.write("cartan:\n")
        for row in rd.cartan:
            out.write("  " + " ".join(f"{v:2d}" for v in row) + "\n")


def _orbits(rd, q: Query, p_nodes, out: TextIO) -> None:
    table = orbits.orbit_table(rd, p_nodes, q.pprime_nodes)
    if q.fmt == "json":
        return _emit_json(out, [o.to_json() for o in table])
    total = orbits.quotient_dimension(rd, p_nodes)
    out.write(f"dim G/P = {total}; {len(table)} orbits\n")
    for o in table:
        word = " ".join(str(i) for i in o.to_json()["representative_word"]) or "e"
        star = " (dense)" if o.dense else ""
        out.write(f"  dim {o.dimension}  size {o.size}  rep [{word}]{star}\n")


def _codim(rd, q: Query, p_nodes, out: TextIO) -> None:
    verdict = orbits.complement_codim_ge2(rd, p_nodes, q.pprime_nodes)
    if q.fmt == "json":
        return _emit_json(
            out,
            {
                "codim_ge2": verdict,
                "p": _nodes_1based(p_nodes),
                "pprime": _nodes_1based(q.pprime_nodes),
            },
        )
    out.write("true\n" if verdict else "false\n")


def _levi(rd, q: Query, p_nodes, out: TextIO) -> None:
    lq = orbits.levi_quotient(rd, p_nodes, q.pprime_nodes)
    if q.fmt == "json":
        return _emit_json(out, lq.to_json())
    for f in lq.factors:
        marked = f.to_json()["marked_std"]
        out.write(
            f"  {f.component.lie_type}{f.component.rank} on nodes "
            f"{f.to_json()['nodes']} marked {marked}\n"
        )
    out.write(f"  torus rank {lq.torus_rank}\n")


def _nilradical(rd, q: Query, p_nodes, out: TextIO) -> None:
    nf = orbits.nilradical_filtration(rd, q.pprime_nodes)
    if q.fmt == "json":
        return _emit_json(out, nf.to_json())
    if not nf.layers:
        out.write("empty nilradical\n")
        return
    for i, layer in enumerate(nf.layers, start=1):
        out.write(f"  layer {i}: {layer.coords()}\n")
    out.write("  abelian\n" if nf.is_abelian else "")


def _curves(rd, q: Query, p_nodes, out: TextIO) -> None:
    c = curves.curve_class(p_nodes, q.degrees)
    verdict = curves.decide_smooth_rational_curve(rd, p_nodes, c)
    if q.fmt == "json":
        return _emit_json(out, verdict.to_json())
    out.write(
        f"mor_nonempty: {str(verdict.mor_nonempty).lower()}\n"
        f"smooth: {str(verdict.smooth_curve_exists).lower()}\n"
    )
    if verdict.exception_hit:
        out.write(f"exception: {verdict.exception_hit}\n")


def _hilbert(rd, q: Query, p_nodes, out: TextIO) -> None:
    c = curves.curve_class(p_nodes, q.degrees)
    dim = curves.hilbert_dimension(rd, p_nodes, c)
    if q.fmt == "json":
        boundary = curves.positivity(c) == "positive"
        return _emit_json(out, {"dimension": dim, "boundary": boundary})
    out.write(f"{dim}\n")


def _desing(rd, q: Query, p_nodes, out: TextIO) -> None:
    t = desing.build_tower(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "dot":
        out.write(desing.tower_dot(t))
    elif q.fmt == "json":
        _emit_json(out, t.to_json())
    else:
        dims = [len(f) for f in t.factors]
        out.write(
            f"{len(t.factors)} factor(s), root-set sizes {dims}, "
            f"dimension {desing.tower_dimension(t)}\n"
        )


def _refine(rd, q: Query, p_nodes, out: TextIO) -> None:
    t = desing.build_tower(rd, p_nodes, weyl.from_word(rd, q.word))
    chain = desing.demazure_refinement(rd, t)
    if q.fmt == "json":
        return _emit_json(out, chain.to_json())
    word = " ".join(str(i + 1) for i in chain.word) or "e"
    out.write(f"word [{word}], {len(chain.minimal_factors)} minimal factor(s)\n")


def _smooth(rd, q: Query, p_nodes, out: TextIO) -> None:
    verdict = desing.smoothness_sufficient(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "json":
        return _emit_json(out, {"smooth_sufficient": verdict})
    out.write("true\n" if verdict else "false\n")


def _minimal(rd, q: Query, p_nodes, out: TextIO) -> None:
    model = desing.minimal_schubert(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "json":
        return _emit_json(out, model.to_json())
    out.write(
        f"is_minimal: {str(model.is_minimal).lower()}\n"
        f"p1_nodes: {model.to_json()['p1_nodes']}\n"
        f"minimal_model_dimension: {model.dimension}\n"
    )


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, the flags it needs, whether it
    renders DOT, and its handler.  The handler writes the command's output
    in the query's format; it gets the P marks with --p defaulting to every
    node (P = B)."""

    help: str
    required: tuple[str, ...]
    dot: bool
    handler: Callable[[rootsys.RootDatum, Query, frozenset[int], TextIO], None]


COMMANDS = {
    "root-system": Command(
        "roots, Cartan matrix and Dynkin diagram of a simple type", (), True, _root_system
    ),
    "orbits": Command(
        "orbit table of a marked parabolic pair acting on G/P", ("p", "pprime"), False, _orbits
    ),
    "codim": Command(
        "diagram test: dense-orbit complement has codimension >= 2", ("p", "pprime"), False, _codim
    ),
    "levi": Command(
        "reductive quotient of the dense orbit as marked components", ("p", "pprime"), False, _levi
    ),
    "nilradical": Command(
        "ascending central filtration of a marked nilradical", ("pprime",), False, _nilradical
    ),
    "curves": Command(
        "smooth rational curve existence for a degree vector", ("p", "degrees"), False, _curves
    ),
    "hilbert": Command(
        "dimension of the smooth-curve family for a degree vector", ("p", "degrees"), False, _hilbert
    ),
    "desing": Command(
        "parabolic factor tower resolving a Schubert variety", ("word",), True, _desing
    ),
    "refine": Command(
        "one-reflection-per-step refinement of the tower", ("word",), False, _refine
    ),
    "smooth": Command(
        "sufficient homogeneity/smoothness test for a Schubert variety", ("word",), False, _smooth
    ),
    "minimal": Command(
        "largest parabolic quotient the Schubert variety fibres over", ("word",), False, _minimal
    ),
}


def run_query(q: Query, out) -> int:
    """Execute a query, writing deterministic bytes to ``out``."""
    rd = rootsys.build_root_system(q.lie_type, q.rank)
    p_nodes = q.p_nodes if q.p_nodes is not None else frozenset(range(rd.rank))
    command = COMMANDS[q.command]
    if q.fmt == "dot" and not command.dot:
        raise ParseExit(f"error: --format dot is not supported for {q.command}")
    try:
        command.handler(rd, q, p_nodes, out)
    except orbits.DomainRefusal as exc:
        if q.fmt == "json":
            _emit_json(out, {"error": "domain_refusal", "reason": str(exc)})
        else:
            out.write(f"refused: {exc}\n")
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        q = parse_query(argv)
        return run_query(q, sys.stdout)
    except ParseExit as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, rootsys.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
