"""Command-line front end to the lieorbits library.

The CLI owns both ends: it reads 1-based node labels, degree vectors and
reflection words into the library's 0-based indices, and it renders every
result (text, JSON and DOT) from the result's 0-based fields.  The library
knows no output format.  Library messages the CLI can reach (domain refusals
and degree-vector mismatches) already name nodes 1-based and are printed as
they are.  Exit codes: 0 success; 1 for a parse error, a ``ValueError`` from
the library (such as an orbit table whose walk of W/W_P' passes the
``LIE_MAX_WEYL`` cap on weights, or a degree vector whose length does not
match the marks of P) or an internal invariant failure
(``ConsistencyError``); 2 for a domain refusal.  A reader that closes the
pipe early (``lie orbits ... | head -1``) ends the command with exit 1 and
nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, NamedTuple, Optional, Sequence, TextIO

from . import rootsys


class ParseExit(Exception):
    """A command line the parser refuses; ``main`` prints it and exits 1."""


class Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message: str):
        raise ParseExit(f"{self.prog}: error: {message}")


class Query(NamedTuple):
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
    # a lone token of digits is a compact word only while every index is one
    # digit; from rank 10 on it is a single index
    if len(toks) == 1 and len(toks[0]) > 1 and toks[0].isdigit() and rank <= 9:
        digits = [int(ch) for ch in toks[0]]
        if lie_type == "A" and sorted(digits) == list(range(1, rank + 2)):
            from .weyl import permutation_to_word

            return permutation_to_word(digits)
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
    shared = Parser(add_help=False)
    shared.add_argument("--type", required=True, choices=list("ABCDEFG"), dest="lie_type")
    shared.add_argument("--rank", required=True, type=int)
    shared.add_argument("--p", default=None, help="marked nodes of P, e.g. '1,3'")
    shared.add_argument("--pprime", default=None, help="marked nodes of P'")
    shared.add_argument(
        "--word",
        default=None,
        help="reflection word '2 1 3 2' or, for type A, a one-line permutation like '3412'",
    )
    shared.add_argument("--degrees", default=None, help="degree vector, e.g. '1,0,2'")
    shared.add_argument("--format", default="text", choices=("text", "json", "dot"), dest="fmt")
    # a fixed help column: the default one moves between Python versions
    parser = Parser(
        prog="lie",
        description=__doc__.splitlines()[0],
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=15),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help, parents=[shared])
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
    if ns.fmt == "dot" and not COMMANDS[ns.command].dot:
        raise ParseExit(f"error: --format dot is not supported for {ns.command}")
    return Query(
        ns.command, ns.lie_type, ns.rank, p_nodes, pp_nodes, word, degrees, ns.fmt
    )


def _labels(indices) -> list[int]:
    """1-based labels of 0-based nodes or reflections, in the given order."""
    return [i + 1 for i in indices]


def _nodes_1based(nodes) -> list[int]:
    return sorted(_labels(nodes))


def _word_text(word) -> str:
    return " ".join(map(str, _labels(word))) or "e"


def _emit_json(out: TextIO, payload) -> None:
    import json

    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _dynkin_dot(rd) -> str:
    """DOT rendering of the Dynkin diagram.  Edge multiplicity is drawn as
    parallel edges; double and triple edges carry an arrowhead pointing at
    the short root."""
    lines = ["graph dynkin {", "  rankdir=LR;", "  node [shape=circle];"]
    lines += [f"  n{i} [label=\"{i}\"];" for i in range(1, rd.rank + 1)]
    for i in range(rd.rank):
        for j in range(i + 1, rd.rank):
            cij, cji = rd.cartan[i][j], rd.cartan[j][i]
            if cij == 0:
                continue
            mult = max(abs(cij), abs(cji))
            if mult == 1:
                lines.append(f"  n{i + 1} -- n{j + 1};")
            else:
                # cartan[i][j] = -mult means alpha_i is the short root
                short, long_ = (i, j) if abs(cij) == mult else (j, i)
                edge = f"  n{long_ + 1} -- n{short + 1} [dir=forward, arrowhead=normal];"
                lines += [edge] * mult
    return "\n".join(lines + ["}"]) + "\n"


def _root_system(rd, q: Query, p_nodes, out: TextIO) -> None:
    if q.fmt == "dot":
        out.write(_dynkin_dot(rd))
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
    from . import orbits

    table = orbits.orbit_table(rd, p_nodes, q.pprime_nodes)
    if q.fmt == "json":
        return _emit_json(
            out,
            [
                {
                    "representative_word": _labels(o.w.reduced_word()),
                    "dimension": o.dimension,
                    "size": o.size,
                    "dense": o.dense,
                }
                for o in table
            ],
        )
    total = orbits.quotient_dimension(rd, p_nodes)
    out.write(f"dim G/P = {total}; {len(table)} orbits\n")
    for o in table:
        star = " (dense)" if o.dense else ""
        out.write(
            f"  dim {o.dimension}  size {o.size}  rep [{_word_text(o.w.reduced_word())}]{star}\n"
        )


def _codim(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import orbits

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
    from . import orbits

    lq = orbits.levi_quotient(rd, p_nodes, q.pprime_nodes)
    if q.fmt == "json":
        factors = [
            {
                "type": c.lie_type,
                "rank": c.rank,
                "nodes": _labels(c.nodes),
                "marked": _nodes_1based(c.marked),
                "marked_std": _labels(c.marked_std),
            }
            for c in lq.factors
        ]
        return _emit_json(out, {"factors": factors, "torus_rank": lq.torus_rank})
    for c in lq.factors:
        out.write(
            f"  {c.lie_type}{c.rank} on nodes {_labels(c.nodes)} "
            f"marked {_labels(c.marked_std)}\n"
        )
    out.write(f"  torus rank {lq.torus_rank}\n")


def _nilradical(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import orbits

    nf = orbits.nilradical_filtration(rd, q.pprime_nodes)
    if q.fmt == "json":
        layers = [layer.to_json() for layer in nf.layers]
        return _emit_json(out, {"layers": layers, "abelian": nf.is_abelian})
    if not nf.layers:
        out.write("empty nilradical\n")
        return
    for i, layer in enumerate(nf.layers, start=1):
        out.write(f"  layer {i}: {layer.coords()}\n")
    out.write("  abelian\n" if nf.is_abelian else "")


def _curves(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import curves

    c = curves.curve_class(p_nodes, q.degrees)
    verdict = curves.decide_smooth_rational_curve(rd, p_nodes, c)
    if q.fmt == "json":
        reduction = verdict.reduction
        return _emit_json(
            out,
            {
                "mor_nonempty": verdict.mor_nonempty,
                "smooth": verdict.smooth_curve_exists,
                "exception": verdict.exception_hit,
                "reduction": None if reduction is None else [
                    {
                        "type": f.component.lie_type,
                        "rank": f.component.rank,
                        "nodes": _labels(f.component.nodes),
                        "marked": _nodes_1based(f.component.marked),
                        "degrees": list(f.restricted.degrees),
                    }
                    for f in reduction
                ],
            },
        )
    out.write(
        f"mor_nonempty: {str(verdict.mor_nonempty).lower()}\n"
        f"smooth: {str(verdict.smooth_curve_exists).lower()}\n"
    )
    if verdict.exception_hit:
        out.write(f"exception: {verdict.exception_hit}\n")


def _hilbert(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import curves

    c = curves.curve_class(p_nodes, q.degrees)
    dim = curves.hilbert_dimension(rd, p_nodes, c)
    if q.fmt == "json":
        boundary = curves.positivity(c) == "positive"
        return _emit_json(out, {"dimension": dim, "boundary": boundary})
    out.write(f"{dim}\n")


def _tower_dot(rd, t) -> str:
    """Factor boxes labelled by the sequence steps merged into them and their
    marked nodes; edges labelled with the fibre dimension of each step."""
    from .parabolic import sigma_of

    names = {"p": "P", "pprime": "P'"}
    lines = ["digraph tower {", "  rankdir=LR;", "  node [shape=box];"]
    for i, (factor, pieces) in enumerate(zip(t.factors, t.pieces), start=1):
        origin = "=".join(f"{names[kind]}{k}" for (kind, k), _, _ in pieces)
        sigma = _nodes_1based(sigma_of(rd, factor, pieces[0][1]))
        lines.append(f"  F{i} [label=\"{origin} sigma={sigma}\"];")
    for i, fibre in enumerate(t.fibres[:-1], start=1):
        lines.append(f"  F{i} -> F{i + 1} [label=\"fibre {fibre}\"];")
    q = _nodes_1based(t.quotient_nodes)
    lines.append(f"  Q [shape=ellipse, label=\"quotient sigma={q}\"];")
    lines.append(f"  F{len(t.factors)} -> Q [label=\"fibre {t.fibres[-1]}\"];")
    return "\n".join(lines + ["}"]) + "\n"


def _desing(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import desing, weyl
    from .parabolic import sigma_of

    t = desing.build_tower(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "dot":
        out.write(_tower_dot(rd, t))
    elif q.fmt == "json":
        seq = t.sequence
        steps = [
            {
                "n": n,
                "sigma_p": _nodes_1based(sigma_of(rd, pn, bn)),
                "sigma_pprime": _nodes_1based(sigma_of(rd, ppn, bpn)),
                "borel_union_size": len(bn | bpn),
            }
            for n, ((bn, bpn), (pn, ppn)) in enumerate(zip(seq.borels, seq.parabolics), start=1)
        ]
        _emit_json(
            out,
            {
                "factors": [f.to_json() for f in t.factors],
                "junctions": [j.to_json() for j in t.junctions],
                "base_word": _labels(t.base_word),
                "quotient": _nodes_1based(t.quotient_nodes),
                "dimension": desing.tower_dimension(t),
                "sequence": steps,
            },
        )
    else:
        dims = [len(f) for f in t.factors]
        out.write(
            f"{len(t.factors)} factor(s), root-set sizes {dims}, "
            f"dimension {desing.tower_dimension(t)}\n"
        )


def _refine(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import desing, weyl

    t = desing.build_tower(rd, p_nodes, weyl.from_word(rd, q.word))
    chain = desing.demazure_refinement(rd, t)
    if q.fmt == "json":
        return _emit_json(
            out,
            {
                "word": _labels(chain.word),
                "factors": [f.to_json() for f in chain.minimal_factors],
                "groups": [list(g) for g in chain.groups],
            },
        )
    out.write(f"word [{_word_text(chain.word)}], {len(chain.minimal_factors)} minimal factor(s)\n")


def _smooth(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import desing, weyl

    verdict = desing.smoothness_sufficient(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "json":
        return _emit_json(out, {"smooth_sufficient": verdict})
    out.write("true\n" if verdict else "false\n")


def _minimal(rd, q: Query, p_nodes, out: TextIO) -> None:
    from . import desing, weyl

    model = desing.minimal_schubert(rd, p_nodes, weyl.from_word(rd, q.word))
    if q.fmt == "json":
        return _emit_json(
            out,
            {
                "is_minimal": model.is_minimal,
                "p1_nodes": _nodes_1based(model.p1_nodes),
                "minimal_model_dimension": model.dimension,
                "base_word": _labels(model.base_word),
            },
        )
    out.write(
        f"is_minimal: {str(model.is_minimal).lower()}\n"
        f"p1_nodes: {_nodes_1based(model.p1_nodes)}\n"
        f"minimal_model_dimension: {model.dimension}\n"
    )


class Command(NamedTuple):
    """One subcommand: its help line, the flags it needs, whether it
    renders DOT, and its handler.  The handler writes the command's output
    in the query's format; it gets the P marks with --p defaulting to every
    node (P = B).  Each handler imports the library modules it runs, so a
    fresh ``lie`` process loads only those."""

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
    try:
        COMMANDS[q.command].handler(rd, q, p_nodes, out)
    except rootsys.DomainRefusal as exc:
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
        code = run_query(q, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not fail again (Python's documented SIGPIPE handling)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseExit as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, rootsys.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
