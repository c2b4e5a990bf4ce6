"""The tower pipeline for Schubert varieties: complete a Borel pair for a
given Weyl element, run the alternating parabolic recursion, assemble the
factor tower with its junctions, refine it to a chain of minimal
parabolics, and evaluate the homogeneity/smoothness criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .orbits import _check_nodes
from .parabolic import (
    ConsistencyError,
    ParabolicSequence,
    RootSubset,
    apply_element,
    borel_chain,
    borel_to_weyl,
    contains_borel,
    is_borel,
    max_parabolic_pair,
    parabolic_sequence,
    sigma_of,
    simple_roots_of_borel,
    standard_borel,
    standard_parabolic_set,
)
from .rootsys import RootDatum
from .weyl import WeylElement


def borel_completion(
    rd: RootDatum,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
    w: WeylElement,
) -> tuple[RootSubset, WeylElement]:
    """Repair the standard Borel pair until it spans the orbit tangent set.

    Returns a Borel ``b`` inside ``p`` and an element ``w2`` representing
    the same double coset as ``w`` with
    ``b | w2(b) == p | w2(p')``; each repair step reflects one of the two
    Borels in a simple root whose negative is missing from the union.
    """
    p_nodes = _check_nodes(rd, p_nodes)
    pprime_nodes = _check_nodes(rd, pprime_nodes)
    p = standard_parabolic_set(rd, p_nodes)
    moved_pp = apply_element(w, standard_parabolic_set(rd, pprime_nodes))
    span = p | moved_pp
    b = standard_borel(rd)
    bp = apply_element(w, b)

    def repair(borel: RootSubset, ambient: RootSubset, union: RootSubset) -> Optional[RootSubset]:
        simples = simple_roots_of_borel(rd, borel)
        for i in range(rd.rank):
            neg = rd.negative_index(simples[i])
            if neg in ambient.indices and neg not in union.indices:
                return RootSubset(rd, (borel.indices - {simples[i]}) | {neg})
        return None

    for _ in range(rd.positive_count + 1):
        union = b | bp
        if union == span:
            break
        missing_in_p = any(i not in union.indices for i in p.indices)
        nxt = repair(b, p, union) if missing_in_p else None
        if nxt is not None:
            b = nxt
            continue
        nxt = repair(bp, moved_pp, union)
        if nxt is not None:
            bp = nxt
            continue
        raise ConsistencyError(
            "no repair step available although the union is short",
            union=union.coords(),
            span=span.coords(),
        )
    else:
        raise ConsistencyError("Borel completion did not terminate")
    if not (is_borel(rd, b) and is_borel(rd, bp) and b <= p and bp <= moved_pp):
        raise ConsistencyError("completion produced invalid Borels")
    w2 = borel_to_weyl(rd, bp) * borel_to_weyl(rd, b).inverse()
    return b, w2


@dataclass(frozen=True)
class DesingTower:
    """Alternating factor list with junctions, quotient marks and context.

    Factors run in source order (primed factors ascending, then unprimed
    descending); ``junctions[i]`` sits between ``factors[i]`` and
    ``factors[i+1]``.  ``origins[i]`` lists which steps of the underlying
    sequence were merged into factor ``i`` (adjacent equal factors
    collapse).
    """

    rd: RootDatum
    factors: tuple[RootSubset, ...]
    junctions: tuple[RootSubset, ...]
    origins: tuple[tuple[tuple[str, int], ...], ...]
    base_borel: RootSubset
    base_element: WeylElement
    base_word: tuple[int, ...]
    quotient_nodes: frozenset[int]
    sequence: ParabolicSequence

    def quotient_parabolic(self) -> RootSubset:
        return standard_parabolic_set(self.rd, self.quotient_nodes)

    def to_json(self) -> dict:
        return {
            "factors": [f.to_json() for f in self.factors],
            "junctions": [j.to_json() for j in self.junctions],
            "base_word": [i + 1 for i in self.base_word],
            "quotient": sorted(i + 1 for i in self.quotient_nodes),
            "dimension": tower_dimension(self),
            "sequence": self.sequence.step_log(),
        }


def build_tower(rd: RootDatum, p_nodes: Iterable[int], w: WeylElement) -> DesingTower:
    """Tower of parabolic factors resolving the Schubert variety of ``w``
    in the quotient marked by ``p_nodes``; the acting Borel is standard.

    Runs the alternating recursion on the completed Borel pair, lists the
    primed parabolics ascending then the unprimed descending, with the
    intersections as junctions, and collapses adjacent equal factors.
    """
    p_nodes = _check_nodes(rd, p_nodes)
    all_nodes = frozenset(range(rd.rank))
    b, w2 = borel_completion(rd, p_nodes, all_nodes, w)
    seq = parabolic_sequence(rd, b, apply_element(w2, b))
    n = seq.terminal_index
    raw: list[tuple[tuple[str, int], RootSubset]] = []
    for k in range(1, n + 1):
        raw.append((("pprime", k), seq.parabolics[k - 1][1]))
    for k in range(n, 0, -1):
        raw.append((("p", k), seq.parabolics[k - 1][0]))
    factors: list[RootSubset] = []
    origins: list[list[tuple[str, int]]] = []
    for origin, fac in raw:
        if factors and factors[-1] == fac:
            origins[-1].append(origin)
        else:
            factors.append(fac)
            origins.append([origin])
    junctions = [factors[i] & factors[i + 1] for i in range(len(factors) - 1)]
    for i, junction in enumerate(junctions):
        if contains_borel(rd, junction) is None:
            raise ConsistencyError(
                "junction does not contain a Borel", position=i
            )
    return DesingTower(
        rd,
        tuple(factors),
        tuple(junctions),
        tuple(tuple(o) for o in origins),
        b,
        w2,
        w2.reduced_word(),
        p_nodes,
        seq,
    )


def tower_dimension(t: DesingTower) -> int:
    """Junction-accounted dimension of the tower modulo its quotient.

    This is the length of the minimal element of the left coset ``W_P w``,
    where ``W_P`` is generated by the simple reflections of the unmarked
    nodes of the quotient and ``w`` is the element the tower was built for.
    """
    total = 0
    for i in range(len(t.factors) - 1):
        total += len(t.factors[i]) - len(t.junctions[i])
    total += len(t.factors[-1]) - len(t.quotient_parabolic())
    return total


@dataclass(frozen=True)
class RefinedChain:
    """A chain of minimal parabolics refining the tower, with the reduced
    word it induces and the positional grouping under the tower factors."""

    rd: RootDatum
    minimal_factors: tuple[RootSubset, ...]
    word: tuple[int, ...]
    groups: tuple[tuple[int, int], ...]  # half-open step ranges per factor
    chain_borels: tuple[RootSubset, ...]

    def to_json(self) -> dict:
        return {
            "word": [i + 1 for i in self.word],
            "factors": [f.to_json() for f in self.minimal_factors],
            "groups": [list(g) for g in self.groups],
        }


def demazure_refinement(rd: RootDatum, t: DesingTower) -> RefinedChain:
    """Interpolate Borel chains through every tower factor and read off the
    classical one-reflection-per-step resolution.

    The grand chain descends from the moved Borel to the base Borel; each
    consecutive pair spans a minimal parabolic, and the induced word is a
    reduced expression.  Its product is ``u^-1 w2 u``, with ``w2`` the
    tower's base element and ``u = borel_to_weyl(base_borel)``; that equals
    the base element only when the base Borel is standard.
    """
    seq = t.sequence
    n = seq.terminal_index
    b1 = t.base_borel
    bp1 = seq.borels[0][1]
    pieces: list[tuple[tuple[str, int], list[RootSubset]]] = []
    for k in range(1, n):
        lo, hi = seq.borels[k][1], seq.borels[k - 1][1]  # B'_{k+1} -> B'_k
        asc = borel_chain(rd, seq.parabolics[k - 1][1], bp1, lo, hi)
        pieces.append((("pprime", k), list(reversed(asc))))
    asc = borel_chain(rd, seq.parabolics[n - 1][1], bp1, seq.final_borel, seq.borels[n - 1][1])
    pieces.append((("pprime", n), list(reversed(asc))))
    asc = borel_chain(rd, seq.parabolics[n - 1][0], bp1, seq.borels[n - 1][0], seq.final_borel)
    pieces.append((("p", n), list(reversed(asc))))
    for k in range(n - 1, 0, -1):
        lo, hi = seq.borels[k - 1][0], seq.borels[k][0]  # B_k -> B_{k+1}
        asc = borel_chain(rd, seq.parabolics[k - 1][0], bp1, lo, hi)
        pieces.append((("p", k), list(reversed(asc))))

    # stitch the pieces; every piece starts where the previous one ended
    grand: list[RootSubset] = [pieces[0][1][0]]
    step_origin: list[tuple[str, int]] = []
    for origin, piece in pieces:
        if piece[0] != grand[-1]:
            raise ConsistencyError("refinement pieces do not join up")
        for nxt in piece[1:]:
            grand.append(nxt)
            step_origin.append(origin)
    if grand[0] != bp1 or grand[-1] != b1:
        raise ConsistencyError("grand chain has wrong endpoints")

    minimal = []
    letters = []
    for cur, nxt in zip(grand, grand[1:]):
        diff = cur.indices - nxt.indices
        if len(diff) != 1:
            raise ConsistencyError("chain step is not a single reflection")
        gamma = next(iter(diff))
        par = RootSubset(rd, cur.indices | {rd.negative_index(gamma)})
        minimal.append(par)
        # the step reflects cur = x(B) in its simple root gamma = x(alpha_i);
        # its letter is i
        simples = simple_roots_of_borel(rd, cur)
        if gamma not in simples:
            raise ConsistencyError("chain step is not a simple reflection")
        letters.append(simples.index(gamma))
    word = tuple(reversed(letters))

    # group the steps by the collapsed tower factor that hosts them;
    # piece order matches factor order, so owners are non-decreasing
    owner = {}
    for fi, merged in enumerate(t.origins):
        for origin in merged:
            owner[origin] = fi
    bounds = []
    s = 0
    total = len(step_origin)
    for fi in range(len(t.factors)):
        start = s
        while s < total and owner[step_origin[s]] == fi:
            s += 1
        bounds.append((start, s))
    if s != total:
        raise ConsistencyError("refinement steps left unassigned")
    for (lo, hi), factor in zip(bounds, t.factors):
        for s in range(lo, hi):
            if not minimal[s] <= factor:
                raise ConsistencyError(
                    "refined factor escapes its tower factor", step=s
                )
    return RefinedChain(rd, tuple(minimal), word, tuple(bounds), tuple(grand))


def smoothness_sufficient(rd: RootDatum, p_nodes: Iterable[int], w: WeylElement) -> bool:
    """Sufficient (not necessary) smoothness test for the Schubert variety:
    whether the first maximal parabolic pair already shares a Borel, i.e.
    the resolved variety is homogeneous under a parabolic subgroup."""
    p_nodes = _check_nodes(rd, p_nodes)
    b, w2 = borel_completion(rd, p_nodes, frozenset(range(rd.rank)), w)
    p1, pp1 = max_parabolic_pair(rd, b, apply_element(w2, b))
    return contains_borel(rd, p1 & pp1) is not None


@dataclass(frozen=True)
class MinimalModel:
    """Report of the largest parabolic along which the Schubert variety
    fibres, and whether the given quotient is already that model."""

    is_minimal: bool
    p1_nodes: frozenset[int]
    dimension: int
    base_word: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "is_minimal": self.is_minimal,
            "p1_nodes": sorted(i + 1 for i in self.p1_nodes),
            "minimal_model_dimension": self.dimension,
            "base_word": [i + 1 for i in self.base_word],
        }


def minimal_schubert(
    rd: RootDatum, p_nodes: Iterable[int], w: WeylElement
) -> MinimalModel:
    """Largest parabolic quotient over which the Schubert variety of ``w``
    is a fibration; the variety is minimal when the given parabolic is
    already that one."""
    p_nodes = _check_nodes(rd, p_nodes)
    b, w2 = borel_completion(rd, p_nodes, frozenset(range(rd.rank)), w)
    bp = apply_element(w2, b)
    p1, _ = max_parabolic_pair(rd, b, bp)
    sigma1 = sigma_of(rd, p1, b)
    given = standard_parabolic_set(rd, p_nodes)
    levi_pairs = (len(p1) - rd.positive_count)
    dim = len(bp - b) - levi_pairs
    return MinimalModel(
        given == p1,
        sigma1,
        dim,
        w2.reduced_word(),
    )


def tower_dot(t: DesingTower) -> str:
    """DOT rendering: factor boxes labelled by their marked nodes, edges
    labelled with the fibre dimension of each junction step."""
    rd = t.rd
    seq = t.sequence
    lines = ["digraph tower {", "  rankdir=LR;", "  node [shape=box];"]
    for i, factor in enumerate(t.factors):
        kind, k = t.origins[i][0]
        inner = seq.borels[k - 1][1] if kind == "pprime" else seq.borels[k - 1][0]
        sigma = sorted(j + 1 for j in sigma_of(rd, factor, inner))
        lines.append(
            f"  F{i + 1} [label=\"{_origin_label(t.origins[i])} sigma={sigma}\"];"
        )
    for i, junction in enumerate(t.junctions):
        fibre = len(t.factors[i]) - len(junction)
        lines.append(f"  F{i + 1} -> F{i + 2} [label=\"fibre {fibre}\"];")
    q = sorted(i + 1 for i in t.quotient_nodes)
    lines.append(f"  Q [shape=ellipse, label=\"quotient sigma={q}\"];")
    fibre = len(t.factors[-1]) - len(t.quotient_parabolic())
    lines.append(f"  F{len(t.factors)} -> Q [label=\"fibre {fibre}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _origin_label(merged: tuple[tuple[str, int], ...]) -> str:
    names = {"p": "P", "pprime": "P'"}
    return "=".join(f"{names[kind]}{k}" for kind, k in merged)
