"""The tower pipeline for Schubert varieties: complete a Borel pair for a
given Weyl element, run the alternating parabolic recursion, assemble the
factor tower with its junctions, refine it to a chain of minimal
parabolics, and evaluate the homogeneity/smoothness criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .parabolic import (
    ConsistencyError,
    ParabolicSequence,
    RootSubset,
    apply_element,
    chain_walk,
    contains_borel,
    is_borel,
    max_parabolic_pair,
    parabolic_sequence,
    sigma_of,
    standard_borel,
    standard_parabolic_set,
    walk_borel,
)
from .rootsys import RootDatum
from .weyl import WeylElement, identity


def borel_completion(
    rd: RootDatum, p_nodes: Iterable[int], w: WeylElement
) -> tuple[RootSubset, WeylElement]:
    """Repair the standard Borel inside ``p`` until, together with ``w(B)``,
    it spans ``p | w(B)``.

    Returns that Borel ``b`` and ``w2 = w u^-1`` with ``u(B) = b``, so
    ``w2(b) == w(B)``, ``b | w2(b) == p | w(B)``, and ``w2`` lies in the
    right coset ``w W_P`` (not always in the left coset ``W_P w``).  Each
    repair step reflects ``b`` in a simple root whose negative lies in ``p``
    but not in the union; the walk carries ``u`` along.
    """
    p = standard_parabolic_set(rd, p_nodes)
    b = standard_borel(rd)
    bp = apply_element(w, b)
    span = p | bp
    fixable = (p - bp).negated().indices  # roots whose negative is in p but not in w(B)
    borels, _, u = walk_borel(
        rd, b, identity(rd), fixable.__contains__, lambda cur: cur | bp.indices == span.indices
    )
    b = borels[-1]
    if b | bp != span:
        raise ConsistencyError(
            "no repair step available although the union is short",
            union=(b | bp).coords(),
            span=span.coords(),
        )
    if not (is_borel(rd, b) and b <= p):
        raise ConsistencyError("completion produced invalid Borels")
    return b, w * u.inverse()


@dataclass(frozen=True)
class DesingTower:
    """Alternating factor list with junctions, quotient marks and context.

    Factors run in source order (primed factors ascending, then unprimed
    descending); ``junctions[i]`` sits between ``factors[i]`` and
    ``factors[i+1]``.  ``pieces[i]`` lists, in order, the sequence steps
    merged into factor ``i`` (adjacent equal factors collapse) as
    ``(origin, lo, hi)``: the step's tag, ``("pprime", k)`` or ``("p", k)``,
    and the Borels inside the factor its refinement chain walks up from
    ``lo`` to ``hi``.  ``fibres[i]`` counts the roots factor ``i`` adds over
    the next junction, the last factor over the quotient parabolic.
    """

    factors: tuple[RootSubset, ...]
    junctions: tuple[RootSubset, ...]
    pieces: tuple[tuple[tuple[tuple[str, int], RootSubset, RootSubset], ...], ...]
    fibres: tuple[int, ...]
    base_borel: RootSubset
    base_element: WeylElement
    base_word: tuple[int, ...]
    quotient_nodes: frozenset[int]
    sequence: ParabolicSequence


def build_tower(rd: RootDatum, p_nodes: Iterable[int], w: WeylElement) -> DesingTower:
    """Tower of parabolic factors resolving the Schubert variety of ``w``
    in the quotient marked by ``p_nodes``; the acting Borel is standard.

    Runs the alternating recursion on the completed Borel pair, lists the
    primed parabolics ascending then the unprimed descending, with the
    intersections as junctions, and collapses adjacent equal factors.
    """
    p_nodes = rd.check_nodes(p_nodes)
    b, w2 = borel_completion(rd, p_nodes, w)
    seq = parabolic_sequence(rd, b, apply_element(w2, b))
    n = seq.terminal_index
    bs = [b for b, _ in seq.borels] + [seq.final_borel]  # B_1 .. B_n, then the aligned Borel
    bps = [bp for _, bp in seq.borels] + [seq.final_borel]
    steps = [(("pprime", k), seq.parabolics[k - 1][1], bps[k], bps[k - 1]) for k in range(1, n + 1)]
    steps += [(("p", k), seq.parabolics[k - 1][0], bs[k - 1], bs[k]) for k in range(n, 0, -1)]
    factors, pieces = [], []
    for origin, fac, lo, hi in steps:
        if factors and factors[-1] == fac:
            pieces[-1].append((origin, lo, hi))
        else:
            factors.append(fac)
            pieces.append([(origin, lo, hi)])
    junctions = [factors[i] & factors[i + 1] for i in range(len(factors) - 1)]
    for i, junction in enumerate(junctions):
        if contains_borel(rd, junction) is None:
            raise ConsistencyError("junction does not contain a Borel", position=i)
    below = junctions + [standard_parabolic_set(rd, p_nodes)]
    return DesingTower(
        tuple(factors),
        tuple(junctions),
        tuple(tuple(merged) for merged in pieces),
        tuple(len(f) - len(j) for f, j in zip(factors, below)),
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
    return sum(t.fibres)


@dataclass(frozen=True)
class RefinedChain:
    """A chain of minimal parabolics refining the tower, with the reduced
    word it induces; ``groups[i]`` is the half-open range of steps, and so
    of letters, that tower factor ``i`` hosts."""

    minimal_factors: tuple[RootSubset, ...]
    word: tuple[int, ...]
    groups: tuple[tuple[int, int], ...]


def demazure_refinement(rd: RootDatum, t: DesingTower) -> RefinedChain:
    """Interpolate Borel chains through every tower factor and read off the
    classical one-reflection-per-step resolution.

    The grand chain descends from the moved Borel to the base Borel; each
    consecutive pair spans a minimal parabolic, and the induced word is a
    reduced expression.  Its letters are the nodes of the chain walks that
    built the pieces, read backwards: a reflection is an involution, so the
    step back goes through the same node.  The word's product is
    ``u^-1 w2 u``, with ``w2`` the tower's base element and ``u(B)`` the
    base Borel; that equals the base element only when the base Borel is
    standard.
    """
    bp1 = t.sequence.borels[0][1]
    # stitch the pieces down from the top of the first; each starts where the previous one ended
    grand: list[RootSubset] = [t.pieces[0][0][2]]
    letters: list[int] = []
    groups = []
    for factor, merged in zip(t.factors, t.pieces):
        start = len(letters)
        for _, lo, hi in merged:
            borels, nodes = chain_walk(rd, factor, bp1, lo, hi)
            if borels[-1] != grand[-1]:
                raise ConsistencyError("refinement pieces do not join up")
            grand.extend(reversed(borels[:-1]))
            letters.extend(reversed(nodes))
        groups.append((start, len(letters)))
    if grand[0] != bp1 or grand[-1] != t.base_borel:
        raise ConsistencyError("grand chain has wrong endpoints")

    minimal = []
    for (lo, hi), factor in zip(groups, t.factors):
        for s in range(lo, hi):
            diff = grand[s].indices - grand[s + 1].indices
            if len(diff) != 1:
                raise ConsistencyError("chain step is not a single reflection")
            (gamma,) = diff
            minimal.append(RootSubset(rd, grand[s].indices | {rd.negative_index(gamma)}))
            if not minimal[s] <= factor:
                raise ConsistencyError("refined factor escapes its tower factor", step=s)
    return RefinedChain(tuple(minimal), tuple(reversed(letters)), tuple(groups))


def smoothness_sufficient(rd: RootDatum, p_nodes: Iterable[int], w: WeylElement) -> bool:
    """Sufficient (not necessary) smoothness test for the Schubert variety:
    whether the first maximal parabolic pair already shares a Borel, i.e.
    the resolved variety is homogeneous under a parabolic subgroup."""
    b, w2 = borel_completion(rd, p_nodes, w)
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


def minimal_schubert(
    rd: RootDatum, p_nodes: Iterable[int], w: WeylElement
) -> MinimalModel:
    """Largest parabolic quotient over which the Schubert variety of ``w``
    is a fibration; the variety is minimal when the given parabolic is
    already that one."""
    p_nodes = rd.check_nodes(p_nodes)
    b, w2 = borel_completion(rd, p_nodes, w)
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
