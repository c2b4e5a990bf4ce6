"""Reference routines that only the tests call.

Each one re-derives a quantity the library computes another way, or checks
a property of its results: root sums and pairings from coordinates, the
members of a double coset by breadth-first search, parabolics over an
arbitrary Borel, Borel chains, the P^1-fibration candidates of a quotient
and the numeric lifting rule through a ruled surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from lieorbits.curves import CurveClass
from lieorbits.parabolic import (
    RootSubset,
    apply_element,
    borel_to_weyl,
    chain_walk,
    is_closed,
    is_covering,
    standard_parabolic_set,
)
from lieorbits.rootsys import Root, RootDatum
from lieorbits.weyl import CosetOrbit, WeylElement, simple_reflection


def root_sum(rd: RootDatum, gamma: Root, delta: Root) -> Optional[Root]:
    """``gamma + delta`` as a Root when the sum is again a root, else None."""
    i, j = rd.index_of(gamma), rd.index_of(delta)
    k = rd.sum_index(i, j)
    return rd.roots[k] if k is not None else None


def cartan_pairing(rd: RootDatum, lam, j: int, basis: str = "weight") -> int:
    """Pairing ``<lam, alphacheck_j>``.

    ``lam`` may be a :class:`Root` (simple-root basis) or a plain integer
    vector whose basis the caller states: ``"weight"`` for fundamental-weight
    coordinates (the pairing is then the j-th entry) or ``"root"``.
    """
    rd.check_nodes((j,))
    if isinstance(lam, Root):
        return rd.pairing(lam.coords, j)
    if basis == "weight":
        return lam[j]
    if basis == "root":
        return rd.pairing(lam, j)
    raise ValueError(f"unknown basis {basis!r} (expected 'weight' or 'root')")


def act_on_root(w: WeylElement, gamma: Root) -> Root:
    """Image of a root under the element's permutation action."""
    return w.rd.roots[w.perm[w.rd.index_of(gamma)]]


def coset_members(
    orbit: CosetOrbit, left_nodes: Iterable[int], right_nodes: Iterable[int]
) -> frozenset[WeylElement]:
    """Every element of the double coset W_left·w·W_right of the orbit, by a
    breadth-first search from the representative that stays inside it."""
    rd = orbit.representative.rd
    lgens = [simple_reflection(rd, i) for i in sorted(left_nodes)]
    rgens = [simple_reflection(rd, i) for i in sorted(right_nodes)]
    seen = {orbit.representative}
    frontier = [orbit.representative]
    while frontier:
        fresh = []
        for g in frontier:
            for nxt in [s * g for s in lgens] + [g * s for s in rgens]:
                if nxt not in seen:
                    seen.add(nxt)
                    fresh.append(nxt)
        frontier = fresh
    return frozenset(seen)


def subset_from_json(rd: RootDatum, data: Sequence[Sequence[int]]) -> RootSubset:
    """The root subset serialised by ``RootSubset.to_json``."""
    return RootSubset(rd, frozenset(rd.root_index[tuple(c)] for c in data))


def is_parabolic(rd: RootDatum, s: RootSubset) -> bool:
    return is_closed(rd, s) and is_covering(rd, s)


def parabolic_from_nodes(rd: RootDatum, sigma: Iterable[int], b: RootSubset) -> RootSubset:
    """Parabolic over ``b`` marked by ``sigma``: keep ``b`` and adjoin the
    negatives of every root that is a sum of unmarked simple roots of ``b``,
    i.e. the standard one moved by the element taking the standard Borel
    to ``b``."""
    std = standard_parabolic_set(rd, sigma)
    w = borel_to_weyl(rd, b)
    return apply_element(w, std) if w.length else std


def borel_chain(
    rd: RootDatum,
    p: RootSubset,
    b_ref: RootSubset,
    b_from: RootSubset,
    b_to: RootSubset,
) -> list[RootSubset]:
    """A path of Borels inside ``p`` from ``b_from`` to ``b_to``, one simple
    reflection per step, growing the intersection with ``b_ref`` by exactly
    one root each time."""
    return chain_walk(rd, p, b_ref, b_from, b_to)[0]


def sum_absorption_holds(rd: RootDatum, p: RootSubset) -> bool:
    """Whenever a root of ``p`` plus a root outside ``p`` lands in ``p``,
    the inside summand must be one-sided (its negative not in ``p``)."""
    if not is_parabolic(rd, p):
        raise ValueError("argument is not a parabolic root set")
    sums = rd.sum_table()
    members = p.indices
    for a in members:
        if rd.negative_index(a) in members:
            for o, k in sums[a].items():
                if o not in members and k in members:
                    return False
    return True


@dataclass(frozen=True)
class FibrationCandidate:
    """A marked node whose removal exhibits G/P as a line-bundle of
    projective lines over the smaller quotient."""

    node: int
    target_nodes: frozenset[int]
    degree_coefficients: tuple[tuple[int, int], ...]  # (marked node, weight)

    def relative_degree(self, c: CurveClass) -> int:
        return sum(w * c.degree(j) for j, w in self.degree_coefficients)


def p1_fibration_candidates(
    rd: RootDatum, p_nodes: Iterable[int]
) -> list[FibrationCandidate]:
    """Marked nodes all of whose neighbours are marked, with at most two
    neighbours; dropping such a node fibres G/P in projective lines over
    the parabolic marked by the rest.

    The relative degree of a class is its pairing with the dropped simple
    root, returned as coefficients over the marked nodes.
    """
    marked = rd.check_nodes(p_nodes)
    adj = rd.adjacency()
    out = []
    for m in sorted(marked):
        nbrs = adj[m]
        if len(nbrs) <= 2 and all(v in marked for v in nbrs):
            alpha = rd.roots[rd.simple_root_index(m)]
            coeffs = tuple(
                (j, rd.pairing(alpha.coords, j)) for j in sorted(marked)
            )
            out.append(FibrationCandidate(m, marked - {m}, coeffs))
    return out


def lift_feasible(d: int, x: int) -> tuple[bool, bool]:
    """Numeric conditions for lifting through a rational ruled surface with
    splitting exponent ``x``: relative degree ``d`` lifts iff it matches
    the parity of ``x`` and is at least ``x``; a smooth lift further needs
    ``d > 0``."""
    if d < 0 or x < 0:
        raise ValueError("relative degree and splitting exponent must be >= 0")
    liftable = (d - x) % 2 == 0 and d >= x
    return liftable, liftable and d > 0
