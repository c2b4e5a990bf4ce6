"""Orbit analysis of a parabolic acting on a homogeneous quotient:
density and dimension of orbits, the diagram test for a small boundary,
the reductive quotient read off the Dynkin diagram, and the ascending
central filtration of a nilradical.

Parabolics are named by their marked node sets (the nodes whose negative
simple root is dropped); the reflection subgroup attached to a parabolic
is generated by the complementary nodes.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Iterable, NamedTuple, Optional

from .parabolic import (
    ConsistencyError,
    RootSubset,
    apply_element,
    is_covering,
    nilradical_roots,
    quotient_dimension,
    standard_parabolic_set,
    subset_of,
)
from .rootsys import (
    DiagramComponent,
    DomainRefusal,
    RootDatum,
    diagram_components_after_removal,
    involution_i,
)
from .weyl import (
    WeylElement,
    double_coset_minimum,
    double_coset_orbits,
    longest_element,
    weyl_order,
)


def weyl_generators(rd: RootDatum, marked: Iterable[int]) -> frozenset[int]:
    """Generator nodes of the reflection subgroup of a marked parabolic."""
    return frozenset(range(rd.rank)) - rd.check_nodes(marked)


def _root_count(rd: RootDatum, nodes: frozenset[int]) -> int:
    """N(X): the positive roots supported on the node set X."""
    return sum(1 for r in rd.roots[: rd.positive_count] if r.support <= nodes)


def is_dense_orbit(
    rd: RootDatum,
    w: WeylElement,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
    cross_check: bool = False,
) -> bool:
    """Whether the orbit attached to ``w`` fills the quotient.

    Decided by whether ``p & -w(p')`` contains a Borel, that is, whether
    it covers every opposite pair: an intersection of two parabolics is
    closed, and a closed set covering every pair is parabolic (Bourbaki,
    Lie Groups and Lie Algebras, ch. VI §1.7, Prop. 20).  With
    ``cross_check`` the equivalent orbit characterisation (``w`` lies in
    the longest element's coset orbit) is computed as well and the two are
    asserted to agree: ``w`` and the longest element are each reduced to
    the minimal element of their double coset, and the two compared.
    """
    p_nodes, pprime_nodes = rd.check_nodes(p_nodes), rd.check_nodes(pprime_nodes)
    p = standard_parabolic_set(rd, p_nodes)
    moved = apply_element(w, standard_parabolic_set(rd, pprime_nodes))
    dense = is_covering(rd, p & moved.negated())
    if cross_check:
        left = weyl_generators(rd, p_nodes)
        right = weyl_generators(rd, pprime_nodes)
        w0 = longest_element(rd)
        same = double_coset_minimum(w, left, right) == double_coset_minimum(w0, left, right)
        if same != dense:
            raise ConsistencyError(
                "density characterisations disagree",
                w=w.reduced_word(),
                p=sorted(p_nodes),
                pprime=sorted(pprime_nodes),
            )
    return dense


class OrbitDescriptor(NamedTuple):
    """One orbit: minimal-length representative, dimension, size, density."""

    w: WeylElement
    dimension: int
    size: int
    dense: bool


def orbit_table(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> list[OrbitDescriptor]:
    """All orbits of the marked pair, sorted by dimension then representative.

    With I and J the generator nodes of P and P', the orbit of the minimal
    representative ``w`` of W_I·w·W_J is P'·w⁻¹P/P, of dimension
    ℓ(w) + N(J) − N(K), where N(X) counts the positive roots supported on X
    and W_K = W_J ∩ w⁻¹·W_I·w.  By Kilmoyer's theorem that intersection is
    the standard parabolic on K = {j ∈ J : w(α_j) is a simple root of I},
    so K is read off the permutation and no root set is built.
    """
    p_nodes = rd.check_nodes(p_nodes)
    pprime_nodes = rd.check_nodes(pprime_nodes)
    total = quotient_dimension(rd, p_nodes)
    left, right = weyl_generators(rd, p_nodes), weyl_generators(rd, pprime_nodes)
    simple_left = {rd.simple_root_index(i) for i in left}
    simple_right = [(j, rd.simple_root_index(j)) for j in right]
    count = cache(partial(_root_count, rd))
    base = count(right)
    out = []
    for orbit in double_coset_orbits(rd, left, right):
        w = orbit.representative
        k = frozenset(j for j, a in simple_right if w.perm[a] in simple_left)
        dim = w.length + base - count(k)
        out.append(OrbitDescriptor(w, dim, orbit.size, dim == total))
    if sum(1 for o in out if o.dense) != 1:
        raise ConsistencyError("expected exactly one dense orbit")
    sizes, order = sum(o.size for o in out), weyl_order(rd.lie_type, rd.rank)
    if sizes != order:
        raise ConsistencyError("orbit sizes do not sum to |W|", sizes=sizes, order=order)
    out.sort(key=lambda o: (o.dimension, o.w.length, o.w.perm))
    return out


def complement_codim_ge2(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> bool:
    """Diagram test: marks of P and involuted marks of P' must be disjoint
    for the dense orbit's complement to have codimension at least two."""
    p_nodes = rd.check_nodes(p_nodes)
    pprime_nodes = rd.check_nodes(pprime_nodes)
    inv = involution_i(rd)
    return p_nodes.isdisjoint(inv[j] for j in pprime_nodes)


def complement_min_codim(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> Optional[int]:
    """Codimension of the dense orbit's complement, read off the orbit
    table (the check on the diagram test ``complement_codim_ge2``); None
    when every orbit is dense."""
    p_nodes, pprime_nodes = rd.check_nodes(p_nodes), rd.check_nodes(pprime_nodes)
    total = quotient_dimension(rd, p_nodes)
    dims = [o.dimension for o in orbit_table(rd, p_nodes, pprime_nodes) if not o.dense]
    return min((total - d for d in dims), default=None)


class LeviQuotient(NamedTuple):
    factors: tuple[DiagramComponent, ...]
    torus_rank: int


def levi_quotient(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> LeviQuotient:
    """The reductive quotient R'/R as marked diagram components.

    Factors are the components of the diagram minus the P' marks, each
    carrying the involuted P marks that fall inside it (``marked[k]`` pairs
    with ``marked_std[k]``).  Refuses when the disjointness hypothesis fails,
    naming an offending node.
    """
    p_nodes = rd.check_nodes(p_nodes)
    pprime_nodes = rd.check_nodes(pprime_nodes)
    inv = involution_i(rd)
    moved = frozenset(inv[j] for j in p_nodes)
    clash = sorted(moved & pprime_nodes)
    if clash:
        raise DomainRefusal(
            f"marked-diagram description needs disjointness; node {clash[0] + 1} "
            "lies in both the involuted P marks and the P' marks"
        )
    factors = tuple(diagram_components_after_removal(rd, pprime_nodes, moved))
    return LeviQuotient(factors, len(pprime_nodes))


class NilradicalFiltration(NamedTuple):
    """Ascending central filtration of a nilradical, centre first."""

    layers: tuple[RootSubset, ...]

    @property
    def is_abelian(self) -> bool:
        return len(self.layers) <= 1


def nilradical_filtration(
    rd: RootDatum, pprime_nodes: Iterable[int]
) -> NilradicalFiltration:
    """Iterated centres of the nilradical of a marked parabolic: its roots
    grouped by marked height (coefficient sum over the marked nodes),
    highest first.

    The nilradical is graded by marked height and generated in degree one,
    so its lower central series is this grading (Azad, Barry and Seitz, On
    the structure of parabolic subgroups, 1990).  The evidence that the
    ascending series agrees is
    ``tests/test_orbits.py::test_marked_height_grading_is_the_iterated_centre_series``.
    The heights present are ``1..m``; the check cannot fail, as a positive
    root of marked height ``k >= 2`` is a positive root plus a simple root
    (one step of marked height or none), so every height 1..k occurs.
    """
    marked = rd.check_nodes(pprime_nodes)
    graded: dict[int, list[int]] = {}
    for i in range(rd.positive_count):
        h = sum(rd.roots[i].coords[j] for j in marked)
        if h:
            graded.setdefault(h, []).append(i)
    top = len(graded)
    if set(graded) != set(range(1, top + 1)):
        raise ConsistencyError("marked heights skip a value", heights=sorted(graded))
    return NilradicalFiltration(tuple(subset_of(rd, graded[h]) for h in range(top, 0, -1)))
