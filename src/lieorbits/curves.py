"""Curve-class arithmetic on a homogeneous quotient G/P.

A curve class is a vector of degrees against the fundamental-weight
generators of Pic(G/P), keyed by the marked nodes of P.  The pairing
normalisation is anchored geometrically: a degree-one class on projective
n-space meets the tangent bundle in n+1.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .parabolic import nilradical_roots, quotient_dimension
from .rootsys import (
    ConsistencyError,
    DiagramComponent,
    DomainRefusal,
    RootDatum,
    diagram_components_after_removal,
)


class _CurveFields(NamedTuple):
    nodes: tuple[int, ...]  # marked nodes of P, ascending
    degrees: tuple[int, ...]


class CurveClass(_CurveFields):
    """Degrees of a 1-cycle class against the Picard generators of G/P,
    checked on every construction (``_replace`` too)."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[int, ...], degrees: tuple[int, ...]):
        if len(nodes) != len(degrees):
            raise ValueError("one degree per marked node required")
        if tuple(sorted(nodes)) != nodes:
            raise ValueError("nodes must be sorted ascending")
        return super().__new__(cls, nodes, degrees)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def degree(self, node: int) -> int:
        try:
            return self.degrees[self.nodes.index(node)]
        except ValueError:
            raise KeyError(f"node {node} is not a key of this class") from None


def curve_class(p_nodes: Iterable[int], degrees: Sequence[int]) -> CurveClass:
    nodes = tuple(sorted(p_nodes))
    if len(degrees) != len(nodes):
        raise ValueError(
            f"expected {len(nodes)} degrees for nodes {[n + 1 for n in nodes]}, "
            f"got {len(degrees)}"
        )
    return CurveClass(nodes, tuple(int(d) for d in degrees))


def positivity(c: CurveClass) -> str:
    """``strict`` / ``positive`` / ``outside`` against the effective cone."""
    if any(d < 0 for d in c.degrees):
        return "outside"
    if all(d > 0 for d in c.degrees):
        return "strict"
    return "positive"


def _require_keys(p_nodes: frozenset[int], c: CurveClass) -> None:
    if tuple(sorted(p_nodes)) != c.nodes:
        raise ValueError(
            f"class keyed by nodes {[n + 1 for n in c.nodes]} but P is marked at "
            f"{sorted(n + 1 for n in p_nodes)}"
        )


def anticanonical_coefficients(rd: RootDatum, p_nodes: Iterable[int]) -> dict[int, int]:
    """Fundamental-weight coefficients of c1(T_{G/P}).

    The first Chern class is the sum of the nilradical's positive roots;
    its pairing against unmarked coroots must vanish, which is asserted.
    """
    marked = rd.check_nodes(p_nodes)
    nil = nilradical_roots(rd, marked)
    coeffs = {}
    for j in range(rd.rank):
        m = sum(rd.pairing(rd.roots[i].coords, j) for i in nil.indices)
        if j in marked:
            coeffs[j] = m
        elif m != 0:
            raise ConsistencyError(
                f"c1 pairs nontrivially against unmarked coroot {j + 1}"
            )
    return coeffs


def tangent_degree(rd: RootDatum, p_nodes: Iterable[int], c: CurveClass) -> int:
    """Degree of the tangent bundle against the class: expand c1 in the
    fundamental weights of the marked nodes, then pair degree-wise."""
    marked = rd.check_nodes(p_nodes)
    _require_keys(marked, c)
    coeffs = anticanonical_coefficients(rd, marked)
    return sum(coeffs[j] * c.degree(j) for j in c.nodes)


def tangent_degree_from_roots(
    rd: RootDatum, p_nodes: Iterable[int], c: CurveClass
) -> int:
    """Independent route to the same degree: lift the class to the coroot
    lattice (zero on unmarked nodes) and sum its pairing with the negative
    of every root outside the parabolic."""
    marked = rd.check_nodes(p_nodes)
    _require_keys(marked, c)
    lift = {j: c.degree(j) for j in c.nodes}
    total = 0
    for i in nilradical_roots(rd, marked).indices:
        gamma = rd.roots[rd.negative_index(i)]  # a root outside p
        total += sum(-rd.pairing(gamma.coords, j) * d for j, d in lift.items())
    return total


def hilbert_dimension(rd: RootDatum, p_nodes: Iterable[int], c: CurveClass) -> int:
    """Expected dimension of the family of smooth rational curves in the
    class: tangent degree plus dim(G/P) minus three.  Refused when G/P is a
    point, which carries no curve."""
    if positivity(c) == "outside":
        raise DomainRefusal(
            "class lies outside the positive cone; no dimension is asserted there"
        )
    marked = rd.check_nodes(p_nodes)
    total = quotient_dimension(rd, marked)
    if total == 0:
        raise DomainRefusal("G/P is a point; it carries no curve")
    return tangent_degree(rd, marked, c) + total - 3


class ReducedFactor(NamedTuple):
    """One factor of the fibre picked out by the zero-degree marks."""

    component: DiagramComponent
    restricted: CurveClass  # keyed by component.marked_std


def reduce_positive_class(
    rd: RootDatum, p_nodes: Iterable[int], c: CurveClass
) -> list[ReducedFactor]:
    """Split a boundary class along the parabolic of its zero-degree marks.

    Removing the zero nodes cuts the diagram; every component that still
    carries marks becomes a factor with the strictly positive restriction
    of the class, keyed by ``marked_std`` (``marked[k]`` pairs with
    ``marked_std[k]``).  Components without marks contribute nothing.
    """
    marked = rd.check_nodes(p_nodes)
    _require_keys(marked, c)
    kind = positivity(c)
    if kind == "strict":
        raise DomainRefusal("class is strictly positive; nothing to reduce")
    if kind == "outside":
        raise DomainRefusal("class lies outside the positive cone")
    zeros = frozenset(j for j in c.nodes if c.degree(j) == 0)
    return [
        ReducedFactor(comp, CurveClass(comp.marked_std, tuple(c.degree(j) for j in comp.marked)))
        for comp in diagram_components_after_removal(rd, zeros, marked)
        if comp.marked
    ]


def _factor_dimension(rd: RootDatum, f: ReducedFactor) -> int:
    """Dimension of the factor's quotient, counted in the parent datum, whose
    labels the factor keeps: its positive roots supported on the factor's
    nodes that meet its marks."""
    nodes, marked = frozenset(f.component.nodes), frozenset(f.component.marked)
    positive = rd.roots[: rd.positive_count]
    return sum(1 for r in positive if r.support <= nodes and not r.support.isdisjoint(marked))


class ExistenceVerdict(NamedTuple):
    """Outcome of the smooth-rational-curve decision for one class."""

    mor_nonempty: bool
    smooth_curve_exists: bool
    reduction: Optional[tuple[ReducedFactor, ...]]
    exception_hit: Optional[str]  # "P1", "P2" or "P1xP1"


def _product_verdict(parts) -> tuple[bool, Optional[str]]:
    """Smooth-curve existence on a product of simple factors, given as
    (dimension, degrees) pairs with strictly positive degrees.

    A factor of dimension three or more supports an embedded curve of any
    strictly positive class, and one embedded coordinate makes the product
    curve embedded; so do two planes, or a plane and a line.  Only a lone
    line, a lone plane and a pair of lines need a refined degree test.  An
    empty product carries no curve.
    """
    dims = sorted(dim for dim, _ in parts)
    first = [degrees[0] for _, degrees in parts]
    if dims == [1]:
        return first[0] == 1, "P1"
    if dims == [2]:
        return first[0] <= 2, "P2"
    if dims == [1, 1]:
        return min(first) <= 1, "P1xP1"
    return bool(parts), None


def decide_smooth_rational_curve(
    rd: RootDatum, p_nodes: Iterable[int], c: CurveClass
) -> ExistenceVerdict:
    """Existence decision for morphisms and smooth curves in the class.

    Morphisms exist exactly on the positive cone.  A point (P = G) carries
    no smooth curve.  For strictly positive classes the target itself is
    tested against the line/plane exceptions; boundary classes are first
    split along their zero-degree marks and the product of the resulting
    fibre factors is tested instead.
    """
    marked = rd.check_nodes(p_nodes)
    _require_keys(marked, c)
    kind = positivity(c)
    if kind == "outside":
        return ExistenceVerdict(False, False, None, None)
    if not marked:
        return ExistenceVerdict(True, False, None, None)
    if kind == "strict":
        factors = None
        parts = [(quotient_dimension(rd, marked), c.degrees)]
    else:
        factors = tuple(reduce_positive_class(rd, marked, c))
        parts = [(_factor_dimension(rd, f), f.restricted.degrees) for f in factors]
    smooth, hit = _product_verdict(parts)
    return ExistenceVerdict(True, smooth, factors, hit)
