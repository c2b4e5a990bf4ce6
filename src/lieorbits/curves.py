"""Curve-class arithmetic on a homogeneous quotient G/P.

A curve class is a vector of degrees against the fundamental-weight
generators of Pic(G/P), keyed by the marked nodes of P.  The pairing
normalisation is anchored geometrically: a degree-one class on projective
n-space meets the tangent bundle in n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .orbits import DomainRefusal, nilradical_roots, quotient_dimension
from .rootsys import (
    ConsistencyError,
    RootDatum,
    build_root_system,
    diagram_components_after_removal,
)


@dataclass(frozen=True)
class CurveClass:
    """Degrees of a 1-cycle class against the Picard generators of G/P."""

    nodes: tuple[int, ...]  # marked nodes of P, ascending
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.degrees):
            raise ValueError("one degree per marked node required")
        if tuple(sorted(self.nodes)) != self.nodes:
            raise ValueError("nodes must be sorted ascending")

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


def _require_keys(rd: RootDatum, p_nodes: frozenset[int], c: CurveClass) -> None:
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
    _require_keys(rd, marked, c)
    coeffs = anticanonical_coefficients(rd, marked)
    return sum(coeffs[j] * c.degree(j) for j in c.nodes)


def tangent_degree_from_roots(
    rd: RootDatum, p_nodes: Iterable[int], c: CurveClass
) -> int:
    """Independent route to the same degree: lift the class to the coroot
    lattice (zero on unmarked nodes) and sum its pairing with the negative
    of every root outside the parabolic."""
    marked = rd.check_nodes(p_nodes)
    _require_keys(rd, marked, c)
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


@dataclass(frozen=True)
class ReducedFactor:
    """One factor of the fibre picked out by the zero-degree marks."""

    lie_type: str
    rank: int
    nodes: tuple[int, ...]  # original labels
    marked: tuple[int, ...]  # original labels, ascending
    marked_std: tuple[int, ...]  # labels inside the standard component
    restricted: CurveClass  # keyed by marked_std

    def to_json(self) -> dict:
        return {
            "type": self.lie_type,
            "rank": self.rank,
            "nodes": [i + 1 for i in self.nodes],
            "marked": [i + 1 for i in self.marked],
            "degrees": list(self.restricted.degrees),
        }


def reduce_positive_class(
    rd: RootDatum, p_nodes: Iterable[int], c: CurveClass
) -> list[ReducedFactor]:
    """Split a boundary class along the parabolic of its zero-degree marks.

    Removing the zero nodes cuts the diagram; every component that still
    carries marks becomes a factor with the strictly positive restriction
    of the class.  Components without marks contribute nothing.
    """
    marked = rd.check_nodes(p_nodes)
    _require_keys(rd, marked, c)
    kind = positivity(c)
    if kind == "strict":
        raise DomainRefusal("class is strictly positive; nothing to reduce")
    if kind == "outside":
        raise DomainRefusal("class lies outside the positive cone")
    zeros = frozenset(j for j in c.nodes if c.degree(j) == 0)
    factors = []
    for comp in diagram_components_after_removal(rd, zeros):
        live = sorted(frozenset(comp.nodes) & marked)
        if not live:
            continue
        relabel = comp.relabel_map
        std = sorted(relabel[j] for j in live)
        by_std = {relabel[j]: c.degree(j) for j in live}
        factors.append(
            ReducedFactor(
                comp.lie_type,
                comp.rank,
                comp.nodes,
                tuple(live),
                tuple(std),
                CurveClass(tuple(std), tuple(by_std[s] for s in std)),
            )
        )
    return factors


@lru_cache(maxsize=None)
def _factor_dimension(lie_type: str, rank: int, marked_std: tuple[int, ...]) -> int:
    sub = build_root_system(lie_type, rank)
    return quotient_dimension(sub, frozenset(marked_std))


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the smooth-rational-curve decision for one class."""

    mor_nonempty: bool
    smooth_curve_exists: bool
    reduction: Optional[tuple[ReducedFactor, ...]]
    exception_hit: Optional[str]  # "P1", "P2" or "P1xP1"

    def to_json(self) -> dict:
        return {
            "mor_nonempty": self.mor_nonempty,
            "smooth": self.smooth_curve_exists,
            "exception": self.exception_hit,
            "reduction": (
                None
                if self.reduction is None
                else [f.to_json() for f in self.reduction]
            ),
        }


def _classify(dim: int) -> str:
    """Exceptional shape of a quotient of the given dimension: a line, a
    plane, or neither."""
    return {1: "P1", 2: "P2"}.get(dim, "other")


def _product_verdict(kinds_and_degrees) -> tuple[bool, Optional[str]]:
    """Smooth-curve existence on a product of simple factors, every factor
    carrying strictly positive degrees.

    Any factor beyond the plane/line exceptions supports an embedded curve
    of any strictly positive class, and one embedded coordinate makes the
    product curve embedded.  Among exceptional factors, only a lone line, a
    lone plane and a pair of lines need a refined degree test.
    """
    kinds = [k for k, _ in kinds_and_degrees]
    if not kinds:
        return False, None
    if any(k == "other" for k in kinds):
        return True, None
    n1 = kinds.count("P1")
    n2 = kinds.count("P2")
    if n2 >= 2 or (n2 == 1 and n1 >= 1):
        return True, None
    if n2 == 1:
        d = kinds_and_degrees[0][1][0]
        return d <= 2, "P2"
    if n1 == 1:
        d = kinds_and_degrees[0][1][0]
        return d == 1, "P1"
    if n1 == 2:
        a = kinds_and_degrees[0][1][0]
        b = kinds_and_degrees[1][1][0]
        return min(a, b) <= 1, "P1xP1"
    return True, None  # three or more line factors


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
    _require_keys(rd, marked, c)
    kind = positivity(c)
    if kind == "outside":
        return ExistenceVerdict(False, False, None, None)
    if not marked:
        return ExistenceVerdict(True, False, None, None)
    if kind == "strict":
        shape = _classify(quotient_dimension(rd, marked))
        smooth, hit = _product_verdict([(shape, c.degrees)])
        return ExistenceVerdict(True, smooth, None, hit)
    factors = reduce_positive_class(rd, marked, c)
    pairs = [
        (_classify(_factor_dimension(f.lie_type, f.rank, f.marked_std)), f.restricted.degrees)
        for f in factors
    ]
    smooth, hit = _product_verdict(pairs)
    return ExistenceVerdict(True, smooth, tuple(factors), hit)
