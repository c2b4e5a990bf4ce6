"""Orbit analysis of a parabolic acting on a homogeneous quotient:
density and dimension of orbits, the diagram test for a small boundary,
the reductive quotient read off the Dynkin diagram, and the ascending
central filtration of a nilradical.

Parabolics are named by their marked node sets (the nodes whose negative
simple root is dropped); the reflection subgroup attached to a parabolic
is generated by the complementary nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .parabolic import (
    ConsistencyError,
    RootSubset,
    apply_element,
    contains_borel,
    standard_parabolic_set,
    subset_of,
)
from .rootsys import (
    DiagramComponent,
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


class DomainRefusal(ValueError):
    """The requested quantity is undefined without its hypothesis."""


def weyl_generators(rd: RootDatum, marked: Iterable[int]) -> frozenset[int]:
    """Generator nodes of the reflection subgroup of a marked parabolic."""
    return frozenset(range(rd.rank)) - rd.check_nodes(marked)


def quotient_dimension(rd: RootDatum, p_nodes: Iterable[int]) -> int:
    """Dimension of G/P: positive roots whose support meets the marks."""
    return len(nilradical_roots(rd, p_nodes))


def orbit_dimension(
    rd: RootDatum,
    w: WeylElement,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
) -> int:
    """Dimension of the orbit attached to ``w``: the roots of ``w(p')``
    that fall outside ``p``."""
    p = standard_parabolic_set(rd, p_nodes)
    moved = apply_element(w, standard_parabolic_set(rd, pprime_nodes))
    return len(moved) - len(moved & p)


def is_dense_orbit(
    rd: RootDatum,
    w: WeylElement,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
    cross_check: bool = False,
) -> bool:
    """Whether the orbit attached to ``w`` fills the quotient.

    Decided by whether ``p & -w(p')`` contains a Borel.  With
    ``cross_check`` the equivalent orbit characterisation (``w`` lies in
    the longest element's coset orbit) is computed as well and the two are
    asserted to agree: ``w`` and the longest element are each reduced to
    the minimal element of their double coset, and the two compared.
    """
    p_nodes, pprime_nodes = rd.check_nodes(p_nodes), rd.check_nodes(pprime_nodes)
    p = standard_parabolic_set(rd, p_nodes)
    moved = apply_element(w, standard_parabolic_set(rd, pprime_nodes))
    dense = contains_borel(rd, p & moved.negated()) is not None
    if cross_check:
        left = weyl_generators(rd, p_nodes)
        right = weyl_generators(rd, pprime_nodes)
        w0 = longest_element(rd)
        same = double_coset_minimum(w, left, right) == double_coset_minimum(w0, left, right)
        if same != dense:
            raise ConsistencyError(
                "density characterisations disagree for "
                f"w={w.reduced_word()}, p={sorted(p_nodes)}, "
                f"p'={sorted(pprime_nodes)}"
            )
    return dense


@dataclass(frozen=True)
class OrbitDescriptor:
    """One orbit: minimal-length representative, dimension, size, density."""

    w: WeylElement
    p_nodes: frozenset[int]
    pprime_nodes: frozenset[int]
    dimension: int
    size: int
    dense: bool

    def to_json(self) -> dict:
        return {
            "representative_word": [i + 1 for i in self.w.reduced_word()],
            "dimension": self.dimension,
            "size": self.size,
            "dense": self.dense,
        }


def orbit_table(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> list[OrbitDescriptor]:
    """All orbits of the marked pair, sorted by dimension then representative."""
    p_nodes = rd.check_nodes(p_nodes)
    pprime_nodes = rd.check_nodes(pprime_nodes)
    total = quotient_dimension(rd, p_nodes)
    cosets = double_coset_orbits(
        rd, weyl_generators(rd, p_nodes), weyl_generators(rd, pprime_nodes)
    )
    out = []
    for orbit in cosets:
        dim = orbit_dimension(rd, orbit.representative, p_nodes, pprime_nodes)
        out.append(
            OrbitDescriptor(
                orbit.representative,
                p_nodes,
                pprime_nodes,
                dim,
                orbit.size,
                dim == total,
            )
        )
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


@dataclass(frozen=True)
class LeviFactor:
    """A simple factor of the reductive quotient, with its marked nodes."""

    component: DiagramComponent
    marked: frozenset[int]  # original node labels

    @property
    def marked_std(self) -> frozenset[int]:
        relabel = self.component.relabel_map
        return frozenset(relabel[i] for i in self.marked)

    def to_json(self) -> dict:
        return {
            "type": self.component.lie_type,
            "rank": self.component.rank,
            "nodes": [i + 1 for i in self.component.nodes],
            "marked": sorted(i + 1 for i in self.marked),
            "marked_std": sorted(i + 1 for i in self.marked_std),
        }


@dataclass(frozen=True)
class LeviQuotient:
    factors: tuple[LeviFactor, ...]
    torus_rank: int

    def to_json(self) -> dict:
        return {
            "factors": [f.to_json() for f in self.factors],
            "torus_rank": self.torus_rank,
        }


def levi_quotient(
    rd: RootDatum, p_nodes: Iterable[int], pprime_nodes: Iterable[int]
) -> LeviQuotient:
    """The reductive quotient R'/R as marked diagram components.

    Factors are the components of the diagram minus the P' marks, each
    carrying the involuted P marks that fall inside it.  Refuses when the
    disjointness hypothesis fails, naming an offending node.
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
    factors = tuple(
        LeviFactor(comp, frozenset(comp.nodes) & moved)
        for comp in diagram_components_after_removal(rd, pprime_nodes)
    )
    return LeviQuotient(factors, len(pprime_nodes))


@dataclass(frozen=True)
class NilradicalFiltration:
    """Ascending central filtration of a nilradical, centre first."""

    layers: tuple[RootSubset, ...]

    @property
    def is_abelian(self) -> bool:
        return len(self.layers) <= 1

    def to_json(self) -> dict:
        return {
            "layers": [layer.to_json() for layer in self.layers],
            "abelian": self.is_abelian,
        }


def nilradical_roots(rd: RootDatum, pprime_nodes: Iterable[int]) -> RootSubset:
    marked = rd.check_nodes(pprime_nodes)
    return subset_of(
        rd,
        (
            i
            for i in range(rd.positive_count)
            if not rd.roots[i].support.isdisjoint(marked)
        ),
    )


def nilradical_filtration(
    rd: RootDatum, pprime_nodes: Iterable[int]
) -> NilradicalFiltration:
    """Iterated centres of the nilradical of a marked parabolic.

    Layer one collects the roots that cannot be extended by any other
    nilradical root; later layers repeat the rule in the quotient by what
    has already been removed.
    """
    sums = rd.sum_table()
    remaining = set(nilradical_roots(rd, pprime_nodes).indices)
    layers = []
    while remaining:
        layer = {
            g
            for g in remaining
            if not any(
                d in remaining and k in remaining for d, k in sums[g].items()
            )
        }
        if not layer:
            raise ConsistencyError("central filtration stalled; nilradical not nilpotent?")
        layers.append(subset_of(rd, layer))
        remaining -= layer
    return NilradicalFiltration(tuple(layers))
