"""Reference routines that only the tests call.

Each one re-derives a quantity the library computes another way, or checks
a property of its results: the root list, reflection permutations and sum
rows by dense coordinate arithmetic, the type of a subdiagram by trying
every relabelling, root lookups, root sums and pairings, the iterated
centres of a nilradical (the reference for its grading by marked height),
the order of a parabolic subgroup by the types of its components, the
smooth-curve decision by the exceptional shapes of its factors,
the closure of a root set under addition, closedness and the Borel inside
a closed set (the references for the library's Borel walk and covering
test), the members of a double coset by breadth-first search, orbit
dimensions by root sets (the reference for the orbit table's count),
parabolics over an arbitrary Borel, Borel chains, the P^1-fibration
candidates of a quotient and the numeric lifting rule through a ruled
surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import prod
from operator import add, mul
from typing import Iterable, Optional, Sequence

from lieorbits.curves import (
    CurveClass,
    ExistenceVerdict,
    _factor_dimension,
    _require_keys,
    positivity,
    reduce_positive_class,
)
from lieorbits.parabolic import (
    RootSubset,
    apply_element,
    borel_to_weyl,
    chain_walk,
    is_borel,
    is_covering,
    nearest_borel,
    nilradical_roots,
    quotient_dimension,
    standard_borel,
    standard_parabolic_set,
)
from lieorbits.rootsys import (
    RANK_RULES,
    ConsistencyError,
    DiagramComponent,
    Root,
    RootDatum,
    cartan_matrix,
    diagram_components_after_removal,
)
from lieorbits.weyl import CosetOrbit, WeylElement, simple_reflection, weyl_order


def dense_generate_roots(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every root, ordered as ``RootDatum`` orders them, by closing the
    simple roots under every simple reflection with the dense pairing
    ``sum(cartan[i][k] * c[k])`` of each root against each node."""
    rank = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for c in frontier:
            for i, row in enumerate(cartan):
                r = c[:i] + (c[i] - sum(map(mul, row, c)),) + c[i + 1 :]
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
        frontier = fresh
    positives = sorted(
        (c for c in seen if all(x >= 0 for x in c)),
        key=lambda c: (sum(c), c),
    )
    for c in seen:
        if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            raise ConsistencyError(f"mixed-sign vector generated: {c}")
    if 2 * len(positives) != len(seen):
        raise ConsistencyError("positives do not account for half the roots")
    return positives + [tuple(-x for x in c) for c in positives]


def dense_reflection_perms(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Each simple reflection as a permutation of the root list, by the
    formula ``s_i(c) = c - <c, alphacheck_i> alpha_i`` on every root."""
    perms = []
    for i in range(rd.rank):
        perm = []
        for r in rd.roots:
            c = r.coords
            perm.append(rd.root_index[c[:i] + (c[i] - rd.pairing(c, i),) + c[i + 1 :]])
        perms.append(tuple(perm))
    return tuple(perms)


@lru_cache(maxsize=None)
def dense_sum_table(rd: RootDatum) -> tuple[dict[int, int], ...]:
    """Row ``i`` maps ``j`` to ``k`` whenever ``roots[i] + roots[j]`` is
    ``roots[k]``, by adding the coordinates of every pair; built once per
    datum (a datum hashes by identity)."""
    rows = []
    for a in rd.roots:
        row = {}
        for j, b in enumerate(rd.roots):
            k = rd.root_index.get(tuple(map(add, a.coords, b.coords)))
            if k is not None:
                row[j] = k
        rows.append(row)
    return tuple(rows)


def classify_by_permutations(rd: RootDatum, nodes: Sequence[int]) -> DiagramComponent:
    """The type of a connected induced subdiagram, trying the identity
    relabelling of every candidate type first and then every permutation in
    ``itertools.permutations`` order: the reference for
    ``classify_subdiagram``'s search."""
    nodes = tuple(sorted(nodes))
    k = len(nodes)
    sub = [[rd.cartan[a][b] for b in nodes] for a in nodes]
    candidates = [t for t, (lo, hi) in RANK_RULES.items() if lo <= k and (hi is None or k <= hi)]

    def matches(std, perm) -> bool:
        return all(sub[a][b] == std[perm[a]][perm[b]] for a in range(k) for b in range(k))

    identity = tuple(range(k))
    for t in candidates:
        if matches(cartan_matrix(t, k), identity):
            return DiagramComponent(t, k, nodes, tuple(zip(nodes, identity)))
    for t in candidates:
        std = cartan_matrix(t, k)
        for perm in permutations(range(k)):
            if matches(std, perm):
                return DiagramComponent(t, k, nodes, tuple(zip(nodes, perm)))
    raise ConsistencyError(f"subdiagram on nodes {nodes} is not of simple type")


def index_of(rd: RootDatum, root: Root) -> int:
    idx = rd.root_index.get(root.coords)
    if idx is None:
        raise ValueError(f"{root.coords} is not a root of {rd!r}")
    return idx


def sum_index(rd: RootDatum, i: int, j: int) -> Optional[int]:
    """Index of ``roots[i] + roots[j]`` when that sum is a root."""
    return dense_sum_table(rd)[i].get(j)


def iterated_centres(rd: RootDatum, marked: Iterable[int]) -> list[frozenset[int]]:
    """Ascending central filtration of the nilradical of a marked parabolic,
    centre first, by peeling iterated centres: layer one collects the roots
    that no other nilradical root extends, later layers repeat the rule in
    the quotient by what has already been removed."""
    sums = dense_sum_table(rd)
    remaining = set(nilradical_roots(rd, marked).indices)
    layers = []
    while remaining:
        layer = frozenset(
            g
            for g in remaining
            if not any(d in remaining and k in remaining for d, k in sums[g].items())
        )
        if not layer:
            raise ConsistencyError("central filtration stalled; nilradical not nilpotent?")
        layers.append(layer)
        remaining -= layer
    return layers


def closure(rd: RootDatum, indices: Iterable[int]) -> frozenset[int]:
    """Smallest superset closed under root addition."""
    sums = dense_sum_table(rd)
    out = set(indices)
    frontier = list(out)
    while frontier:
        fresh = []
        for i in frontier:
            for j, k in sums[i].items():
                if j in out and k not in out:
                    out.add(k)
                    fresh.append(k)
        frontier = fresh
    return frozenset(out)


def closed_violation(rd: RootDatum, s: RootSubset) -> Optional[tuple[int, int, int]]:
    """A witness (i, j, i+j) that the subset is not closed, if any."""
    sums = dense_sum_table(rd)
    members = s.indices
    for i in members:
        for j, k in sums[i].items():
            if j in members and k not in members:
                return (i, j, k)
    return None


def is_closed(rd: RootDatum, s: RootSubset) -> bool:
    return closed_violation(rd, s) is None


def is_borel_by_definition(rd: RootDatum, s: RootSubset) -> bool:
    """One root of each opposite pair, and closed under addition."""
    n = rd.positive_count
    return len(s) == n == len({i % n for i in s.indices}) and is_closed(rd, s)


def contains_borel(rd: RootDatum, s: RootSubset) -> Optional[RootSubset]:
    """The Borel inside a closed subset nearest to the standard Borel, or
    None when the subset misses both roots of some opposite pair."""
    witness = closed_violation(rd, s)
    if witness is not None:
        i, j, k = witness
        raise ValueError(
            f"subset not closed: {rd.roots[i].coords} + {rd.roots[j].coords} "
            f"= {rd.roots[k].coords} is missing"
        )
    if not is_covering(rd, s):
        return None
    out = nearest_borel(rd, s, standard_borel(rd))
    if not is_borel(rd, out):
        raise ConsistencyError(
            "closed covering subset holds no Borel", subset=s.coords(), chosen=out.coords()
        )
    return out


def root_sum(rd: RootDatum, gamma: Root, delta: Root) -> Optional[Root]:
    """``gamma + delta`` as a Root when the sum is again a root, else None."""
    k = sum_index(rd, index_of(rd, gamma), index_of(rd, delta))
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
    return w.rd.roots[w.perm[index_of(w.rd, gamma)]]


def orbit_dimension(
    rd: RootDatum,
    w: WeylElement,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
) -> int:
    """Dimension of the orbit attached to ``w``, by root sets: the roots of
    ``w(p')`` that fall outside ``p`` (the reference for ``orbit_table``'s
    count by lengths)."""
    p = standard_parabolic_set(rd, p_nodes)
    moved = apply_element(w, standard_parabolic_set(rd, pprime_nodes))
    return len(moved) - len(moved & p)


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


def simple_roots_of_borel(rd: RootDatum, b: RootSubset) -> tuple[int, ...]:
    """Root indices of the simple roots of ``b``, in node order."""
    w = borel_to_weyl(rd, b)
    return tuple(w.perm[rd.simple_root_index(i)] for i in range(rd.rank))


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
    sums = dense_sum_table(rd)
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


def parabolic_order_by_components(rd: RootDatum, nodes: Iterable[int]) -> int:
    """Order of the subgroup generated by the simple reflections of ``nodes``:
    the product of |W| over the typed components of their subdiagram."""
    removed = frozenset(range(rd.rank)) - rd.check_nodes(nodes)
    return prod(
        weyl_order(c.lie_type, c.rank)
        for c in diagram_components_after_removal(rd, removed)
    )


def _classify(dim: int) -> str:
    """Exceptional shape of a quotient of the given dimension: a line, a
    plane, or neither."""
    return {1: "P1", 2: "P2"}.get(dim, "other")


def _product_verdict_by_shapes(kinds_and_degrees) -> tuple[bool, Optional[str]]:
    """Smooth-curve existence on a product of simple factors, from the count
    of line and plane factors among them."""
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


def decide_by_shapes(rd: RootDatum, p_nodes: Iterable[int], c: CurveClass) -> ExistenceVerdict:
    """The smooth-rational-curve decision with every quotient and factor
    named by its shape before the product rule reads it."""
    marked = rd.check_nodes(p_nodes)
    _require_keys(marked, c)
    kind = positivity(c)
    if kind == "outside":
        return ExistenceVerdict(False, False, None, None)
    if not marked:
        return ExistenceVerdict(True, False, None, None)
    if kind == "strict":
        shape = _classify(quotient_dimension(rd, marked))
        smooth, hit = _product_verdict_by_shapes([(shape, c.degrees)])
        return ExistenceVerdict(True, smooth, None, hit)
    factors = reduce_positive_class(rd, marked, c)
    pairs = [(_classify(_factor_dimension(rd, f)), f.restricted.degrees) for f in factors]
    smooth, hit = _product_verdict_by_shapes(pairs)
    return ExistenceVerdict(True, smooth, tuple(factors), hit)
