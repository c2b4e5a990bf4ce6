"""Reduced root systems of the simple Lie types, with exact integer arithmetic.

Roots are stored as integer coordinate vectors in the simple-root basis.
The Cartan matrix is oriented as ``cartan[i][j] = <alpha_j, alphacheck_i>``,
so the pairing of a root ``gamma`` against the coroot of node ``j`` is
``sum(cartan[j][i] * gamma[i])``.  Node indices are 0-based throughout the
library; only the CLI speaks 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from operator import mul
from typing import Iterable, Optional, Sequence

#: admissible ranks per type: (minimum, maximum or None for unbounded)
RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class ConsistencyError(RuntimeError):
    """An internal invariant failed; carries the offending data."""

    def __init__(self, message: str, **trace):
        detail = "; ".join(f"{k}={v}" for k, v in sorted(trace.items()))
        super().__init__(f"{message} [{detail}]" if detail else message)
        self.trace = trace


@dataclass(frozen=True)
class Root:
    """A root, as integer coefficients over the simple roots."""

    coords: tuple[int, ...]

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    @property
    def height(self) -> int:
        return sum(self.coords)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c != 0)


def _chain_cartan(rank: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def cartan_matrix(lie_type: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in the Bourbaki labelling, rows indexed by coroots."""
    validate_type(lie_type, rank)
    if lie_type == "A":
        m = _chain_cartan(rank)
    elif lie_type == "B":
        # last simple root short
        m = _chain_cartan(rank)
        m[rank - 1][rank - 2] = -2
    elif lie_type == "C":
        # last simple root long
        m = _chain_cartan(rank)
        m[rank - 2][rank - 1] = -2
    elif lie_type == "D":
        m = _chain_cartan(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        m[rank - 3][rank - 1] = -1
        m[rank - 1][rank - 3] = -1
    elif lie_type == "E":
        # chain 1-3-4-...-n with node 2 hanging off node 4
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            m[a][b] = m[b][a] = -1
        m[1][3] = m[3][1] = -1
    elif lie_type == "F":
        m = _chain_cartan(4)
        m[2][1] = -2
    else:  # G
        m = [[2, -3], [-1, 2]]
    return tuple(tuple(row) for row in m)


def validate_type(lie_type: str, rank: int) -> None:
    rule = RANK_RULES.get(lie_type)
    if rule is None:
        raise ValueError(
            f"unknown type {lie_type!r}; admissible types are A, B, C, D, E, F, G"
        )
    lo, hi = rule
    if rank < lo or (hi is not None and rank > hi):
        bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"type {lie_type} requires rank {bound}, got {rank}")


def generate_roots(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Saturate the simple roots under all simple reflections.

    Returns every root, positives first (sorted by height then coordinates),
    negatives mirrored in the same order.
    """
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


class RootDatum:
    """All roots of one simple type, with pairings and lookup tables.

    Immutable after construction; instances compare by identity and may be
    shared freely.  The only mutable state is the lazily built reflection
    and sum tables, which are safe under CPython's GIL for the single-writer
    uses in this library.
    """

    def __init__(self, lie_type: str, rank: int, cartan, roots: list[tuple[int, ...]]):
        self.lie_type = lie_type
        self.rank = rank
        self.cartan = cartan
        self.roots = tuple(Root(c) for c in roots)
        self.positive_count = len(roots) // 2
        self.root_index = {c: i for i, c in enumerate(roots)}
        self._simple_index = {
            i: self.root_index[tuple(1 if k == i else 0 for k in range(rank))]
            for i in range(rank)
        }
        self._reflections: Optional[tuple[tuple[int, ...], ...]] = None
        self._sums: Optional[tuple[dict[int, int], ...]] = None

    def __repr__(self) -> str:
        return f"RootDatum({self.lie_type}{self.rank}, {len(self.roots)} roots)"

    def check_nodes(self, nodes: Iterable[int]) -> frozenset[int]:
        """The node indices as a set, each checked to lie in ``0..rank-1``."""
        out = frozenset(nodes)
        for i in out:
            if not 0 <= i < self.rank:
                raise ValueError(f"node index {i} out of range 0..{self.rank - 1}")
        return out

    def pairing(self, coords: Sequence[int], j: int) -> int:
        """``<gamma, alphacheck_j>`` for ``gamma`` in simple-root coordinates."""
        return sum(self.cartan[j][i] * coords[i] for i in range(self.rank))

    def simple_root_index(self, i: int) -> int:
        return self._simple_index[i]

    def node_of_simple(self, idx: int) -> int:
        root = self.roots[idx]
        if root.height != 1 or min(root.coords) < 0:
            raise ValueError(f"root {root.coords} is not a simple root")
        return root.coords.index(1)

    def negative_index(self, idx: int) -> int:
        n = self.positive_count
        return idx + n if idx < n else idx - n

    def sum_table(self) -> tuple[dict[int, int], ...]:
        """Row ``i`` maps ``j`` to ``k`` whenever ``roots[i] + roots[j]`` is
        ``roots[k]``; built on first use.

        Only the simple-root rows are computed from coordinates.  Every other
        row is carried along a simple reflection ``s`` from a known one, since
        ``s(a) + s(b) = s(a + b)``, and every root is conjugate to a simple one.
        """
        if self._sums is None:
            rows: list[Optional[dict[int, int]]] = [None] * len(self.roots)
            frontier = []
            for i in range(self.rank):
                r = self._simple_index[i]
                a = self.roots[r].coords
                row = {}
                for j, root in enumerate(self.roots):
                    k = self.root_index.get(tuple(x + y for x, y in zip(a, root.coords)))
                    if k is not None:
                        row[j] = k
                rows[r] = row
                frontier.append(r)
            perms = self.reflection_perms()
            while frontier:
                fresh = []
                for r in frontier:
                    row = rows[r]
                    for s in perms:
                        if rows[s[r]] is None:
                            rows[s[r]] = {s[j]: s[k] for j, k in row.items()}
                            fresh.append(s[r])
                frontier = fresh
            if any(row is None for row in rows):
                raise ConsistencyError("some root is not conjugate to a simple root")
            self._sums = tuple(rows)
        return self._sums

    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """Permutation of the root list induced by each simple reflection."""
        if self._reflections is None:
            perms = []
            for i in range(self.rank):
                row = self.cartan[i]
                perm = []
                for r in self.roots:
                    c = r.coords
                    # s_i only changes coordinate i, by the pairing with alpha_i
                    img = c[:i] + (c[i] - sum(map(mul, row, c)),) + c[i + 1 :]
                    perm.append(self.root_index[img])
                perms.append(tuple(perm))
            self._reflections = tuple(perms)
        return self._reflections

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        out = {}
        for i in range(self.rank):
            out[i] = tuple(
                j for j in range(self.rank) if j != i and self.cartan[i][j] != 0
            )
        return out


@lru_cache(maxsize=None)
def build_root_system(lie_type: str, rank: int) -> RootDatum:
    """Construct the reduced root system of the given simple type.

    ``(D, 3)`` is accepted and normalised to ``(A, 3)``, reflecting the
    low-rank coincidence of the two diagrams.
    """
    validate_type(lie_type, rank)
    if lie_type == "D" and rank == 3:
        return build_root_system("A", 3)
    cartan = cartan_matrix(lie_type, rank)
    roots = generate_roots(cartan)
    return RootDatum(lie_type, rank, cartan, roots)


@dataclass(frozen=True)
class DiagramComponent:
    """A connected piece of the Dynkin diagram after deleting nodes."""

    lie_type: str
    rank: int
    nodes: tuple[int, ...]  # original node labels, ascending
    relabel: tuple[tuple[int, int], ...]  # (original node, standard node)

    @property
    def relabel_map(self) -> dict[int, int]:
        return dict(self.relabel)


def _match_relabel(sub, std, perm) -> bool:
    k = len(perm)
    return all(
        sub[a][b] == std[perm[a]][perm[b]] for a in range(k) for b in range(k)
    )


def _candidate_types(k: int) -> list[str]:
    return [t for t, (lo, hi) in RANK_RULES.items() if lo <= k and (hi is None or k <= hi)]


def classify_subdiagram(rd: RootDatum, nodes: Sequence[int]) -> DiagramComponent:
    """Identify the simple type of a connected induced subdiagram.

    The identity relabelling (ascending original labels) is preferred over
    permuted ones so that e.g. an untouched C2 reports as C2 rather than the
    isomorphic B2.
    """
    nodes = tuple(sorted(nodes))
    k = len(nodes)
    sub = [[rd.cartan[a][b] for b in nodes] for a in nodes]
    candidates = _candidate_types(k)
    identity = tuple(range(k))
    for t in candidates:
        if _match_relabel(sub, cartan_matrix(t, k), identity):
            return DiagramComponent(t, k, nodes, tuple(zip(nodes, identity)))
    for t in candidates:
        std = cartan_matrix(t, k)
        for perm in permutations(range(k)):
            if _match_relabel(sub, std, perm):
                return DiagramComponent(t, k, nodes, tuple(zip(nodes, perm)))
    raise ConsistencyError(f"subdiagram on nodes {nodes} is not of simple type")


def diagram_components_after_removal(
    rd: RootDatum, removed: Iterable[int]
) -> list[DiagramComponent]:
    """Connected components of the Dynkin diagram minus the given nodes."""
    removed = rd.check_nodes(removed)
    adj = rd.adjacency()
    left = [i for i in range(rd.rank) if i not in removed]
    seen: set[int] = set()
    components = []
    for start in left:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in removed and nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        components.append(classify_subdiagram(rd, sorted(comp)))
    return components


def involution_i(rd: RootDatum) -> tuple[int, ...]:
    """The diagram involution ``j -> node of -w0(alpha_j)``.

    Always computed from the longest element's action, never from a lookup
    table; the result is asserted to be an involutive diagram automorphism.
    """
    # imported here because weyl imports this module; involution_i stays in
    # this module, where perfbench/spans.py traces it
    from .weyl import longest_element

    w0 = longest_element(rd).perm
    perm = []
    for j in range(rd.rank):
        img = w0[rd.simple_root_index(j)]
        perm.append(rd.node_of_simple(rd.negative_index(img)))
    for a in range(rd.rank):
        if perm[perm[a]] != a:
            raise ConsistencyError("-w0 does not induce an involution")
        for b in range(rd.rank):
            if rd.cartan[perm[a]][perm[b]] != rd.cartan[a][b]:
                raise ConsistencyError("-w0 does not preserve the Cartan matrix")
    return tuple(perm)
