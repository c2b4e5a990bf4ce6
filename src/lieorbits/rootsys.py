"""Reduced root systems of the simple Lie types, with exact integer arithmetic.

Roots are stored as integer coordinate vectors in the simple-root basis.
The Cartan matrix is oriented as ``cartan[i][j] = <alpha_j, alphacheck_i>``,
so the pairing of a root ``gamma`` against the coroot of node ``j`` is
``sum(cartan[j][i] * gamma[i])``.  Node indices are 0-based throughout the
library; only the CLI speaks 1-based.

The library's two exceptions live here, the module every other one
imports, so the CLI can catch them without loading more: ``ConsistencyError``
(an internal invariant failed) and ``DomainRefusal`` (a quantity that is
undefined without its hypothesis, such as a curve on a point).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

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
#: most roots a classical type may have; its reflection tables hold rank x roots entries
MAX_ROOTS = 25_000


class ConsistencyError(RuntimeError):
    """An internal invariant failed; carries the offending data."""

    def __init__(self, message: str, **trace):
        detail = "; ".join(f"{k}={v}" for k, v in sorted(trace.items()))
        super().__init__(f"{message} [{detail}]" if detail else message)
        self.trace = trace


class DomainRefusal(ValueError):
    """The requested quantity is undefined without its hypothesis."""


class Root:
    """A root, as integer coefficients over the simple roots; equality and
    hashing go through ``coords``."""

    def __init__(self, coords: tuple[int, ...]):
        self.coords = coords

    def __eq__(self, other) -> bool:
        return self.coords == other.coords if other.__class__ is Root else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Root(coords={self.coords!r})"

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
    count = {"A": rank * (rank + 1), "B": 2 * rank**2, "C": 2 * rank**2, "D": 2 * rank * (rank - 1)}
    if count.get(lie_type, 0) > MAX_ROOTS:
        raise ValueError(
            f"type {lie_type}{rank} has {count[lie_type]} roots, over the limit {MAX_ROOTS}"
        )


def _reflection_walk(
    cartan: Sequence[Sequence[int]],
) -> tuple[dict[tuple[int, ...], int], list[int]]:
    """Walk the roots breadth first from the simple roots by simple reflections.

    Returns ``(index, moves)``.  ``index`` maps the coordinates of every root
    reached to its id, numbered in the order the walk meets them.  ``moves``
    is flat, three ints ``r, i, k`` per move: the reflection of node ``i``
    sends root ``r`` to root ``k``; every other simple reflection fixes root
    ``r``.  Each root of the frontier carries its weight coordinates
    ``p_i = <c, alphacheck_i>``, so a step by ``s_i`` is taken only where
    ``p_i != 0``: it lowers coordinate ``i`` of ``c`` by ``p_i`` and changes
    only the entries of ``p`` where column ``i`` of the Cartan matrix is
    nonzero.
    """
    rank = len(cartan)
    # column i of the Cartan matrix is alpha_i in weight coordinates
    columns = [[(k, row[i]) for k, row in enumerate(cartan) if row[i]] for i in range(rank)]
    index: dict[tuple[int, ...], int] = {}
    moves: list[int] = []
    frontier = []
    for i in range(rank):
        c = tuple(1 if k == i else 0 for k in range(rank))
        index[c] = i
        frontier.append((i, c, [row[i] for row in cartan]))
    while frontier:
        fresh = []
        for r, c, p in frontier:
            for i, x in enumerate(p):
                if x:
                    img = c[:i] + (c[i] - x,) + c[i + 1 :]
                    n = len(index)
                    k = index.setdefault(img, n)
                    moves += (r, i, k)
                    if k == n:
                        q = p.copy()
                        for j, a in columns[i]:
                            q[j] -= x * a
                        fresh.append((k, img, q))
        frontier = fresh
    return index, moves


class RootDatum:
    """All roots of one simple type, with pairings and lookup tables.

    Built from the Cartan matrix by one reflection walk
    (``_reflection_walk``), which yields both the roots and the reflection
    permutations.  Immutable after construction: every table is filled in
    ``__init__``.  Instances compare by identity and may be shared freely.
    """

    def __init__(self, lie_type: str, rank: int, cartan):
        self.lie_type = lie_type
        self.rank = rank
        self.cartan = cartan
        index, moves = _reflection_walk(cartan)
        positives = sorted(
            (c for c in index if all(x >= 0 for x in c)),
            key=lambda c: (sum(c), c),
        )
        for c in index:
            if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
                raise ConsistencyError(f"mixed-sign vector generated: {c}")
        if 2 * len(positives) != len(index):
            raise ConsistencyError("positives do not account for half the roots")
        # positives sorted by height then coordinates, negatives mirrored
        roots = positives + [tuple(-x for x in c) for c in positives]
        self.roots = tuple(Root(c) for c in roots)
        self.positive_count = len(positives)
        self.root_index = {c: i for i, c in enumerate(roots)}
        position = [0] * len(roots)
        for c, r in index.items():
            position[r] = self.root_index[c]
        # the walk numbers the simple roots 0..rank-1 in node order
        self._simple_index = dict(enumerate(position[:rank]))
        # copies of one list share their int objects, which above 256 are
        # not cached
        ids = list(range(len(roots)))
        perms = [ids.copy() for _ in range(rank)]
        step = iter(moves)
        for r, i, k in zip(step, step, step):
            perms[i][position[r]] = position[k]
        # one list at a time, so the lists and their tuples never all coexist
        for i in range(rank):
            perms[i] = tuple(perms[i])
        self._reflections = tuple(perms)

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

    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """Permutation of the root list induced by each simple reflection,
        filled at construction from the moves of the reflection walk; every
        entry the walk does not move is a fixed point."""
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
    return RootDatum(lie_type, rank, cartan_matrix(lie_type, rank))


class DiagramComponent(NamedTuple):
    """A connected piece of the Dynkin diagram after deleting nodes, with the
    marks it holds; ``marked[k]`` pairs with ``marked_std[k]``."""

    lie_type: str
    rank: int
    nodes: tuple[int, ...]  # original node labels, ascending
    relabel: tuple[tuple[int, int], ...]  # (original node, standard node)
    marked: tuple[int, ...] = ()  # original labels of the marks, by standard label
    marked_std: tuple[int, ...] = ()  # their standard labels, ascending


def _relabellings(sub, std, perm: tuple[int, ...] = ()):
    """Every relabelling ``perm`` with ``sub[a][b] == std[perm[a]][perm[b]]``
    for every pair, in lexicographic order.  A partial relabelling is
    extended only while every pair it assigns matches."""
    a = len(perm)
    if a == len(sub):
        yield perm
        return
    for image in range(len(sub)):
        if image not in perm and all(
            sub[a][b] == std[image][perm[b]] and sub[b][a] == std[perm[b]][image]
            for b in range(a)
        ):
            yield from _relabellings(sub, std, perm + (image,))


def classify_subdiagram(rd: RootDatum, nodes: Sequence[int]) -> DiagramComponent:
    """Identify the simple type of a connected induced subdiagram.

    The identity relabelling (ascending original labels) is preferred over
    permuted ones so that e.g. an untouched C2 reports as C2 rather than the
    isomorphic B2; after it, the first relabelling in lexicographic order
    of the first type that has one.
    """
    nodes = tuple(sorted(nodes))
    k = len(nodes)
    sub = tuple(tuple(rd.cartan[a][b] for b in nodes) for a in nodes)
    candidates = [
        (t, cartan_matrix(t, k))
        for t, (lo, hi) in RANK_RULES.items()
        if lo <= k and (hi is None or k <= hi)
    ]
    for t, std in candidates:
        if sub == std:
            return DiagramComponent(t, k, nodes, tuple(zip(nodes, range(k))))
    for t, std in candidates:
        for perm in _relabellings(sub, std):
            return DiagramComponent(t, k, nodes, tuple(zip(nodes, perm)))
    raise ConsistencyError(f"subdiagram on nodes {nodes} is not of simple type")


def diagram_components_after_removal(
    rd: RootDatum, removed: Iterable[int], marked: Iterable[int] = ()
) -> list[DiagramComponent]:
    """Connected components of the Dynkin diagram minus ``removed``, each with
    the ``marked`` nodes it holds (``marked[k]`` pairs with ``marked_std[k]``)."""
    removed = rd.check_nodes(removed)
    marked = rd.check_nodes(marked)
    adj = rd.adjacency()
    seen = set(removed)
    components = []
    for start in range(rd.rank):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for cur in comp:  # breadth first: comp grows while it is walked
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.append(nxt)
        piece = classify_subdiagram(rd, comp)
        held = sorted((std, j) for j, std in piece.relabel if j in marked)
        std, orig = zip(*held) if held else ((), ())
        components.append(piece._replace(marked=orig, marked_std=std))
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
