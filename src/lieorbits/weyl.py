"""Weyl group elements acting on the root list, Bruhat order, double cosets.

An element is the permutation it induces on the ambient root list; words
are recovered from the permutation on demand.  Double cosets are read off
the W-orbit of a weight in fundamental-weight coordinates, so W itself is
never enumerated.  ``weyl_group`` does enumerate it; the library never calls
it, but the tests use it as an oracle and the benchmark's trace wraps it.
"""

from __future__ import annotations

import os
from functools import cache, partial
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .rootsys import ConsistencyError, RootDatum

DEFAULT_MAX_WEYL = 10**6
MAX_WEYL_ENV = "LIE_MAX_WEYL"


def _max_weyl() -> int:
    raw = os.environ.get(MAX_WEYL_ENV)
    if not raw:
        return DEFAULT_MAX_WEYL
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{MAX_WEYL_ENV} must be a positive integer, got {raw!r}")
    return cap


class WeylElement:
    """A Weyl group element; equality and hashing go through the identity of
    ``rd`` and ``perm``.  ``length`` is counted when not given and is not
    compared."""

    __slots__ = ("rd", "perm", "length")

    def __init__(self, rd: RootDatum, perm: tuple[int, ...], length: int = -1):
        if length < 0:
            n = rd.positive_count
            length = sum(1 for p in range(n) if perm[p] >= n)
        self.rd, self.perm, self.length = rd, perm, length

    def __eq__(self, other) -> bool:
        if other.__class__ is not WeylElement:
            return NotImplemented
        return self.rd is other.rd and self.perm == other.perm

    def __hash__(self) -> int:
        return hash((self.rd, self.perm))

    def __repr__(self) -> str:
        word = " ".join(map(str, self.reduced_word())) or "e"
        return f"WeylElement({word})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rd is not other.rd:
            raise ValueError("elements of different root systems")
        return WeylElement(self.rd, tuple(map(self.perm.__getitem__, other.perm)))

    def times(self, i: int) -> "WeylElement":
        """``w s_i``, one longer or one shorter as ``w(alpha_i)`` is positive
        or negative; ``i`` is not range-checked."""
        rd = self.rd
        step = 1 if self.perm[rd.simple_root_index(i)] < rd.positive_count else -1
        perm = tuple(map(self.perm.__getitem__, rd.reflection_perms()[i]))
        return WeylElement(rd, perm, self.length + step)

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for r, img in enumerate(self.perm):
            inv[img] = r
        return WeylElement(self.rd, tuple(inv), self.length)

    def walk(
        self, pick: Callable[[int, int], bool]
    ) -> tuple[list[int], list[int], "WeylElement"]:
        """Step from ``w`` to ``w s_i`` while some node ``i`` has
        ``pick(i, w(alpha_i))``, always taking the smallest such ``i``.

        Returns the node of each step, the root ``w(alpha_i)`` it flipped and
        the last element.  Each step is one longer or one shorter as
        ``w(alpha_i)`` is positive or negative.
        """
        rd = self.rd
        # times_s[i](perm) is the tuple of w s_i (every root system has two roots or more)
        times_s = [itemgetter(*s) for s in rd.reflection_perms()]
        simples = [rd.simple_root_index(i) for i in range(rd.rank)]
        n = rd.positive_count
        perm, length = self.perm, self.length
        nodes, roots = [], []
        for _ in range(n + 1):
            i = next((i for i, a in enumerate(simples) if pick(i, perm[a])), None)
            if i is None:
                return nodes, roots, WeylElement(rd, perm, length)
            r = perm[simples[i]]
            perm = times_s[i](perm)
            length += 1 if r < n else -1
            nodes.append(i)
            roots.append(r)
        raise ConsistencyError("Weyl walk did not terminate", start=self.reduced_word())

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word recovered from the permutation.

        Repeatedly strips the smallest right descent, so the result is
        deterministic for a given element.
        """
        n = self.rd.positive_count
        nodes, _, _ = self.walk(lambda i, r: r >= n)
        return tuple(reversed(nodes))


def identity(rd: RootDatum) -> WeylElement:
    return WeylElement(rd, tuple(range(len(rd.roots))), 0)


def simple_reflection(rd: RootDatum, i: int) -> WeylElement:
    rd.check_nodes((i,))
    return WeylElement(rd, rd.reflection_perms()[i], 1)


def from_word(rd: RootDatum, word: Sequence[int]) -> WeylElement:
    """Element ``s_{word[0]} s_{word[1]} ...`` (leftmost factor acts last)."""
    rd.check_nodes(word)
    w = identity(rd)
    for i in word:
        w = w.times(i)
    return w


def longest_element(rd: RootDatum) -> WeylElement:
    """The unique element sending every positive root to a negative one,
    walked up from the identity through the smallest ascent."""
    n = rd.positive_count
    _, _, w = identity(rd).walk(lambda i, r: r < n)
    if w.length != n:
        raise ConsistencyError("longest element has wrong length")
    return w


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order, by walking down the right descents of ``w``: when
    ``w s < w``, ``u <= w`` exactly when ``min(u, u s) <= w s``.  ``s_i`` is a
    right descent of ``v`` when ``v(alpha_i)`` is negative."""
    if u.rd is not w.rd:
        raise ValueError("elements of different root systems")
    rd = u.rd
    simples = [rd.simple_root_index(i) for i in range(rd.rank)]
    n = rd.positive_count
    while u != w:
        if u.length >= w.length:
            return False
        i = next(i for i, a in enumerate(simples) if w.perm[a] >= n)
        w = w.times(i)
        if u.perm[simples[i]] >= n:
            u = u.times(i)
    return True


def weyl_group(rd: RootDatum) -> tuple[WeylElement, ...]:
    """Every element, by breadth-first closure; capped by LIE_MAX_WEYL.

    A test oracle: nothing in the library enumerates W.
    """
    cap = _max_weyl()
    gens = [simple_reflection(rd, i) for i in range(rd.rank)]
    e = identity(rd)
    seen = {e.perm: e}
    frontier = [e]
    while frontier:
        fresh = []
        for w in frontier:
            for s in gens:
                nxt = w * s
                if nxt.perm not in seen:
                    if len(seen) >= cap:
                        raise ValueError(
                            f"Weyl group larger than cap {cap}; raise {MAX_WEYL_ENV}"
                        )
                    seen[nxt.perm] = nxt
                    fresh.append(nxt)
        frontier = fresh
    return tuple(sorted(seen.values(), key=lambda w: (w.length, w.perm)))


_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def weyl_order(lie_type: str, rank: int) -> int:
    """|W| of a simple type, from the classical formulas."""
    if lie_type == "A":
        return factorial(rank + 1)
    if lie_type in ("B", "C"):
        return 2**rank * factorial(rank)
    if lie_type == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_ORDERS[lie_type, rank]


def parabolic_order(rd: RootDatum, nodes: Iterable[int]) -> int:
    """Order of the subgroup generated by the simple reflections of ``nodes``:
    the product of (ht b + 1) / ht b over the positive roots b supported on
    ``nodes`` (Kostant 1959; Macdonald 1972)."""
    nodes = rd.check_nodes(nodes)
    heights = [r.height for r in rd.roots[: rd.positive_count] if r.support <= nodes]
    return prod(h + 1 for h in heights) // prod(heights)


def double_coset_minimum(
    w: WeylElement, left: Iterable[int], right: Iterable[int]
) -> WeylElement:
    """The minimal element of ``W_left · w · W_right``: strip the right
    descents in ``right``, then the left descents in ``left`` off the inverse.
    A suffix of a minimal element of ``w W_right`` is minimal too, so no right
    descent comes back, and the element with neither is unique."""
    rd = w.rd
    left, right = rd.check_nodes(left), rd.check_nodes(right)
    n = rd.positive_count
    _, _, u = w.walk(lambda j, r: j in right and r >= n)
    _, _, v = u.inverse().walk(lambda i, r: i in left and r >= n)
    return v.inverse()


class CosetOrbit(NamedTuple):
    """One double coset W_I·w·W_J: its minimal-length representative and
    its size."""

    representative: WeylElement
    size: int


def double_coset_orbits(
    rd: RootDatum,
    left: Iterable[int],
    right: Iterable[int],
) -> list[CosetOrbit]:
    """Partition W into double cosets W_I·w·W_J, without building W.

    The node sets I = ``left`` and J = ``right`` are the generator indices
    of the two reflection subgroups.  The weight ``lam`` = sum of the
    fundamental weights outside J has stabiliser W_J, so the cosets w·W_J
    are the weights of the orbit W·lam, and each double coset W_I·w·W_J
    holds exactly one I-dominant weight ``mu`` (``mu[i] >= 0`` for i in I).
    The orbit is walked level by level in fundamental-weight coordinates;
    LIE_MAX_WEYL caps the weights visited.  For each I-dominant ``mu`` the
    descent walk back to ``lam`` spells the double coset's minimal element,
    and the size is |W_I|·|W_J| / |W_K| with K the nodes of I where ``mu``
    vanishes (Kilmoyer).  Orbits come back sorted by their minimal-length
    representative.
    """
    left = rd.check_nodes(left)
    right = rd.check_nodes(right)
    rank = rd.rank
    # column i of the Cartan matrix is alpha_i in fundamental-weight
    # coordinates; s_i only changes the coordinates where it is nonzero
    alphas = [
        [(j, row[i]) for j, row in enumerate(rd.cartan) if row[i]] for i in range(rank)
    ]

    def reflect(mu: tuple[int, ...], i: int) -> tuple[int, ...]:
        c, out = mu[i], list(mu)
        for j, a in alphas[i]:
            out[j] -= c * a
        return tuple(out)

    lam = tuple(0 if j in right else 1 for j in range(rank))
    cap = _max_weyl()
    visited = 0
    level, dominant = {lam}, []
    while level:
        visited += len(level)
        if visited > cap:
            raise ValueError(
                f"W-orbit of the weight larger than cap {cap}; raise {MAX_WEYL_ENV}"
            )
        dominant += [mu for mu in level if all(mu[i] >= 0 for i in left)]
        level = {reflect(mu, i) for mu in level for i in range(rank) if mu[i] > 0}

    order = cache(partial(parabolic_order, rd))
    both = order(left) * order(right)
    orbits = []
    for mu in dominant:
        size = both // order(frozenset(i for i in left if mu[i] == 0))
        word = []
        while mu != lam:
            i = next(i for i, c in enumerate(mu) if c < 0)
            mu = reflect(mu, i)
            word.append(i)
        orbits.append(CosetOrbit(from_word(rd, word), size))
    orbits.sort(key=lambda o: (o.representative.length, o.representative.perm))
    return orbits


def permutation_to_word(one_line: Sequence[int]) -> tuple[int, ...]:
    """Reduced word (0-based letters) of the type-A element with the given
    one-line form over ``1..n+1``.

    The one-line vector is reduced to the identity by right-multiplying
    adjacent transpositions acting on positions; the element is the inverse
    product of the strips.
    """
    n = len(one_line)
    if sorted(one_line) != list(range(1, n + 1)):
        raise ValueError(f"{one_line!r} is not a permutation of 1..{n}")
    p = list(one_line)
    taken = []
    while True:
        d = next((i for i in range(n - 1) if p[i] > p[i + 1]), None)
        if d is None:
            break
        p[d], p[d + 1] = p[d + 1], p[d]
        taken.append(d)
    return tuple(reversed(taken))
