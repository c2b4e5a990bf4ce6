"""Weyl group elements acting on the root list, Bruhat order, double cosets.

An element is the permutation it induces on the ambient root list; words
are recovered from the permutation on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .rootsys import Root, RootDatum, longest_element_perm

DEFAULT_MAX_WEYL = 10**6
MAX_WEYL_ENV = "LIE_MAX_WEYL"


def _max_weyl() -> int:
    raw = os.environ.get(MAX_WEYL_ENV)
    return int(raw) if raw else DEFAULT_MAX_WEYL


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element; equality and hashing go through ``perm``."""

    rd: RootDatum
    perm: tuple[int, ...]
    length: int = field(default=-1)

    def __post_init__(self):
        if self.length < 0:
            n = self.rd.positive_count
            object.__setattr__(
                self, "length", sum(1 for p in range(n) if self.perm[p] >= n)
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rd is other.rd
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash((id(self.rd), self.perm))

    def __repr__(self) -> str:
        word = " ".join(str(i + 1) for i in self.reduced_word()) or "e"
        return f"WeylElement({word})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rd is not other.rd:
            raise ValueError("elements of different root systems")
        return WeylElement(self.rd, tuple(map(self.perm.__getitem__, other.perm)))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for r, img in enumerate(self.perm):
            inv[img] = r
        return WeylElement(self.rd, tuple(inv), self.length)

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word recovered from the permutation.

        Repeatedly strips the smallest right descent, so the result is
        deterministic for a given element.
        """
        rd = self.rd
        out = []
        cur = self
        while cur.length:
            i = next(
                i
                for i in range(rd.rank)
                if not rd.is_positive_index(cur.perm[rd.simple_root_index(i)])
            )
            cur = cur * simple_reflection(rd, i)
            out.append(i)
        return tuple(reversed(out))


def identity(rd: RootDatum) -> WeylElement:
    return WeylElement(rd, tuple(range(len(rd.roots))), 0)


def simple_reflection(rd: RootDatum, i: int) -> WeylElement:
    rd.check_nodes((i,))
    return WeylElement(rd, rd.reflection_perms()[i], 1)


def from_word(rd: RootDatum, word: Sequence[int]) -> WeylElement:
    """Element ``s_{word[0]} s_{word[1]} ...`` (leftmost factor acts last)."""
    w = identity(rd)
    for i in word:
        w = w * simple_reflection(rd, i)
    return w


def act_on_root(w: WeylElement, gamma: Root) -> Root:
    """Image of a root under the element's permutation action."""
    return w.rd.roots[w.perm[w.rd.index_of(gamma)]]


def longest_element(rd: RootDatum) -> WeylElement:
    """The unique element sending every positive root to a negative one."""
    w = WeylElement(rd, longest_element_perm(rd))
    if w.length != rd.positive_count:
        raise AssertionError("longest element has wrong length")
    return w


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order, by walking down the left descents of ``w``: when
    ``s w < w``, ``u <= w`` exactly when ``min(u, s u) <= s w``."""
    if u.rd is not w.rd:
        raise ValueError("elements of different root systems")
    rd = u.rd
    refl = rd.reflection_perms()
    simples = [rd.simple_root_index(i) for i in range(rd.rank)]
    n = rd.positive_count
    up, wp, ul, wl = u.perm, w.perm, u.length, w.length
    while up != wp:
        if ul >= wl:
            return False
        # s_i is a left descent of an element v when v^-1(alpha_i) is negative
        i = next(i for i, a in enumerate(simples) if wp.index(a) >= n)
        wp, wl = tuple(map(refl[i].__getitem__, wp)), wl - 1
        if up.index(simples[i]) >= n:
            up, ul = tuple(map(refl[i].__getitem__, up)), ul - 1
    return True


@lru_cache(maxsize=None)
def weyl_group(rd: RootDatum) -> tuple[WeylElement, ...]:
    """Every element, by breadth-first closure; capped by LIE_MAX_WEYL."""
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


@dataclass(frozen=True)
class CosetOrbit:
    """One orbit of W under left/right multiplication by two node sets.

    ``left_nodes`` act by left multiplication and ``right_nodes`` by right
    multiplication, matching the convention that keeps orbit dimension
    constant on each orbit downstream.
    """

    representative: WeylElement
    members: frozenset[WeylElement]
    left_nodes: frozenset[int]
    right_nodes: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


def double_coset_orbits(
    rd: RootDatum,
    p_nodes: Iterable[int],
    pprime_nodes: Iterable[int],
) -> list[CosetOrbit]:
    """Partition W into W(P)-left x W(P')-right orbits.

    The node sets are the generator indices of the two reflection subgroups.
    Orbits come back sorted by their minimal-length representative.
    """
    left = frozenset(p_nodes)
    right = frozenset(pprime_nodes)
    rd.check_nodes(left | right)
    everyone = weyl_group(rd)
    lgens = [simple_reflection(rd, i) for i in sorted(left)]
    rgens = [simple_reflection(rd, i) for i in sorted(right)]
    unvisited = {w.perm: w for w in everyone}
    orbits = []
    for w in everyone:
        if w.perm not in unvisited:
            continue
        members = {w}
        frontier = [w]
        del unvisited[w.perm]
        while frontier:
            fresh = []
            for g in frontier:
                for nxt in [s * g for s in lgens] + [g * s for s in rgens]:
                    if nxt.perm in unvisited:
                        del unvisited[nxt.perm]
                        members.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
        rep = min(members, key=lambda g: (g.length, g.perm))
        orbits.append(CosetOrbit(rep, frozenset(members), left, right))
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
