"""Root-subset calculus: Borels, parabolics, and the alternating recursion
that shrinks a pair of Borels to a pair of parabolics whose intersection
contains a Borel.

A Borel is one root from each opposite pair, closed under addition; a
parabolic is a closed subset containing at least one root of each pair.
"Sum" of subalgebras is realised as root-set union followed by closure; the
Cartan part is implicit and never stored.  Every Borel the recursion derives
is the Borel inside some parabolic nearest to a given Borel
(``nearest_borel``).

Whether a root set is a Borel is decided by the Weyl walk of
``borel_to_weyl``, which reaches exactly the Borels among the sets of one
root per opposite pair; no sum of roots is ever looked up.  Whether an
intersection of two parabolics holds a Borel is ``is_covering``: such an
intersection is closed, and a closed set covering every opposite pair is
parabolic (Bourbaki, Lie Groups and Lie Algebras, ch. VI §1.7, Prop. 20).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .rootsys import ConsistencyError, RootDatum
from .weyl import WeylElement, identity


class RootSubset:
    """A set of root indices over a fixed root datum; equality and hashing go
    through the identity of ``rd`` and ``indices``."""

    __slots__ = ("rd", "indices")

    def __init__(self, rd: RootDatum, indices: frozenset[int]):
        n = len(rd.roots)
        if indices and (min(indices) < 0 or max(indices) >= n):
            bad = sorted(i for i in indices if not 0 <= i < n)
            raise ValueError(f"root indices out of range: {bad}")
        self.rd, self.indices = rd, indices

    def __eq__(self, other) -> bool:
        if other.__class__ is not RootSubset:
            return NotImplemented
        return self.rd is other.rd and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.rd, self.indices))

    def __contains__(self, idx: int) -> bool:
        return idx in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __and__(self, other: "RootSubset") -> "RootSubset":
        return RootSubset(self.rd, self.indices & other.indices)

    def __or__(self, other: "RootSubset") -> "RootSubset":
        return RootSubset(self.rd, self.indices | other.indices)

    def __sub__(self, other: "RootSubset") -> "RootSubset":
        return RootSubset(self.rd, self.indices - other.indices)

    def __le__(self, other: "RootSubset") -> bool:
        return self.indices <= other.indices

    def negated(self) -> "RootSubset":
        return RootSubset(
            self.rd, frozenset(self.rd.negative_index(i) for i in self.indices)
        )

    def coords(self) -> list[tuple[int, ...]]:
        """Coordinate vectors, sorted; the canonical serialisation."""
        return sorted(self.rd.roots[i].coords for i in self.indices)

    def __repr__(self) -> str:
        return f"RootSubset({self.coords()})"

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.coords()]


def subset_of(rd: RootDatum, indices: Iterable[int]) -> RootSubset:
    return RootSubset(rd, frozenset(indices))


def standard_borel(rd: RootDatum) -> RootSubset:
    return RootSubset(rd, frozenset(range(rd.positive_count)))


def standard_parabolic_set(rd: RootDatum, marked: Iterable[int]) -> RootSubset:
    """Parabolic over the standard Borel with the given marked nodes: the
    positive roots and the negatives of every root that is a sum of
    unmarked simple roots."""
    marked = rd.check_nodes(marked)
    extra = frozenset(
        rd.negative_index(p)
        for p in range(rd.positive_count)
        if rd.roots[p].support.isdisjoint(marked)
    )
    return RootSubset(rd, frozenset(range(rd.positive_count)) | extra)


def nilradical_roots(rd: RootDatum, marked: Iterable[int]) -> RootSubset:
    """Positive roots outside the standard parabolic of ``marked``: those
    whose support meets the marks."""
    marked = rd.check_nodes(marked)
    return subset_of(
        rd, (i for i in range(rd.positive_count) if not rd.roots[i].support.isdisjoint(marked))
    )


def quotient_dimension(rd: RootDatum, p_nodes: Iterable[int]) -> int:
    """Dimension of G/P: positive roots whose support meets the marks."""
    return len(nilradical_roots(rd, p_nodes))


def apply_element(w: WeylElement, s: RootSubset) -> RootSubset:
    """The image ``w(s)`` of a root subset."""
    return RootSubset(s.rd, frozenset(map(w.perm.__getitem__, s.indices)))


def is_covering(rd: RootDatum, s: RootSubset) -> bool:
    """At least one of each opposite pair of roots is present."""
    return all(
        p in s.indices or rd.negative_index(p) in s.indices
        for p in range(rd.positive_count)
    )


def _one_per_pair(rd: RootDatum, s: RootSubset) -> bool:
    n = rd.positive_count
    # root p and its negative p + n share the residue p mod n, so n roots
    # meet every opposite pair once exactly when their residues are distinct
    return len(s) == n and len({i % n for i in s.indices}) == n


def nearest_borel(rd: RootDatum, q: RootSubset, c: RootSubset) -> RootSubset:
    """The Borel inside the parabolic ``q`` nearest to the Borel ``c``: the
    unique one sharing the most roots with ``c``, its projection onto ``q``.

    It keeps ``q``'s root on each opposite pair ``q`` holds once and ``c``'s
    root on each pair ``q`` holds with both signs: ``q & (c | -(c - q))``.
    """
    flipped = frozenset(map(rd.negative_index, c.indices - q.indices))
    return RootSubset(rd, q.indices & (c.indices | flipped))


def borel_to_weyl(rd: RootDatum, b: RootSubset) -> WeylElement:
    """The unique element sending the standard Borel to ``b``.

    The walk up from the identity takes ``x`` to ``x s_i`` whenever the
    simple root ``x(alpha_i)`` lies outside ``b``, so each step trades one
    root of the Borel ``x(B)`` for its negative, a root of ``b``.  A set of
    one root per opposite pair is a Borel exactly when this walk reaches it:
    reflections are automorphisms, so every set on the path is a Borel, and
    a Borel other than ``b`` always has such a simple root when ``b`` is one.
    """
    if _one_per_pair(rd, b):
        members = b.indices
        _, _, x = identity(rd).walk(lambda i, r: r not in members)
        if apply_element(x, standard_borel(rd)) == b:
            return x
    raise ValueError("not a Borel root set")


def is_borel(rd: RootDatum, s: RootSubset) -> bool:
    """Whether ``s`` is a Borel: whether the walk of ``borel_to_weyl``
    reaches it."""
    try:
        borel_to_weyl(rd, s)
    except ValueError:
        return False
    return True


def _absent_negatives(rd: RootDatum, x: WeylElement, s: RootSubset) -> frozenset[int]:
    """The nodes ``i`` whose root ``-x(alpha_i)`` is not in ``s``."""
    return frozenset(
        i
        for i in range(rd.rank)
        if rd.negative_index(x.perm[rd.simple_root_index(i)]) not in s.indices
    )


def sigma_of(rd: RootDatum, p: RootSubset, b: RootSubset) -> frozenset[int]:
    """Marked nodes of a parabolic relative to a contained Borel."""
    if not b <= p:
        raise ValueError("Borel is not contained in the parabolic")
    return _absent_negatives(rd, borel_to_weyl(rd, b), p)


def max_parabolic_pair(
    rd: RootDatum, b: RootSubset, bp: RootSubset
) -> tuple[RootSubset, RootSubset]:
    """The unique maximal parabolics over ``b`` and over ``bp`` inside the
    union ``b | bp``: drop exactly the simple roots whose negative is absent
    from the other Borel."""
    out = []
    for left, right in ((b, bp), (bp, b)):
        x = borel_to_weyl(rd, left)
        p = apply_element(x, standard_parabolic_set(rd, _absent_negatives(rd, x, right)))
        if not p <= (b | bp):
            raise ConsistencyError(
                "maximal parabolic escapes the Borel union",
                borel=left.coords(),
                parabolic=p.coords(),
            )
        out.append(p)
    return out[0], out[1]


def next_borels(
    rd: RootDatum,
    pn: RootSubset,
    ppn: RootSubset,
    bn: RootSubset,
    bpn: RootSubset,
) -> tuple[RootSubset, RootSubset]:
    """One step of the Borel update under a parabolic pair.

    Each next Borel is the Borel inside its own parabolic nearest to the
    Borel inside the other parabolic nearest to its previous Borel.  The
    output is asserted to be a Borel rather than assumed; a failure is
    reported with its full trace.
    """

    def step(p: RootSubset, q: RootSubset, prev: RootSubset) -> RootSubset:
        out = nearest_borel(rd, p, nearest_borel(rd, q, prev))
        if not is_borel(rd, out):
            raise ConsistencyError(
                "Borel update produced a non-Borel",
                p=p.coords(),
                q=q.coords(),
                previous=prev.coords(),
                produced=out.coords(),
            )
        return out

    if not (bn <= pn and bpn <= ppn):
        raise ValueError("Borels must sit inside their parabolics")
    return step(pn, ppn, bn), step(ppn, pn, bpn)


class ParabolicSequence(NamedTuple):
    """The full alternating run from a pair of Borels to a terminal pair of
    parabolics whose intersection contains a Borel, plus the Borel inside that
    intersection nearest to the last Borel."""

    borels: tuple[tuple[RootSubset, RootSubset], ...]
    parabolics: tuple[tuple[RootSubset, RootSubset], ...]
    terminal_index: int  # 1-based step at which the intersection covers
    final_borel: RootSubset


def parabolic_sequence(rd: RootDatum, b: RootSubset, bp: RootSubset) -> ParabolicSequence:
    """Iterate maximal-parabolic extraction and the Borel update until the
    parabolic intersection contains a Borel, then take the Borel inside the
    intersection nearest to the last Borel.

    Non-termination within ``positive_count`` steps would falsify the
    construction and raises loudly.
    """
    for name, s in (("first", b), ("second", bp)):
        if not is_borel(rd, s):
            raise ValueError(f"{name} argument is not a Borel")
    borels = [(b, bp)]
    parabolics = []
    terminal = None
    for n in range(1, rd.positive_count + 2):
        bn, bpn = borels[-1]
        pn, ppn = max_parabolic_pair(rd, bn, bpn)
        parabolics.append((pn, ppn))
        if is_covering(rd, pn & ppn):
            terminal = n
            break
        nb, nbp = next_borels(rd, pn, ppn, bn, bpn)
        if not len(nb | nbp) < len(bn | bpn):
            raise ConsistencyError(
                "Borel union failed to shrink strictly",
                step=n,
                before=len(bn | bpn),
                after=len(nb | nbp),
            )
        borels.append((nb, nbp))
    if terminal is None:
        raise ConsistencyError(
            "sequence did not terminate within positive_count steps"
        )
    bn, bpn = borels[-1]
    pn, ppn = parabolics[-1]
    meet = pn & ppn
    final = nearest_borel(rd, meet, bn)
    if not (is_borel(rd, final) and final <= meet):
        raise ConsistencyError(
            "final Borel is not a Borel inside the terminal intersection",
            final=final.coords(),
        )
    if not (bn & bp) <= (final & bp) or not (final & bp) <= (bpn & bp):
        raise ConsistencyError(
            "final Borel breaks the intersection chain",
            final=final.coords(),
        )
    return ParabolicSequence(tuple(borels), tuple(parabolics), terminal, final)


def chain_walk(
    rd: RootDatum,
    p: RootSubset,
    b_ref: RootSubset,
    b_from: RootSubset,
    b_to: RootSubset,
) -> tuple[list[RootSubset], list[int]]:
    """A path of Borels inside ``p`` from ``b_from`` to ``b_to``, one simple
    reflection per step, growing the intersection with ``b_ref`` by exactly
    one root each time; returned with the node of each step.  Each step flips
    a simple root ``r`` whose negative lies in ``b_ref & b_to``; at ``b_to``
    none does.  The step stays in ``p`` and gains exactly one root of
    ``b_ref`` exactly when ``-r`` lies in ``p`` and in ``b_ref`` and ``r``
    does not lie in ``b_ref``."""
    if not (b_from <= p and b_to <= p):
        raise ValueError("endpoint Borels must lie inside the parabolic")
    if not (b_from & b_ref) <= (b_to & b_ref):
        raise ValueError("reference intersections are not nested")
    target = (b_ref & b_to).negated().indices  # the negatives of the roots to gain
    nodes, flipped, _ = borel_to_weyl(rd, b_from).walk(lambda i, r: r in target)
    borels = [b_from]
    for r in flipped:
        neg = rd.negative_index(r)
        if neg not in p or neg not in b_ref or r in b_ref:
            raise ConsistencyError(
                "chain step violated its invariants", root=rd.roots[r].coords
            )
        borels.append(RootSubset(rd, (borels[-1].indices - {r}) | {neg}))
    if borels[-1] != b_to:
        raise ConsistencyError(
            "chain stuck before reaching the target Borel",
            at=borels[-1].coords(),
            target=b_to.coords(),
        )
    return borels, nodes

