"""Root-subset calculus: Borels, parabolics, and the alternating recursion
that shrinks a pair of Borels to a pair of parabolics whose intersection
contains a Borel.

A Borel is one root from each opposite pair, closed under addition; a
parabolic is a closed subset containing at least one root of each pair.
"Sum" of subalgebras is realised as root-set union followed by closure; the
Cartan part is implicit and never stored.  Every Borel the recursion derives
is the Borel inside some parabolic nearest to a given Borel
(``nearest_borel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .rootsys import ConsistencyError, RootDatum
from .weyl import WeylElement, identity


@dataclass(frozen=True)
class RootSubset:
    """A set of root indices over a fixed root datum."""

    rd: RootDatum
    indices: frozenset[int]

    def __post_init__(self):
        n = len(self.rd.roots)
        if self.indices and (min(self.indices) < 0 or max(self.indices) >= n):
            bad = sorted(i for i in self.indices if not 0 <= i < n)
            raise ValueError(f"root indices out of range: {bad}")

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


def apply_element(w: WeylElement, s: RootSubset) -> RootSubset:
    """The image ``w(s)`` of a root subset."""
    return RootSubset(s.rd, frozenset(map(w.perm.__getitem__, s.indices)))


def closed_violation(rd: RootDatum, s: RootSubset) -> Optional[tuple[int, int, int]]:
    """A witness (i, j, i+j) that the subset is not closed, if any."""
    sums = rd.sum_table()
    members = s.indices
    for i in members:
        for j, k in sums[i].items():
            if j in members and k not in members:
                return (i, j, k)
    return None


def is_closed(rd: RootDatum, s: RootSubset) -> bool:
    return closed_violation(rd, s) is None


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


def is_borel(rd: RootDatum, s: RootSubset) -> bool:
    return _one_per_pair(rd, s) and is_closed(rd, s)


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


def simple_roots_of_borel(rd: RootDatum, b: RootSubset) -> tuple[int, ...]:
    """Root indices of the simple roots of ``b``, in node order."""
    w = borel_to_weyl(rd, b)
    return tuple(w.perm[rd.simple_root_index(i)] for i in range(rd.rank))


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


@dataclass(frozen=True)
class ParabolicSequence:
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
    a simple root whose negative lies in ``b_ref & b_to``; at ``b_to`` none does."""
    if not (b_from <= p and b_to <= p):
        raise ValueError("endpoint Borels must lie inside the parabolic")
    if not (b_from & b_ref) <= (b_to & b_ref):
        raise ValueError("reference intersections are not nested")
    target = (b_ref & b_to).negated().indices  # the negatives of the roots to gain
    nodes, flipped, _ = borel_to_weyl(rd, b_from).walk(lambda i, r: r in target)
    borels = [b_from]
    for r in flipped:
        cur = borels[-1]
        nxt = RootSubset(rd, (cur.indices - {r}) | {rd.negative_index(r)})
        if not nxt <= p or len(nxt & b_ref) != len(cur & b_ref) + 1:
            raise ConsistencyError(
                "chain step violated its invariants", root=rd.roots[r].coords
            )
        borels.append(nxt)
    if borels[-1] != b_to:
        raise ConsistencyError(
            "chain stuck before reaching the target Borel",
            at=borels[-1].coords(),
            target=b_to.coords(),
        )
    return borels, nodes

