"""Root-subset calculus: Borels, parabolics, and the alternating recursion
that shrinks a pair of Borels to a pair of parabolics whose intersection
contains a Borel.

A Borel is one root from each opposite pair, closed under addition; a
parabolic is a closed subset containing at least one root of each pair.
"Sum" of subalgebras is realised as root-set union followed by closure; the
Cartan part is implicit and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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


def closure(rd: RootDatum, indices: Iterable[int]) -> frozenset[int]:
    """Smallest superset closed under root addition."""
    sums = rd.sum_table()
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


def walk_borel(
    rd: RootDatum,
    b: RootSubset,
    x: WeylElement,
    pick: Callable[[int], bool],
    done: Callable[[frozenset[int]], bool],
) -> tuple[list[RootSubset], list[int], WeylElement]:
    """Walk the Borel ``b = x(B)`` one simple reflection at a time.

    Each step takes the smallest node ``i`` whose simple root ``x(alpha_i)``
    of the current Borel satisfies ``pick``, flips that root's sign and moves
    ``x`` to ``x s_i``, one longer or one shorter as ``x(alpha_i)`` is
    positive or negative.  The walk stops once ``done`` holds for the current
    root indices, or when no node qualifies; it returns the Borels passed,
    the node of each step and the element of the last Borel.
    """
    perms = rd.reflection_perms()
    simples = [rd.simple_root_index(i) for i in range(rd.rank)]
    n = rd.positive_count
    cur, perm, length = b.indices, x.perm, x.length
    borels, nodes = [b], []
    for _ in range(n + 1):
        if done(cur):
            break
        i = next((i for i, a in enumerate(simples) if pick(perm[a])), None)
        if i is None:
            break
        r = perm[simples[i]]
        cur = (cur - {r}) | {rd.negative_index(r)}
        perm = tuple(map(perm.__getitem__, perms[i]))
        length += 1 if r < n else -1
        borels.append(RootSubset(rd, cur))
        nodes.append(i)
    else:
        raise ConsistencyError("Borel walk did not terminate", borel=b.coords())
    return borels, nodes, WeylElement(rd, perm, length)


def borel_to_weyl(rd: RootDatum, b: RootSubset) -> WeylElement:
    """The unique element sending the standard Borel to ``b``.

    The walk up from the standard Borel reflects in a simple root whose
    negative lies in ``b``, so each step adds one root of ``b``.  A set of
    one root per opposite pair is a Borel exactly when this walk reaches it:
    reflections are automorphisms, so every set on the path is a Borel, and
    a Borel other than ``b`` always has such a simple root when ``b`` is one.
    """
    if _one_per_pair(rd, b):
        borels, _, x = walk_borel(
            rd, standard_borel(rd), identity(rd), b.negated().indices.__contains__, b.indices.__eq__
        )
        if borels[-1] == b:
            return x
    raise ValueError("not a Borel root set")


def simple_roots_of_borel(rd: RootDatum, b: RootSubset) -> tuple[int, ...]:
    """Root indices of the simple roots of ``b``, in node order."""
    w = borel_to_weyl(rd, b)
    return tuple(w.perm[rd.simple_root_index(i)] for i in range(rd.rank))


def sigma_of(rd: RootDatum, p: RootSubset, b: RootSubset) -> frozenset[int]:
    """Marked nodes of a parabolic relative to a contained Borel."""
    if not b <= p:
        raise ValueError("Borel is not contained in the parabolic")
    simples = simple_roots_of_borel(rd, b)
    return frozenset(
        i for i in range(rd.rank) if rd.negative_index(simples[i]) not in p
    )


def contains_borel(rd: RootDatum, s: RootSubset) -> Optional[RootSubset]:
    """A Borel inside a closed subset, or None when none fits.

    For pairs present with both signs the positive sign is taken; the
    one-sided part is forced.
    """
    witness = closed_violation(rd, s)
    if witness is not None:
        i, j, k = witness
        raise ValueError(
            f"subset not closed: {rd.roots[i].coords} + {rd.roots[j].coords} "
            f"= {rd.roots[k].coords} is missing"
        )
    if not is_covering(rd, s):
        return None
    chosen = set()
    for p in range(rd.positive_count):
        n = rd.negative_index(p)
        chosen.add(p if p in s.indices else n)
    out = RootSubset(rd, frozenset(chosen))
    if not is_borel(rd, out):
        raise ConsistencyError(
            "greedy Borel extraction failed", subset=s.coords(), chosen=out.coords()
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
        sigma = frozenset(
            i
            for i in range(rd.rank)
            if rd.negative_index(x.perm[rd.simple_root_index(i)]) not in right.indices
        )
        p = apply_element(x, standard_parabolic_set(rd, sigma))
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

    Membership of each root in the next Borel is decided by sign membership
    in the two parabolics, falling back to the previous Borel when both
    signs lie in both parabolics.  The output is asserted to be a Borel
    rather than assumed; a failure is reported with its full case trace.
    """

    def step(p: RootSubset, q: RootSubset, prev: RootSubset) -> RootSubset:
        chosen = set()
        for a in p.indices:
            na = rd.negative_index(a)
            if na not in p.indices:
                chosen.add(a)
            elif a in q.indices and na not in q.indices:
                chosen.add(a)
            elif a in q.indices and na in q.indices and a in prev.indices:
                chosen.add(a)
        out = RootSubset(rd, frozenset(chosen))
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


def align_borel(
    rd: RootDatum,
    b: RootSubset,
    p: RootSubset,
    pp: RootSubset,
    ref: RootSubset,
) -> RootSubset:
    """Reflect ``b`` (a Borel of ``p``) step by step until it lies inside
    ``pp`` as well, growing the intersection with ``ref`` along the way.

    Each step reflects in a simple root of the current Borel that ``pp``
    misses; ties take the smallest node index.
    """
    borels, _, _ = walk_borel(
        rd, b, borel_to_weyl(rd, b), lambda r: r not in pp.indices, pp.indices.issuperset
    )
    for cur, nxt in zip(borels, borels[1:]):
        (root,) = cur.indices - nxt.indices
        if rd.negative_index(root) not in p.indices:
            raise ConsistencyError(
                "reflection would leave the ambient parabolic",
                root=rd.roots[root].coords,
                parabolic=p.coords(),
            )
        if len(nxt & ref) != len(cur & ref) + 1:
            raise ConsistencyError(
                "alignment step did not grow the reference intersection",
                root=rd.roots[root].coords,
            )
    if not borels[-1] <= pp:
        raise ConsistencyError(
            "no admissible reflection although Borel escapes target",
            borel=borels[-1].coords(),
            target=pp.coords(),
        )
    return borels[-1]


@dataclass(frozen=True)
class ParabolicSequence:
    """The full alternating run from a pair of Borels to a terminal pair of
    parabolics whose intersection contains a Borel, plus the aligned Borel
    found inside that intersection."""

    rd: RootDatum
    borels: tuple[tuple[RootSubset, RootSubset], ...]
    parabolics: tuple[tuple[RootSubset, RootSubset], ...]
    terminal_index: int  # 1-based step at which the intersection covers
    final_borel: RootSubset

    def step_log(self) -> list[dict]:
        """Per-step summary: marked node sets and the size of B_n | B'_n."""
        out = []
        for n, ((bn, bpn), (pn, ppn)) in enumerate(
            zip(self.borels, self.parabolics), start=1
        ):
            out.append(
                {
                    "n": n,
                    "sigma_p": sorted(i + 1 for i in sigma_of(self.rd, pn, bn)),
                    "sigma_pprime": sorted(i + 1 for i in sigma_of(self.rd, ppn, bpn)),
                    "borel_union_size": len(bn | bpn),
                }
            )
        return out


def parabolic_sequence(rd: RootDatum, b: RootSubset, bp: RootSubset) -> ParabolicSequence:
    """Iterate maximal-parabolic extraction and the Borel update until the
    parabolic intersection contains a Borel, then align the last Borel into
    the intersection.

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
    final = align_borel(rd, bn, pn, ppn, bp)
    if not (bn & bp) <= (final & bp) or not (final & bp) <= (bpn & bp):
        raise ConsistencyError(
            "aligned Borel breaks the intersection chain",
            final=final.coords(),
        )
    return ParabolicSequence(rd, tuple(borels), tuple(parabolics), terminal, final)


def chain_walk(
    rd: RootDatum,
    p: RootSubset,
    b_ref: RootSubset,
    b_from: RootSubset,
    b_to: RootSubset,
) -> tuple[list[RootSubset], list[int]]:
    """A path of Borels inside ``p`` from ``b_from`` to ``b_to``, one simple
    reflection per step, growing the intersection with ``b_ref`` by exactly
    one root each time; returned with the node of each step."""
    if not (b_from <= p and b_to <= p):
        raise ValueError("endpoint Borels must lie inside the parabolic")
    if not (b_from & b_ref) <= (b_to & b_ref):
        raise ValueError("reference intersections are not nested")
    target = (b_ref & b_to).negated().indices  # the negatives of the roots to gain
    borels, nodes, _ = walk_borel(
        rd, b_from, borel_to_weyl(rd, b_from), target.__contains__, b_to.indices.__eq__
    )
    for cur, nxt in zip(borels, borels[1:]):
        if not nxt <= p or len(nxt & b_ref) != len(cur & b_ref) + 1:
            (root,) = cur.indices - nxt.indices
            raise ConsistencyError(
                "chain step violated its invariants", root=rd.roots[root].coords
            )
    if borels[-1] != b_to:
        raise ConsistencyError(
            "chain stuck before reaching the target Borel",
            at=borels[-1].coords(),
            target=b_to.coords(),
        )
    return borels, nodes

