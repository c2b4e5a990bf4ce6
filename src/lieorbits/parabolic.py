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
from typing import Iterable, Optional, Sequence

from .rootsys import RootDatum
from .weyl import WeylElement


class ConsistencyError(RuntimeError):
    """An internal invariant failed; carries the offending data."""

    def __init__(self, message: str, **trace):
        detail = "; ".join(f"{k}={v}" for k, v in sorted(trace.items()))
        super().__init__(f"{message} [{detail}]" if detail else message)
        self.trace = trace


@dataclass(frozen=True, eq=False)
class RootSubset:
    """A set of root indices over a fixed root datum."""

    rd: RootDatum
    indices: frozenset[int]

    def __post_init__(self):
        n = len(self.rd.roots)
        if self.indices and (min(self.indices) < 0 or max(self.indices) >= n):
            bad = sorted(i for i in self.indices if not 0 <= i < n)
            raise ValueError(f"root indices out of range: {bad}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSubset)
            and self.rd is other.rd
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.rd), self.indices))

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

    @classmethod
    def from_json(cls, rd: RootDatum, data: Sequence[Sequence[int]]) -> "RootSubset":
        return cls(rd, frozenset(rd.root_index[tuple(c)] for c in data))


def subset_of(rd: RootDatum, indices: Iterable[int]) -> RootSubset:
    return RootSubset(rd, frozenset(indices))


def standard_borel(rd: RootDatum) -> RootSubset:
    return RootSubset(rd, frozenset(range(rd.positive_count)))


def standard_parabolic_set(rd: RootDatum, marked: Iterable[int]) -> RootSubset:
    """Parabolic over the standard Borel with the given marked nodes."""
    return parabolic_from_nodes(rd, frozenset(marked), standard_borel(rd))


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


def is_borel(rd: RootDatum, s: RootSubset) -> bool:
    n = rd.positive_count
    if len(s) != n:
        return False
    # root p and its negative p + n share the residue p mod n, so n roots
    # meet every opposite pair once exactly when their residues are distinct
    one_per_pair = len({i % n for i in s.indices}) == n
    return one_per_pair and is_closed(rd, s)


def is_parabolic(rd: RootDatum, s: RootSubset) -> bool:
    return is_closed(rd, s) and is_covering(rd, s)


def borel_to_weyl(rd: RootDatum, b: RootSubset) -> WeylElement:
    """The unique element sending the standard Borel to ``b``."""
    if not is_borel(rd, b):
        raise ValueError("not a Borel root set")
    perms = rd.reflection_perms()
    neg_simples = [rd.negative_index(rd.simple_root_index(i)) for i in range(rd.rank)]
    cur = set(b.indices)
    # reflecting in s_{l_1}, s_{l_2}, ... walks b down to the standard Borel,
    # so the element is s_{l_1} s_{l_2} ..., one letter per negative root of b
    perm = tuple(range(len(rd.roots)))
    length = 0
    for _ in range(rd.positive_count + 1):
        i = next((i for i, r in enumerate(neg_simples) if r in cur), None)
        if i is None:
            break
        s = perms[i]
        cur = set(map(s.__getitem__, cur))
        perm = tuple(map(perm.__getitem__, s))
        length += 1
    else:
        raise ConsistencyError("Borel did not normalise", borel=b.coords())
    return WeylElement(rd, perm, length)


def simple_roots_of_borel(rd: RootDatum, b: RootSubset) -> tuple[int, ...]:
    """Root indices of the simple roots of ``b``, in node order."""
    w = borel_to_weyl(rd, b)
    return tuple(w.perm[rd.simple_root_index(i)] for i in range(rd.rank))


def parabolic_from_nodes(rd: RootDatum, sigma: Iterable[int], b: RootSubset) -> RootSubset:
    """Parabolic over ``b`` marked by ``sigma``: keep ``b`` and adjoin the
    negatives of every root that is a sum of unmarked simple roots of ``b``."""
    sigma = frozenset(sigma)
    for i in sigma:
        if not 0 <= i < rd.rank:
            raise ValueError(f"node index {i} out of range 0..{rd.rank - 1}")
    w = borel_to_weyl(rd, b)
    extra = frozenset(
        rd.negative_index(p)
        for p in range(rd.positive_count)
        if rd.roots[p].support.isdisjoint(sigma)
    )
    std = RootSubset(rd, frozenset(range(rd.positive_count)) | extra)
    return apply_element(w, std) if w.length else std


def sigma_of(rd: RootDatum, p: RootSubset, b: RootSubset) -> frozenset[int]:
    """Marked nodes of a parabolic relative to a contained Borel."""
    if not b <= p:
        raise ValueError("Borel is not contained in the parabolic")
    simples = simple_roots_of_borel(rd, b)
    return frozenset(
        i for i in range(rd.rank) if rd.negative_index(simples[i]) not in p
    )


def contains_borel(
    rd: RootDatum, s: RootSubset, reference: Optional[RootSubset] = None
) -> Optional[RootSubset]:
    """A Borel inside a closed subset, or None when none fits.

    For pairs present with both signs, the sign lying in ``reference`` is
    taken when one is supplied, else the positive sign; the one-sided part
    is forced.
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
        has_p, has_n = p in s.indices, n in s.indices
        if has_p and has_n:
            if reference is not None:
                chosen.add(p if p in reference.indices else n)
            else:
                chosen.add(p)
        else:
            chosen.add(p if has_p else n)
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
        simples = simple_roots_of_borel(rd, left)
        sigma = frozenset(
            i
            for i in range(rd.rank)
            if rd.negative_index(simples[i]) not in right.indices
        )
        p = parabolic_from_nodes(rd, sigma, left)
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


def _reflect_by_own_simple(rd: RootDatum, b: RootSubset, root_idx: int) -> RootSubset:
    # reflecting a Borel in one of its simple roots only swaps that root's sign
    return RootSubset(
        rd,
        (b.indices - {root_idx}) | {rd.negative_index(root_idx)},
    )


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
    cur = b
    for _ in range(rd.positive_count + 1):
        if cur <= pp:
            return cur
        simples = simple_roots_of_borel(rd, cur)
        pick = next(
            (
                simples[i]
                for i in range(rd.rank)
                if simples[i] not in pp.indices
            ),
            None,
        )
        if pick is None:
            raise ConsistencyError(
                "no admissible reflection although Borel escapes target",
                borel=cur.coords(),
                target=pp.coords(),
            )
        if rd.negative_index(pick) not in p.indices:
            raise ConsistencyError(
                "reflection would leave the ambient parabolic",
                root=rd.roots[pick].coords,
                parabolic=p.coords(),
            )
        before = len(cur & ref)
        cur = _reflect_by_own_simple(rd, cur, pick)
        if len(cur & ref) != before + 1:
            raise ConsistencyError(
                "alignment step did not grow the reference intersection",
                root=rd.roots[pick].coords,
            )
    raise ConsistencyError("Borel alignment did not terminate", borel=b.coords())


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
    if not (b_from <= p and b_to <= p):
        raise ValueError("endpoint Borels must lie inside the parabolic")
    if not (b_from & b_ref) <= (b_to & b_ref):
        raise ValueError("reference intersections are not nested")
    chain = [b_from]
    cur = b_from
    for _ in range(rd.positive_count + 1):
        if cur == b_to:
            return chain
        target = b_ref & b_to
        simples = simple_roots_of_borel(rd, cur)
        pick = next(
            (
                simples[i]
                for i in range(rd.rank)
                if rd.negative_index(simples[i]) in target.indices
            ),
            None,
        )
        if pick is None:
            raise ConsistencyError(
                "chain stuck before reaching the target Borel",
                at=cur.coords(),
                target=b_to.coords(),
            )
        nxt = _reflect_by_own_simple(rd, cur, pick)
        if not nxt <= p or len(nxt & b_ref) != len(cur & b_ref) + 1:
            raise ConsistencyError(
                "chain step violated its invariants", root=rd.roots[pick].coords
            )
        chain.append(nxt)
        cur = nxt
    raise ConsistencyError("Borel chain did not terminate")


def sum_absorption_holds(rd: RootDatum, p: RootSubset) -> bool:
    """Whenever a root of ``p`` plus a root outside ``p`` lands in ``p``,
    the inside summand must be one-sided (its negative not in ``p``)."""
    if not is_parabolic(rd, p):
        raise ValueError("argument is not a parabolic root set")
    sums = rd.sum_table()
    members = p.indices
    for a in members:
        if rd.negative_index(a) in members:
            for o, k in sums[a].items():
                if o not in members and k in members:
                    return False
    return True
