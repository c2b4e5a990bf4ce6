"""Seeded query generators for the three benchmark workloads.

Every workload is a fixed *pass*: a list of queries whose composition (types,
counts, length strata, command mix) is the same for every seed, so that runs
on different seeds do the same kind and amount of work.  The seed only picks
the concrete words, node sets and degree vectors.  The benchmark repeats whole
passes, so each run measures the same mix.

Node indices are 0-based here, as in the library; the CLI workload converts
them to the CLI's 1-based form.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

# Queries per type in one towers pass.  E8 words cost 2-11 s each at the seed
# commit, so one antithetic pair of them takes half the pass.  The cheaper
# types are numerous so that the median (A7/D6) and the p85 tail (E6) each
# fall inside one crowded class and move little between seeds.
TOWERS_MIX = (("E", 8, 2), ("E", 7, 2), ("E", 6, 16), ("D", 6, 12), ("A", 7, 16), ("F", 4, 24))

# Queries per type in one orbits pass.  One E6 query enumerates W three times
# (about 20 s at the seed commit, most of the pass, whatever its node sets);
# F4 supplies the median and D5 the p75 tail.  A7 and D6 are left out: at
# 10-20 s a query they would not fit the run-time budget of the whole
# benchmark.
ORBITS_MIX = (("E", 6, 1), ("A", 6, 2), ("D", 5, 8), ("F", 4, 16), ("B", 4, 8), ("C", 4, 8))


@dataclass(frozen=True)
class TowerQuery:
    lie_type: str
    rank: int
    p_nodes: frozenset
    word: tuple


@dataclass(frozen=True)
class OrbitQuery:
    lie_type: str
    rank: int
    p_nodes: frozenset
    pprime_nodes: frozenset


@dataclass(frozen=True)
class CliQuery:
    """One ``lie`` invocation with what the oracle needs to judge it."""

    command: str
    lie_type: str
    rank: int
    fmt: str
    p_nodes: Optional[frozenset] = None
    pprime_nodes: Optional[frozenset] = None
    word: Optional[tuple] = None
    degrees: Optional[tuple] = None

    def argv(self) -> list:
        out = [self.command, "--type", self.lie_type, "--rank", str(self.rank)]
        if self.p_nodes is not None:
            out += ["--p", ",".join(str(i + 1) for i in sorted(self.p_nodes))]
        if self.pprime_nodes is not None:
            out += ["--pprime", ",".join(str(i + 1) for i in sorted(self.pprime_nodes))]
        if self.word is not None:
            out += ["--word", " ".join(str(i + 1) for i in self.word)]
        if self.degrees is not None:
            out += ["--degrees", ",".join(str(d) for d in self.degrees)]
        if self.fmt != "text":
            out += ["--format", self.fmt]
        return out


def positive_count(rd) -> int:
    return len(rd.roots) // 2


def ascent_word(rd, length: int, rng: random.Random) -> tuple:
    """A reduced word of the given length: start at e and append a uniformly
    chosen right ascent (a node i with w(alpha_i) > 0) until long enough."""
    refl = rd.reflection_perms()
    simple = [rd.simple_root_index(i) for i in range(rd.rank)]
    npos = positive_count(rd)
    perm = tuple(range(len(rd.roots)))
    word = []
    while len(word) < length:
        i = rng.choice([i for i in range(rd.rank) if perm[simple[i]] < npos])
        word.append(i)
        perm = tuple(perm[x] for x in refl[i])
    return tuple(word)


def paired_draws(n_max: int, rank: int, k: int, rng: random.Random) -> list:
    """k (length, node set) draws for one type, in antithetic pairs.

    A pair is (l, P) and (n_max - l, complement of P), with l drawn from its
    own stratum of [0, n_max / 2] and |P| from its own stratum of the sizes
    a uniform subset has (``subset_sizes``); the nodes are uniform among the
    subsets of that size.  Each length is uniform on [0, n_max], and the k
    node sets are a stratified sample of a uniform subset (empty and full
    ones come up where k has strata that small, as on F4), while the work of
    a pass varies little between seeds, because tower cost moves with both l
    and |P|.  Which size stratum goes with which length stratum is fixed, the
    same for every seed.
    """
    half = k // 2
    sizes = subset_sizes(rank, k)[:half]
    random.Random(f"sizes/{rank}/{k}").shuffle(sizes)
    out = []
    for j in range(half):
        low = min(n_max // 2, int((j + rng.random()) * (n_max // 2 + 1) / half))
        nodes = frozenset(rng.sample(range(rank), sizes[j]))
        out += [(low, nodes), (n_max - low, frozenset(range(rank)) - nodes)]
    if k % 2:
        out.append((rng.randint(0, n_max), any_subset(rank, rng)))
    return out


def subset_sizes(rank: int, k: int) -> list:
    """Sizes of k subsets stratified over the size of a uniform subset of the
    nodes (binomial, rank draws of 1/2): the size at each of the quantiles
    (j + 1/2) / k, smallest first."""
    cdf, total = [], 0
    for size in range(rank + 1):
        total += math.comb(rank, size)
        cdf.append(total / 2**rank)
    return [next(size for size, c in enumerate(cdf) if c >= (j + 0.5) / k) for j in range(k)]


def any_subset(rank: int, rng: random.Random) -> frozenset:
    """Uniform over all subsets of the nodes, empty and full included."""
    return frozenset(i for i in range(rank) if rng.random() < 0.5)


def marked_pair(rank: int, rng: random.Random) -> tuple:
    """Node sets of P and P': one gets one node and the other two, each
    uniform over the subsets of that size.  The orbit enumeration costs more
    the fewer nodes are marked, so fixing the total keeps the work of a pass
    steady between seeds."""
    one, two = rng.sample(range(rank), 1), rng.sample(range(rank), 2)
    pair = (frozenset(one), frozenset(two))
    return pair if rng.random() < 0.5 else pair[::-1]


def interleave(groups: list) -> list:
    """Merge per-type query lists in a fixed order that spreads each type
    evenly over the pass.  The order does not depend on the seed, so the
    interpreter's heap and caches evolve the same way on every seed."""
    keyed = [((j + 0.5) / len(g), i, q) for i, g in enumerate(groups) for j, q in enumerate(g)]
    return [q for _, _, q in sorted(keyed, key=lambda t: t[:2])]


def towers_pass(seed: int, build) -> list:
    rng = random.Random(f"towers/{seed}")
    groups = []
    for lie_type, rank, k in TOWERS_MIX:
        rd = build(lie_type, rank)
        groups.append([
            TowerQuery(lie_type, rank, nodes, ascent_word(rd, length, rng))
            for length, nodes in paired_draws(positive_count(rd), rank, k, rng)
        ])
    return interleave(groups)


def orbits_pass(seed: int, build) -> list:
    rng = random.Random(f"orbits/{seed}")
    return interleave([
        [OrbitQuery(lie_type, rank, *marked_pair(rank, rng)) for _ in range(k)]
        for lie_type, rank, k in ORBITS_MIX
    ])


# The fixed edge slice: rank 1, the D3 -> A3 normalisation, P = G, an empty
# --pprime, and the two refusals the CLI documents (exit 2).  At the seed
# commit the two P = G curve queries give wrong answers; they stay in the
# slice so that the failure shows in the result.
CLI_EDGE = (
    CliQuery("root-system", "A", 1, "text"),
    CliQuery("root-system", "D", 3, "json"),
    CliQuery("orbits", "A", 1, "text", frozenset({0}), frozenset({0})),
    CliQuery("orbits", "D", 3, "json", frozenset({0}), frozenset()),
    CliQuery("nilradical", "A", 3, "text", pprime_nodes=frozenset()),
    CliQuery("curves", "A", 3, "text", frozenset(), degrees=()),
    CliQuery("hilbert", "A", 3, "json", frozenset(), degrees=()),
    CliQuery("desing", "A", 3, "dot", frozenset(), word=(1, 0, 2, 1)),
    CliQuery("levi", "E", 6, "text", frozenset({0}), frozenset({5})),
    CliQuery("hilbert", "D", 16, "text", frozenset({0, 1}), degrees=(1, -1)),
)

# Types per command in the random part of a cli-cold pass; each pair
# (command, type) is invoked twice.  Large classical ranks stress root
# generation and involution_i; the tower commands stay on E7/E8 with short
# words and on small types, because a tower over A30 takes 30 s or more at
# the seed commit.
CLI_TYPES = {
    "root-system": (("A", 30), ("D", 16), ("B", 12), ("C", 10)),
    "codim": (("A", 30), ("D", 16), ("B", 12), ("C", 10)),
    "levi": (("A", 30), ("D", 16), ("E", 6), ("E", 7)),
    "nilradical": (("A", 30), ("D", 16), ("E", 8), ("F", 4)),
    "orbits": (("A", 4), ("B", 3), ("C", 3), ("G", 2)),
    "curves": (("A", 30), ("D", 16), ("C", 10), ("E", 7), ("B", 3), ("A", 3)),
    "hilbert": (("B", 12), ("E", 6), ("D", 5), ("A", 2)),
    "desing": (("E", 8), ("E", 7), ("B", 3), ("G", 2)),
    "refine": (("E", 8), ("E", 7), ("A", 4)),
    "smooth": (("E", 8), ("E", 7), ("C", 3)),
    "minimal": (("E", 8), ("E", 7), ("D", 4)),
}
CLI_SHORT_WORD = 6  # longest word drawn for E7/E8 tower commands


def _cli_pair(command: str, lie_type: str, rank: int, rd, rng: random.Random) -> list:
    """Two invocations of one command on one type, drawn antithetically: the
    second takes the complements of the first's node sets and the mirrored
    word length, so the pair's cost varies little between seeds."""
    formats = ("text", "json", "dot") if command in ("root-system", "desing") else ("text", "json")
    full = frozenset(range(rank))
    top = CLI_SHORT_WORD if lie_type == "E" and rank >= 7 else positive_count(rd)
    p, pp, length = any_subset(rank, rng), any_subset(rank, rng), rng.randint(1, top)
    out = []
    for p, pp, length in ((p, pp, length), (full - p, full - pp, top + 1 - length)):
        q = CliQuery(command, lie_type, rank, rng.choice(formats))
        if command in ("codim", "levi", "orbits"):
            q = replace(q, p_nodes=p, pprime_nodes=pp)
        elif command == "nilradical":
            q = replace(q, pprime_nodes=pp)
        elif command in ("curves", "hilbert"):
            # degrees 0..2: about a third of the entries sit on the boundary
            q = replace(q, p_nodes=p, degrees=tuple(rng.randint(0, 2) for _ in p))
        elif command != "root-system":
            q = replace(q, p_nodes=p, word=ascent_word(rd, length, rng))
        out.append(q)
    return out


def cli_pass(seed: int, build) -> list:
    rng = random.Random(f"cli-cold/{seed}")
    out = list(CLI_EDGE)
    for command, types in CLI_TYPES.items():
        for lie_type, rank in types:
            out += _cli_pair(command, lie_type, rank, build(lie_type, rank), rng)
    return out


PASSES = {"towers": towers_pass, "orbits": orbits_pass, "cli-cold": cli_pass}


def setup_types(workload: str) -> list:
    """The (type, rank) pairs a warm session builds before its first query."""
    mix = {"towers": TOWERS_MIX, "orbits": ORBITS_MIX}[workload]
    return [(t, r) for t, r, _ in mix]


def _hist(values, edges) -> dict:
    """Counts of ``values`` (fractions in [0, 1]) per quarter."""
    out = Counter()
    for v in values:
        k = min(len(edges) - 2, int(v * (len(edges) - 1)))
        out[f"{edges[k]}-{edges[k + 1]}%"] += 1
    return dict(sorted(out.items()))


def input_mix(queries: list, build) -> dict:
    """Composition of one pass: type mix, word length histogram (as a share
    of the longest length) and the share of queries with P = G."""
    types = Counter(f"{q.lie_type}{q.rank}" for q in queries)
    with_p = [q for q in queries if getattr(q, "p_nodes", None) is not None]
    words = [q for q in queries if getattr(q, "word", None) is not None]
    fractions = [len(q.word) / max(1, positive_count(build(q.lie_type, q.rank))) for q in words]
    mix = {
        "queries": len(queries),
        "types": dict(sorted(types.items())),
        "p_is_g_share": round(sum(1 for q in with_p if not q.p_nodes) / max(1, len(with_p)), 4),
    }
    if words:
        mix["word_length_hist"] = _hist(fractions, (0, 25, 50, 75, 100))
    if queries and isinstance(queries[0], CliQuery):
        mix["commands"] = dict(sorted(Counter(f"{q.command}/{q.fmt}" for q in queries).items()))
    return mix
