"""Borel/parabolic subset calculus and the alternating recursion."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from oracles import (
    borel_chain,
    closure,
    is_parabolic,
    parabolic_from_nodes,
    subset_from_json,
    sum_absorption_holds,
)

from lieorbits.parabolic import (
    ConsistencyError,
    apply_element,
    borel_to_weyl,
    closed_violation,
    contains_borel,
    is_borel,
    is_covering,
    max_parabolic_pair,
    nearest_borel,
    next_borels,
    parabolic_sequence,
    sigma_of,
    simple_roots_of_borel,
    standard_borel,
    standard_parabolic_set,
    subset_of,
)
from lieorbits.rootsys import Root, build_root_system
from lieorbits.weyl import from_word, identity, simple_reflection, weyl_group


def coords_set(rd, s):
    return {rd.roots[i].coords for i in s.indices}


def borel_from_element(rd, w):
    return subset_of(rd, (w.perm[i] for i in range(rd.positive_count)))


def coordinate_sum(rd, i, j):
    a, b = rd.roots[i].coords, rd.roots[j].coords
    return rd.root_index.get(tuple(x + y for x, y in zip(a, b)))


def brute_violations(rd, members):
    """Every (i, j, i+j) with i, j in the set and the sum a missing root."""
    return {
        (i, j, k)
        for i in members
        for j in members
        if (k := coordinate_sum(rd, i, j)) is not None and k not in members
    }


def brute_closure(rd, members):
    out = set(members)
    while True:
        grown = out | {k for _, _, k in brute_violations(rd, out)}
        if grown == out:
            return frozenset(out)
        out = grown


def brute_is_borel(rd, members):
    n = rd.positive_count
    return (
        all((p in members) != (p + n in members) for p in range(n))
        and not brute_violations(rd, members)
    )


def all_borels(rd):
    return [borel_from_element(rd, w) for w in weyl_group(rd)]


def node_subsets(rank):
    return [frozenset(c) for k in range(rank + 1) for c in combinations(range(rank), k)]


def test_standard_borel_is_borel():
    for key in [("A", 2), ("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        assert is_borel(rd, standard_borel(rd))


def test_every_weyl_translate_is_borel_and_roundtrips():
    for key in [("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        for w in weyl_group(rd):
            b = borel_from_element(rd, w)
            assert is_borel(rd, b)
            assert borel_to_weyl(rd, b) == w


def test_simple_roots_of_translated_borel():
    rd = build_root_system("A", 2)
    w = from_word(rd, [0])
    b = borel_from_element(rd, w)
    simples = [rd.roots[i] for i in simple_roots_of_borel(rd, b)]
    assert simples == [Root((-1, 0)), Root((1, 1))]  # s1(a1), s1(a2)


def test_parabolic_from_nodes_fixtures():
    a2 = build_root_system("A", 2)
    b = standard_borel(a2)
    assert parabolic_from_nodes(a2, {0, 1}, b) == b
    assert len(parabolic_from_nodes(a2, frozenset(), b)) == 6

    a3 = build_root_system("A", 3)
    p = parabolic_from_nodes(a3, {0}, standard_borel(a3))
    assert len(p) == 9
    negatives = {c for c in coords_set(a3, p) if any(x < 0 for x in c)}
    assert negatives == {(0, -1, 0), (0, 0, -1), (0, -1, -1)}

    with pytest.raises(ValueError):
        parabolic_from_nodes(a2, {7}, b)


def test_sigma_recovery():
    for key in [("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        for sigma in node_subsets(rd.rank):
            for w in weyl_group(rd):
                b = borel_from_element(rd, w)
                p = parabolic_from_nodes(rd, sigma, b)
                assert is_parabolic(rd, p)
                assert sigma_of(rd, p, b) == sigma


def test_contains_borel_on_parabolic_returns_defining_borel():
    rd = build_root_system("A", 3)
    p = standard_parabolic_set(rd, {0})
    found = contains_borel(rd, p)
    assert found == standard_borel(rd)  # positive-sign rule


def test_contains_borel_fails_on_noncovering():
    rd = build_root_system("A", 2)
    s = subset_of(rd, closure(rd, {rd.root_index[(1, 0)]}))
    assert contains_borel(rd, s) is None


def test_contains_borel_rejects_nonclosed():
    rd = build_root_system("A", 2)
    s = subset_of(rd, {rd.root_index[(1, 0)], rd.root_index[(0, 1)]})
    with pytest.raises(ValueError, match="not closed"):
        contains_borel(rd, s)


def test_max_parabolic_pair_fixtures():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    whole = subset_of(rd, range(6))

    p1, p1p = max_parabolic_pair(rd, b, b.negated())
    assert p1 == whole and p1p == whole

    p1, _ = max_parabolic_pair(rd, b, b)
    assert p1 == b

    bp = borel_from_element(rd, from_word(rd, [0]))
    p1, p1p = max_parabolic_pair(rd, b, bp)
    assert coords_set(rd, p1) == {(1, 0), (0, 1), (1, 1), (-1, 0)}
    assert p1 == p1p


def test_max_parabolic_pair_is_maximal_and_unique():
    # p1 sits inside b | bp, swallows every eligible negative simple root,
    # and dominates every parabolic over b inside the union
    for key in [("A", 2), ("A", 3), ("C", 2)]:
        rd = build_root_system(*key)
        borels = all_borels(rd)
        sigmas = node_subsets(rd.rank)
        for b in borels:
            simples = simple_roots_of_borel(rd, b)
            for bp in borels:
                p1, p1p = max_parabolic_pair(rd, b, bp)
                union = b | bp
                assert p1 <= union and p1p <= union
                for i in range(rd.rank):
                    neg = rd.negative_index(simples[i])
                    if neg in bp.indices:
                        assert neg in p1.indices
                for sigma in sigmas:
                    q = parabolic_from_nodes(rd, sigma, b)
                    if q <= union:
                        assert q <= p1


def test_next_borels_whole_algebra_copies():
    rd = build_root_system("A", 2)
    whole = subset_of(rd, range(6))
    b = standard_borel(rd)
    bp = borel_from_element(rd, from_word(rd, [0, 1]))
    nb, nbp = next_borels(rd, whole, whole, b, bp)
    assert nb == b and nbp == bp


def test_next_borels_rejects_misplaced_borel():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    p = parabolic_from_nodes(rd, {0}, b)
    stray = borel_from_element(rd, from_word(rd, [0, 1]))
    with pytest.raises(ValueError):
        next_borels(rd, p, p, stray, b)


def test_sequence_trivial_cases():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    seq = parabolic_sequence(rd, b, b)
    assert seq.terminal_index == 1
    assert seq.parabolics[0][0] == b

    seq = parabolic_sequence(rd, b, b.negated())  # the longest-element case
    assert seq.terminal_index == 1
    assert len(seq.parabolics[0][0]) == 6
    assert seq.parabolics[0][0] == seq.parabolics[0][1]


def test_sequence_a2_one_reflection():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    bp = borel_from_element(rd, from_word(rd, [0]))
    seq = parabolic_sequence(rd, b, bp)
    assert seq.terminal_index == 1
    inter = seq.parabolics[0][0] & seq.parabolics[0][1]
    assert contains_borel(rd, inter) is not None
    assert seq.final_borel <= inter


def full_sequence_invariants(rd, b, bp):
    seq = parabolic_sequence(rd, b, bp)
    n = seq.terminal_index
    assert n <= rd.positive_count
    assert len(seq.borels) == n and len(seq.parabolics) == n
    for k in range(n):
        bk, bpk = seq.borels[k]
        pk, ppk = seq.parabolics[k]
        assert is_borel(rd, bk) and is_borel(rd, bpk)
        assert is_parabolic(rd, pk) and is_parabolic(rd, ppk)
        assert bk <= pk and bpk <= ppk
        if k + 1 < n:
            nk, npk = seq.borels[k + 1]
            # each Borel sits in the current and the next parabolic
            assert nk <= pk and npk <= ppk
            # unions shrink strictly while no Borel fits the intersection
            assert len(nk | npk) < len(bk | bpk)
            # nested intersections with the initial moved Borel
            assert (bk & bp) <= (nk & bp)
            assert (nk & bp) <= (npk & bp)
            assert (npk & bp) <= (bpk & bp)
    bn, bpn = seq.borels[-1]
    pn, ppn = seq.parabolics[-1]
    assert contains_borel(rd, pn & ppn) is not None
    assert seq.final_borel <= (pn & ppn)
    assert (bn & bp) <= (seq.final_borel & bp) <= (bpn & bp)
    return seq


def test_sequence_invariants_exhaustive():
    for key in [("A", 2), ("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        b = standard_borel(rd)
        for w in weyl_group(rd):
            full_sequence_invariants(rd, b, borel_from_element(rd, w))


def test_sequence_rejects_non_borel_input():
    rd = build_root_system("A", 2)
    with pytest.raises(ValueError):
        parabolic_sequence(rd, standard_borel(rd), subset_of(rd, {0}))


def test_borel_chain_fixtures():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    assert borel_chain(rd, b, b, b, b) == [b]

    p = parabolic_from_nodes(rd, {1}, b)  # minimal parabolic at node 1
    other = subset_of(rd, (i if i not in (rd.root_index[(1, 0)],) else rd.negative_index(i) for i in b.indices))
    # the minimal parabolic has exactly two Borels; walk between them
    chain = borel_chain(rd, p, b, other, b)
    assert len(chain) == 2
    assert chain[0] == other and chain[1] == b


def test_borel_chain_steps_along_sequences():
    rd = build_root_system("A", 3)
    b = standard_borel(rd)
    for w in weyl_group(rd):
        bp = borel_from_element(rd, w)
        seq = parabolic_sequence(rd, b, bp)
        bn, _ = seq.borels[-1]
        pn, _ = seq.parabolics[-1]
        chain = borel_chain(rd, pn, bp, bn, seq.final_borel)
        assert chain[0] == bn and chain[-1] == seq.final_borel
        for cur, nxt in zip(chain, chain[1:]):
            assert len(nxt & bp) == len(cur & bp) + 1
            assert len(cur.indices - nxt.indices) == 1
            assert nxt <= pn


def test_borel_chain_rejects_bad_preconditions():
    rd = build_root_system("A", 2)
    b = standard_borel(rd)
    p = parabolic_from_nodes(rd, {1}, b)
    stray = borel_from_element(rd, from_word(rd, [1]))
    with pytest.raises(ValueError):
        borel_chain(rd, p, b, stray, b)


def test_sum_absorption_on_whole_algebra_and_borels():
    rd = build_root_system("A", 2)
    whole = subset_of(rd, range(6))
    assert sum_absorption_holds(rd, whole)
    for b in all_borels(rd):
        assert sum_absorption_holds(rd, b)


def test_sum_absorption_rejects_non_parabolic():
    rd = build_root_system("A", 2)
    with pytest.raises(ValueError):
        sum_absorption_holds(rd, subset_of(rd, {0}))


def test_rootsubset_json_roundtrip():
    rd = build_root_system("C", 2)
    s = standard_parabolic_set(rd, {0})
    data = s.to_json()
    assert subset_from_json(rd, data) == s
    assert subset_from_json(rd, data).to_json() == data


def test_rootsubset_validates_indices():
    rd = build_root_system("A", 2)
    with pytest.raises(ValueError):
        subset_of(rd, {99})


RANDOM_SET_KEYS = [("A", 3), ("A", 5), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("key", RANDOM_SET_KEYS, ids=lambda key: f"{key[0]}{key[1]}")
def test_closure_tests_match_pairwise_reference(key):
    rd = build_root_system(*key)
    rng = random.Random(f"closure {key}")
    n = len(rd.roots)
    samples = []
    for _ in range(15):
        samples.append(frozenset(rng.sample(range(n), rng.randrange(n // 2 + 1))))
        # one root of each pair: sometimes a Borel, mostly not
        samples.append(frozenset(p + rd.positive_count * rng.randrange(2) for p in range(rd.positive_count)))
        w = from_word(rd, [rng.randrange(rd.rank) for _ in range(rng.randrange(2 * rd.rank))])
        borel = apply_element(w, standard_borel(rd))
        samples.append(borel.indices)
        samples.append(borel.indices - {rng.choice(sorted(borel.indices))})
        # a Levi subsystem: closed, holding both signs of its roots
        nodes = set(rng.sample(range(rd.rank), rng.randrange(rd.rank + 1)))
        samples.append(frozenset(i for i, r in enumerate(rd.roots) if r.support <= nodes))
    for members in samples:
        s = subset_of(rd, members)
        bad = brute_violations(rd, members)
        witness = closed_violation(rd, s)
        assert (witness is None) == (not bad)
        if witness is not None:
            assert witness in bad
        assert is_borel(rd, s) == brute_is_borel(rd, members)
        assert closure(rd, members) == brute_closure(rd, members)


@pytest.mark.parametrize(
    "key", [("A", 4), ("B", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)], ids=lambda key: f"{key[0]}{key[1]}"
)
def test_borel_to_weyl_recovers_random_words(key):
    rd = build_root_system(*key)
    rng = random.Random(f"walk {key}")
    for _ in range(30):
        w = from_word(rd, [rng.randrange(rd.rank) for _ in range(rng.randrange(3 * rd.rank))])
        u = borel_to_weyl(rd, apply_element(w, standard_borel(rd)))
        assert u == w and u.length == w.length
        assert u * u.inverse() == identity(rd)


def test_is_borel_rejects_closed_sets_of_borel_size_with_both_signs():
    # the A2 Levi subsystem of A3 is closed and has |Phi+(A3)| = 6 roots
    rd = build_root_system("A", 3)
    levi = subset_of(rd, (i for i, r in enumerate(rd.roots) if r.support <= {0, 1}))
    assert len(levi) == rd.positive_count and closed_violation(rd, levi) is None
    assert not is_borel(rd, levi)


@pytest.mark.parametrize(
    "key", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)], ids=lambda key: f"{key[0]}{key[1]}"
)
def test_borel_to_weyl_accepts_exactly_the_borels_among_one_per_pair_sets(key):
    rd = build_root_system(*key)
    n = rd.positive_count
    sets = (subset_of(rd, (p + n * (signs >> p & 1) for p in range(n))) for signs in range(2**n))
    assert sum(map(borel_to_weyl_agrees_with_is_borel, sets)) == len(weyl_group(rd))


@pytest.mark.parametrize("key", [("D", 4), ("F", 4), ("E", 6)], ids=lambda key: f"{key[0]}{key[1]}")
def test_borel_to_weyl_agrees_with_is_borel_on_random_one_per_pair_sets(key):
    rd = build_root_system(*key)
    n = rd.positive_count
    rng = random.Random(f"one per pair {key}")
    for _ in range(200):
        borel_to_weyl_agrees_with_is_borel(subset_of(rd, (p + n * rng.randrange(2) for p in range(n))))
    for _ in range(20):
        w = from_word(rd, [rng.randrange(rd.rank) for _ in range(n)])
        assert borel_to_weyl_agrees_with_is_borel(apply_element(w, standard_borel(rd)))


def borel_to_weyl_agrees_with_is_borel(b):
    """Whether ``b`` is a Borel, after checking that ``borel_to_weyl`` takes
    it to an element moving the standard Borel onto it, or refuses it."""
    rd = b.rd
    if not is_borel(rd, b):
        with pytest.raises(ValueError, match="not a Borel root set"):
            borel_to_weyl(rd, b)
        return False
    assert apply_element(borel_to_weyl(rd, b), standard_borel(rd)) == b
    return True


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)], ids=lambda key: f"{key[0]}{key[1]}")
def test_one_walker_step_moves_x_to_x_times_s_i(key):
    rd = build_root_system(*key)
    for x in weyl_group(rd):
        for i in range(rd.rank):
            root = x.perm[rd.simple_root_index(i)]
            # x s_i has -root at node i and no other simple root equal to root
            nodes, roots, end = x.walk(lambda j, r: r == root)
            want = x * simple_reflection(rd, i)
            assert nodes == [i] and roots == [root]
            step = 1 if root < rd.positive_count else -1  # x(alpha_i) positive: x s_i is longer
            assert end == want and end.length == want.length == x.length + step


@pytest.mark.parametrize(
    "key, count", [(("A", 3), 75), (("B", 3), 147), (("G", 2), 25)], ids=["A3", "B3", "G2"]
)
def test_nearest_borel_is_the_one_borel_inside_q_sharing_most_roots(key, count):
    # the gate property of projections in a building (Tits): among the Borels
    # inside a parabolic, exactly one shares the most roots with a given Borel
    rd = build_root_system(*key)
    borels = all_borels(rd)
    parabolics = {
        apply_element(x, standard_parabolic_set(rd, sigma))
        for x in weyl_group(rd)
        for sigma in node_subsets(rd.rank)
    }
    assert len(parabolics) == count
    for q in parabolics:
        inside = [b for b in borels if b <= q]
        for c in borels:
            best = max(len(b & c) for b in inside)
            (gate,) = [b for b in inside if len(b & c) == best]
            assert nearest_borel(rd, q, c) == gate
