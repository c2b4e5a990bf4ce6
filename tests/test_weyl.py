"""Weyl element arithmetic, Bruhat order and double cosets, checked against
the enumerated group on small ranks."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from oracles import act_on_root, coset_members, parabolic_order_by_components

from lieorbits.rootsys import (
    ConsistencyError,
    Root,
    RootDatum,
    build_root_system,
    cartan_matrix,
)
from lieorbits.orbits import orbit_table
from lieorbits.weyl import (
    WeylElement,
    bruhat_leq,
    double_coset_minimum,
    double_coset_orbits,
    from_word,
    identity,
    longest_element,
    parabolic_order,
    permutation_to_word,
    simple_reflection,
    weyl_group,
    weyl_order,
)

WEYL_ORDERS = {("A", 2): 6, ("A", 3): 24, ("C", 2): 8, ("G", 2): 12, ("B", 3): 48}


def one_line(rd, w):
    """Type-A one-line form computed independently of the root action."""
    n = rd.rank + 1
    # compose transpositions right-to-left so the first letter acts last
    perm = list(range(1, n + 1))
    for i in reversed(w.reduced_word()):
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def reference_element(rd, word):
    """Root permutation and length of a word, by explicit composition and a
    count of the positive roots sent negative."""
    perms = rd.reflection_perms()
    n = len(rd.roots)
    perm = list(range(n))
    for i in word:
        perm = [perm[perms[i][r]] for r in range(n)]
    length = sum(1 for p in range(rd.positive_count) if perm[p] >= rd.positive_count)
    return tuple(perm), length


def inversions(seq):
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


def test_simple_reflection_negates_its_root():
    for key in WEYL_ORDERS:
        rd = build_root_system(*key)
        for i in range(rd.rank):
            s = simple_reflection(rd, i)
            alpha = rd.roots[rd.simple_root_index(i)]
            assert act_on_root(s, alpha) == -alpha
            assert s.length == 1


def test_act_on_root_a2_fixtures():
    rd = build_root_system("A", 2)
    s1 = simple_reflection(rd, 0)
    assert act_on_root(s1, Root((0, 1))) == Root((1, 1))
    w0 = from_word(rd, [0, 1, 0])
    assert act_on_root(w0, Root((1, 0))) == Root((0, -1))


def test_longest_element_lengths():
    assert longest_element(build_root_system("A", 1)).length == 1
    assert longest_element(build_root_system("A", 2)).length == 3
    assert longest_element(build_root_system("C", 2)).length == 4
    for key, order in WEYL_ORDERS.items():
        rd = build_root_system(*key)
        w0 = longest_element(rd)
        assert w0.length == rd.positive_count
        # w0 sends every positive root to a negative one
        for p in range(rd.positive_count):
            assert w0.perm[p] >= rd.positive_count


def test_group_orders():
    for key, order in WEYL_ORDERS.items():
        assert len(weyl_group(build_root_system(*key))) == order


def test_equality_is_by_permutation_not_word():
    rd = build_root_system("A", 2)
    assert from_word(rd, [0, 1, 0]) == from_word(rd, [1, 0, 1])
    assert from_word(rd, [0, 0]) == identity(rd)


def test_length_of_inverse_and_subadditivity():
    rd = build_root_system("A", 3)
    group = weyl_group(rd)
    for u in group:
        assert u.inverse().length == u.length
        for v in group:
            uv = u * v
            assert uv.length <= u.length + v.length


def test_a_walk_that_never_stops_picking_is_refused():
    # s_0 s_0 ... never runs out of nodes to take
    for key in (("A", 1), ("G", 2), ("E", 6)):
        x = longest_element(build_root_system(*key))
        with pytest.raises(ConsistencyError, match="walk did not terminate"):
            x.walk(lambda i, r: True)


def test_reduced_word_roundtrip():
    for key in WEYL_ORDERS:
        rd = build_root_system(*key)
        for w in weyl_group(rd):
            word = w.reduced_word()
            assert len(word) == w.length
            assert from_word(rd, word) == w


def test_type_a_length_equals_inversion_count():
    rd = build_root_system("A", 3)
    for w in weyl_group(rd):
        assert w.length == inversions(one_line(rd, w))


def test_bruhat_fixtures():
    rd = build_root_system("A", 2)
    e = identity(rd)
    s1, s2 = simple_reflection(rd, 0), simple_reflection(rd, 1)
    for w in weyl_group(rd):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, longest_element(rd))
    assert bruhat_leq(s1, s1 * s2)
    assert not bruhat_leq(s1, s2)


def test_bruhat_is_partial_order():
    for key in [("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        group = weyl_group(rd)
        for u in group:
            assert bruhat_leq(u, u)
            for w in group:
                if bruhat_leq(u, w) and bruhat_leq(w, u):
                    assert u == w
                if bruhat_leq(u, w):
                    assert u.length <= w.length


def test_bruhat_subword_oracle_a2():
    # independent oracle: u <= w iff some reduced word of w contains a
    # subword multiplying to u; exhaustive over the 6 elements of A2
    rd = build_root_system("A", 2)
    group = weyl_group(rd)
    from itertools import combinations

    def subword_leq(u, w):
        word = w.reduced_word()
        for k in range(len(word) + 1):
            for keep in combinations(range(len(word)), k):
                if from_word(rd, [word[i] for i in keep]) == u:
                    return True
        return False

    for u in group:
        for w in group:
            assert bruhat_leq(u, w) == subword_leq(u, w)


def test_double_cosets_trivial_action():
    rd = build_root_system("A", 1)
    orbits = double_coset_orbits(rd, frozenset(), frozenset())
    members = [coset_members(o, frozenset(), frozenset()) for o in orbits]
    assert [sorted(m.length for m in ms) for ms in members] == [[0], [1]]


def test_double_cosets_a2_sizes():
    rd = build_root_system("A", 2)
    orbits = double_coset_orbits(rd, {0}, {0})
    assert sorted(o.size for o in orbits) == [2, 4]
    assert sum(o.size for o in orbits) == 6


def test_double_cosets_a3_point_stabiliser():
    rd = build_root_system("A", 3)
    orbits = double_coset_orbits(rd, {1, 2}, {1, 2})
    assert len(orbits) == 2
    assert sorted(o.size for o in orbits) == [6, 18]


def test_orbit_count_equals_minimal_representative_count():
    # a double coset has a unique minimal element: no left descent among the
    # left generators, no right descent among the right generators
    rd = build_root_system("A", 3)
    group = weyl_group(rd)
    from itertools import combinations

    node_subsets = [frozenset(c) for k in range(4) for c in combinations(range(3), k)]
    for left in node_subsets:
        for right in node_subsets:
            orbits = double_coset_orbits(rd, left, right)
            assert sum(o.size for o in orbits) == len(group)
            minimal = [
                w
                for w in group
                if all((simple_reflection(rd, i) * w).length > w.length for i in left)
                and all((w * simple_reflection(rd, j)).length > w.length for j in right)
            ]
            assert len(orbits) == len(minimal)
            reps = {o.representative for o in orbits}
            assert reps == set(minimal)


def test_representatives_have_minimal_length():
    rd = build_root_system("C", 2)
    for o in double_coset_orbits(rd, {0}, {1}):
        assert o.representative.length == min(m.length for m in coset_members(o, {0}, {1}))


def test_permutation_to_word_fixtures():
    rd = build_root_system("A", 3)
    w = from_word(rd, permutation_to_word([3, 4, 1, 2]))
    assert w == from_word(rd, [1, 0, 2, 1])  # s2 s1 s3 s2
    assert from_word(rd, permutation_to_word([2, 1, 3, 4])) == simple_reflection(rd, 0)
    assert from_word(rd, permutation_to_word([1, 3, 2, 4])) == simple_reflection(rd, 1)
    assert permutation_to_word([1, 2, 3, 4]) == ()
    with pytest.raises(ValueError):
        permutation_to_word([1, 1, 2])


def test_weyl_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("LIE_MAX_WEYL", "10")
    fresh = RootDatum("A", 3, cartan_matrix("A", 3))
    with pytest.raises(ValueError, match="LIE_MAX_WEYL"):
        weyl_group(fresh)


def test_orbit_table_cap_is_enforced(monkeypatch):
    # P' = B gives the regular weight rho, whose orbit is all 24 elements of A3
    rd = build_root_system("A", 3)
    monkeypatch.setenv("LIE_MAX_WEYL", "10")
    with pytest.raises(ValueError, match="LIE_MAX_WEYL"):
        orbit_table(rd, {0}, {0, 1, 2})
    # the cap counts the weights the walk visits: W/W_J has 12 of them here
    monkeypatch.setenv("LIE_MAX_WEYL", "12")
    assert sum(o.size for o in double_coset_orbits(rd, {1, 2}, {0})) == 24
    monkeypatch.setenv("LIE_MAX_WEYL", "11")
    with pytest.raises(ValueError, match="LIE_MAX_WEYL"):
        double_coset_orbits(rd, {1, 2}, {0})


def all_subsets(rank):
    return [frozenset(c) for k in range(rank + 1) for c in combinations(range(rank), k)]


def check_partition(rd, group, left, right, rng):
    """The orbits' members partition W, each orbit's size counts its members
    and its representative is the least member, which ``double_coset_minimum``
    reaches from a sample of the members."""
    orbits = double_coset_orbits(rd, left, right)
    seen = set()
    for o in orbits:
        members = coset_members(o, left, right)
        assert o.size == len(members)
        assert o.representative == min(members, key=lambda g: (g.length, g.perm))
        assert seen.isdisjoint(members)
        seen |= members
        sample = rng.sample(sorted(members, key=lambda g: g.perm), min(len(members), 20))
        assert all(double_coset_minimum(g, left, right) == o.representative for g in sample)
    assert seen == set(group)


@pytest.mark.parametrize(
    "key",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("G", 2)],
    ids=lambda key: f"{key[0]}{key[1]}",
)
def test_double_cosets_partition_the_group(key):
    rd = build_root_system(*key)
    group = weyl_group(rd)
    rng = random.Random(f"{key}")
    for left in all_subsets(rd.rank):
        for right in all_subsets(rd.rank):
            check_partition(rd, group, left, right, rng)


@pytest.mark.parametrize("key, count", [(("F", 4), 8), (("E", 6), 1)], ids=["F4", "E6"])
def test_double_cosets_partition_the_group_seeded(key, count):
    rd = build_root_system(*key)
    group = weyl_group(rd)
    rng = random.Random(f"{key}")
    for _ in range(count):
        left = frozenset(rng.sample(range(rd.rank), rng.randrange(1, rd.rank)))
        right = frozenset(rng.sample(range(rd.rank), rng.randrange(1, rd.rank)))
        check_partition(rd, group, left, right, rng)


@pytest.mark.parametrize("rank", [7, 8])
def test_double_coset_sizes_sum_to_the_order_on_e7_e8(rank):
    rd = build_root_system("E", rank)
    rng = random.Random(f"E{rank}")
    # on E8 J misses node 1 or 8, whose fundamental weights have the two
    # smallest orbits (2160 and 240 weights)
    misses = [[rng.randrange(rank)] for _ in range(3)] if rank == 7 else [[0], [7], [0, 7]]
    for missed in misses:
        left = frozenset(range(rank)) - set(rng.sample(range(rank), 2))
        right = frozenset(range(rank)) - set(missed)
        orbits = double_coset_orbits(rd, left, right)
        assert sum(o.size for o in orbits) == weyl_order("E", rank)
        reps = [o.representative for o in orbits]
        assert len(set(reps)) == len(reps)
        assert all(double_coset_minimum(w, left, right) == w for w in reps)


def test_e8_two_roots_have_five_relative_positions():
    # P = P' marked at node 8 stabilises the highest root theta, W_J = W(E7);
    # the roots beta with <beta, theta> = 2, 1, 0, -1, -2 number 1, 56, 126,
    # 56 and 1, and W(E7) is transitive on each set
    rd = build_root_system("E", 8)
    rest = frozenset(range(7))
    orbits = double_coset_orbits(rd, rest, rest)
    assert sorted(o.size for o in orbits) == [weyl_order("E", 7) * k for k in (1, 1, 56, 56, 126)]


def test_parabolic_order_of_all_nodes_is_the_group_order():
    for key, order in WEYL_ORDERS.items():
        rd = build_root_system(*key)
        assert parabolic_order(rd, range(rd.rank)) == weyl_order(*key) == order
        assert len(weyl_group(rd)) == order
    assert parabolic_order(build_root_system("A", 3), ()) == 1


ORDER_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("A", 7), ("B", 2), ("B", 3), ("B", 4),
               ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6),
               ("E", 7), ("E", 8)]


@pytest.mark.parametrize("key", ORDER_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_parabolic_order_from_root_heights_matches_the_typed_components(key):
    rd = build_root_system(*key)
    for k in range(rd.rank + 1):
        for nodes in combinations(range(rd.rank), k):
            assert parabolic_order(rd, nodes) == parabolic_order_by_components(rd, nodes), nodes
    with pytest.raises(ValueError, match="out of range"):
        parabolic_order(rd, [rd.rank])


def test_mixed_datum_operations_rejected():
    a2 = build_root_system("A", 2)
    c2 = build_root_system("C", 2)
    with pytest.raises(ValueError):
        identity(a2) * identity(c2)
    with pytest.raises(ValueError):
        bruhat_leq(identity(a2), identity(c2))


@pytest.mark.parametrize(
    "key", [("A", 4), ("B", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)], ids=lambda key: f"{key[0]}{key[1]}"
)
def test_element_arithmetic_matches_explicit_composition(key):
    rd = build_root_system(*key)
    rng = random.Random(f"{key}")
    for _ in range(25):
        a = [rng.randrange(rd.rank) for _ in range(rng.randrange(12))]
        b = [rng.randrange(rd.rank) for _ in range(rng.randrange(12))]
        u, v = from_word(rd, a), from_word(rd, b)
        assert (u.perm, u.length) == reference_element(rd, a)
        uv = u * v
        assert (uv.perm, uv.length) == reference_element(rd, a + b)
        inv = u.inverse()
        assert (inv.perm, inv.length) == reference_element(rd, a[::-1])
        assert inv * u == identity(rd) and (inv * u).length == 0
        assert u.length <= len(a) and (len(a) - u.length) % 2 == 0


def test_repr_prints_the_reduced_word_0_based():
    a3 = build_root_system("A", 3)
    assert repr(from_word(a3, (1, 0))) == "WeylElement(1 0)"
    assert repr(identity(a3)) == "WeylElement(e)"


@pytest.mark.parametrize(
    "key", [("A", 4), ("B", 3), ("F", 4), ("G", 2)], ids=lambda key: f"{key[0]}{key[1]}"
)
def test_times_is_the_product_with_a_simple_reflection_and_its_length(key):
    rd = build_root_system(*key)
    rng = random.Random(f"times {key}")
    for _ in range(25):
        w = from_word(rd, [rng.randrange(rd.rank) for _ in range(rng.randrange(12))])
        for i in range(rd.rank):
            want = w * simple_reflection(rd, i)  # length counted from the permutation
            got = w.times(i)
            assert (got.perm, got.length) == (want.perm, want.length)


def test_equal_elements_hash_equal_whatever_length_they_were_given():
    rd = build_root_system("B", 3)
    w = from_word(rd, [0, 1, 2, 1])
    assert WeylElement(rd, w.perm).length == w.length
    for length in (-1, 0, w.length, 99):
        v = WeylElement(rd, w.perm, length)
        assert v == w and hash(v) == hash(w)
    assert len({w, WeylElement(rd, w.perm, 0)}) == 1
    # the same permutation over another datum of the same type is another element
    assert WeylElement(RootDatum("B", 3, cartan_matrix("B", 3)), w.perm) != w
    assert w != (rd, w.perm)
