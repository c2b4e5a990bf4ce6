"""Root construction, diagram surgery, pairings and the -w0 involution."""

from __future__ import annotations

import random

import pytest
from oracles import (
    cartan_pairing,
    dense_generate_roots,
    dense_reflection_perms,
    dense_sum_table,
    index_of,
    p1_fibration_candidates,
    parabolic_from_nodes,
    root_sum,
    sum_index,
)
from transcripts import transcript

from lieorbits import rootsys
from lieorbits.rootsys import (
    ConsistencyError,
    Root,
    RootDatum,
    build_root_system,
    cartan_matrix,
    diagram_components_after_removal,
    involution_i,
)

# classical root counts: A_n n(n+1), B_n/C_n 2n^2, D_n 2n(n-1), E6 72, F4 48, G2 12
CLASSICAL_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("B", 2): 8,
    ("B", 3): 18,
    ("B", 4): 32,
    ("C", 2): 8,
    ("C", 3): 18,
    ("C", 4): 32,
    ("D", 4): 24,
    ("E", 6): 72,
    ("F", 4): 48,
    ("G", 2): 12,
}


@pytest.mark.parametrize("key", sorted(CLASSICAL_COUNTS))
def test_root_counts_match_classical_formulas(key):
    rd = build_root_system(*key)
    assert len(rd.roots) == CLASSICAL_COUNTS[key]
    assert rd.positive_count == CLASSICAL_COUNTS[key] // 2


@pytest.mark.parametrize("key", sorted(k for k in CLASSICAL_COUNTS if k[0] in "ABCD"))
def test_the_root_bound_counts_roots_as_the_classical_formulas(monkeypatch, key):
    count = CLASSICAL_COUNTS[key]
    monkeypatch.setattr(rootsys, "MAX_ROOTS", count)
    rootsys.validate_type(*key)
    monkeypatch.setattr(rootsys, "MAX_ROOTS", count - 1)
    with pytest.raises(ValueError, match=f"has {count} roots, over the limit {count - 1}$"):
        rootsys.validate_type(*key)


@pytest.mark.parametrize("lie_type, largest", [("A", 157), ("B", 111), ("C", 111), ("D", 112)])
def test_classical_ranks_stop_at_the_root_bound(lie_type, largest):
    # only validated: the largest admitted data hold millions of table entries
    rootsys.validate_type(lie_type, largest)
    with pytest.raises(ValueError, match=rf"^type {lie_type}{largest + 1} has \d+ roots, over"):
        build_root_system(lie_type, largest + 1)


def test_rank_one_is_plus_minus_alpha():
    rd = build_root_system("A", 1)
    assert sorted(r.coords for r in rd.roots) == [(-1,), (1,)]


def test_regeneration_is_idempotent():
    for key in CLASSICAL_COUNTS:
        rd = build_root_system(*key)
        again = RootDatum(*key, rd.cartan)
        assert again is not rd
        assert again.roots == rd.roots
        assert again.reflection_perms() == rd.reflection_perms()


def test_d3_normalises_to_a3():
    rd = build_root_system("D", 3)
    assert rd is build_root_system("A", 3)


@pytest.mark.parametrize(
    "lie_type,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_types_are_rejected_with_ranges(lie_type, rank):
    with pytest.raises(ValueError):
        build_root_system(lie_type, rank)


def test_cartan_invariants():
    for key in CLASSICAL_COUNTS:
        rd = build_root_system(*key)
        for i in range(rd.rank):
            assert rd.cartan[i][i] == 2
            for j in range(rd.rank):
                if i != j:
                    assert rd.cartan[i][j] in (0, -1, -2, -3)


def test_roots_are_one_signed_and_closed_under_negation():
    for key in CLASSICAL_COUNTS:
        rd = build_root_system(*key)
        for r in rd.roots:
            assert all(c >= 0 for c in r.coords) or all(c <= 0 for c in r.coords)
            assert (-r).coords in rd.root_index


ORACLE_KEYS = (
    [("A", n) for n in range(1, 13)]
    + [("A", 30)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("key", ORACLE_KEYS, ids=lambda key: f"{key[0]}{key[1]}")
def test_tables_match_the_dense_oracles(key):
    # the reflection walk against a dense pairing of every root with every
    # node, on the cached datum and on one built directly from the Cartan matrix
    cartan = cartan_matrix(*key)
    fresh = RootDatum(*key, cartan)
    roots = [r.coords for r in fresh.roots]
    assert roots == dense_generate_roots(cartan)
    perms = dense_reflection_perms(fresh)
    for rd in (fresh, build_root_system(*key)):
        assert [r.coords for r in rd.roots] == roots
        assert rd.reflection_perms() == perms


@pytest.mark.parametrize("key", [("A", 4), ("E", 6)], ids=lambda key: f"{key[0]}{key[1]}")
def test_one_reflection_walk_builds_a_datum(monkeypatch, key):
    walk = rootsys._reflection_walk
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(rootsys, "_reflection_walk", counted)
    rd = RootDatum(*key, cartan_matrix(*key))
    rd.reflection_perms()
    assert len(calls) == 1


def test_datum_refuses_a_mixed_sign_vector():
    with pytest.raises(ConsistencyError, match="mixed-sign vector generated"):
        RootDatum("A", 2, ((2, 1), (1, 2)))


# hand closure table of A2: the only nontrivial sum is a1 + a2
A2_SUMS = {
    ((1, 0), (0, 1)): (1, 1),
    ((1, 0), (-1, -1)): (0, -1),
    ((0, 1), (-1, -1)): (-1, 0),
}


def test_root_sum_a2_closure_table():
    rd = build_root_system("A", 2)
    for (a, b), c in A2_SUMS.items():
        assert root_sum(rd, Root(a), Root(b)) == Root(c)
    assert root_sum(rd, Root((1, 0)), Root((1, 0))) is None  # 2a never a root
    assert root_sum(rd, Root((1, 0)), Root((1, 1))) is None


def test_root_sum_c2():
    rd = build_root_system("C", 2)
    assert root_sum(rd, Root((1, 0)), Root((1, 1))) == Root((2, 1))


def test_root_sum_commutes_and_respects_negation():
    for key in [("A", 2), ("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        for a in rd.roots:
            for b in rd.roots:
                if a.coords == tuple(-x for x in b.coords):
                    continue
                ab = root_sum(rd, a, b)
                assert ab == root_sum(rd, b, a)
                neg = root_sum(rd, -a, -b)
                assert (ab is None) == (neg is None)
                if ab is not None:
                    assert neg == -ab


SUM_TABLE_KEYS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("key", SUM_TABLE_KEYS, ids=lambda key: f"{key[0]}{key[1]}")
def test_sum_table_matches_coordinate_addition(key):
    rd = build_root_system(*key)
    table = dense_sum_table(rd)
    assert len(table) == len(rd.roots)
    for i, a in enumerate(rd.roots):
        want = {}
        for j, b in enumerate(rd.roots):
            k = rd.root_index.get(tuple(x + y for x, y in zip(a.coords, b.coords)))
            if k is not None:
                want[j] = k
        assert table[i] == want
        assert all(sum_index(rd, i, j) == want.get(j) for j in range(len(rd.roots)))


def test_sum_table_is_built_once_per_datum():
    # two fresh data, bypassing the cache of build_root_system
    rd, other = (build_root_system.__wrapped__("B", 3) for _ in range(2))
    table = dense_sum_table(rd)
    assert dense_sum_table(rd) is table
    assert dense_sum_table(other) == table
    assert dense_sum_table(other) is not table


def test_positive_roots_reachable_by_simple_additions():
    # saturation: every positive root ends a chain of simple-root additions
    for key in [("A", 3), ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        rd = build_root_system(*key)
        simples = {rd.roots[rd.simple_root_index(i)] for i in range(rd.rank)}
        reached = set(simples)
        frontier = list(simples)
        while frontier:
            cur = frontier.pop()
            for s in simples:
                nxt = root_sum(rd, cur, s)
                if nxt is not None and nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        positives = {rd.roots[i] for i in range(rd.positive_count)}
        assert reached == positives


def test_cartan_pairing_examples():
    for key in CLASSICAL_COUNTS:
        rd = build_root_system(*key)
        omega1 = tuple(1 if i == 0 else 0 for i in range(rd.rank))
        assert cartan_pairing(rd, omega1, 0, basis="weight") == 1
    a2 = build_root_system("A", 2)
    assert cartan_pairing(a2, Root((1, 0)), 1) == -1  # <a1, a2-check>
    a3 = build_root_system("A", 3)
    assert cartan_pairing(a3, Root((0, 1, 0)), 0) == -1  # <a2, a1-check>
    with pytest.raises(ValueError):
        cartan_pairing(a2, Root((1, 0)), 5)


def test_components_after_removal_examples():
    a3 = build_root_system("A", 3)
    comps = diagram_components_after_removal(a3, {1})  # remove node 2
    assert [(c.lie_type, c.rank) for c in comps] == [("A", 1), ("A", 1)]

    a4 = build_root_system("A", 4)
    comps = diagram_components_after_removal(a4, {1})
    assert [(c.lie_type, c.rank, c.nodes) for c in comps] == [
        ("A", 1, (0,)),
        ("A", 2, (2, 3)),
    ]
    assert dict(comps[1].relabel) == {2: 0, 3: 1}


def test_remove_nothing_returns_the_diagram_itself():
    for key in [("A", 3), ("B", 3), ("C", 2), ("D", 4), ("F", 4), ("G", 2), ("E", 6)]:
        rd = build_root_system(*key)
        comps = diagram_components_after_removal(rd, frozenset())
        assert len(comps) == 1
        assert (comps[0].lie_type, comps[0].rank) == key
        assert dict(comps[0].relabel) == {i: i for i in range(rd.rank)}


def test_component_classification_distinguishes_b_and_c_tails():
    b4 = build_root_system("B", 4)
    comps = diagram_components_after_removal(b4, {0})
    assert [(c.lie_type, c.rank) for c in comps] == [("B", 3)]
    c4 = build_root_system("C", 4)
    comps = diagram_components_after_removal(c4, {0})
    assert [(c.lie_type, c.rank) for c in comps] == [("C", 3)]


def test_removal_validates_node_indices():
    with pytest.raises(ValueError):
        diagram_components_after_removal(build_root_system("A", 2), {5})


def check_marks_land_on_their_components(rd, removed, marked):
    comps = diagram_components_after_removal(rd, removed, marked)
    for comp in comps:
        relabel = dict(comp.relabel)
        held = sorted(frozenset(comp.nodes) & marked, key=relabel.get)
        assert comp.marked == tuple(held), (rd, removed, marked, comp)
        assert comp.marked_std == tuple(sorted(relabel[j] for j in held))
    assert sorted(j for comp in comps for j in comp.marked) == sorted(marked - removed)


def node_subsets(rank):
    return [frozenset(j for j in range(rank) if bits >> j & 1) for bits in range(1 << rank)]


@pytest.mark.parametrize(
    "key",
    [("A", n) for n in range(1, 6)] + [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)]
    + [("D", 4), ("D", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6)],
    ids=lambda k: f"{k[0]}{k[1]}",
)
def test_marks_land_on_their_components_in_standard_labels(key):
    # every (removed, marked) pair: each component holds the marks among its
    # nodes, listed by standard label, beside those standard labels ascending
    rd = build_root_system(*key)
    subsets = node_subsets(rd.rank)
    for removed in subsets:
        for marked in subsets:
            check_marks_land_on_their_components(rd, removed, marked)


@pytest.mark.parametrize("rank", [7, 8])
def test_marks_land_on_their_components_on_seeded_e7_e8_pairs(rank):
    rd = build_root_system("E", rank)
    rng = random.Random(rank)
    for _ in range(300):
        removed = frozenset(j for j in range(rank) if rng.random() < 0.3)
        marked = frozenset(j for j in range(rank) if rng.random() < 0.5)
        check_marks_land_on_their_components(rd, removed, marked)


def test_removal_validates_mark_indices():
    with pytest.raises(ValueError):
        diagram_components_after_removal(build_root_system("A", 2), {0}, {5})


def test_involution_fixtures():
    assert involution_i(build_root_system("A", 1)) == (0,)
    assert involution_i(build_root_system("A", 3)) == (2, 1, 0)
    assert involution_i(build_root_system("C", 2)) == (0, 1)
    # w0 = -1 in D4, so the involution is trivial there
    assert involution_i(build_root_system("D", 4)) == (0, 1, 2, 3)
    assert involution_i(build_root_system("A", 4)) == (3, 2, 1, 0)


def test_involution_is_diagram_automorphism_everywhere():
    for key in CLASSICAL_COUNTS:
        rd = build_root_system(*key)
        perm = involution_i(rd)
        assert sorted(perm) == list(range(rd.rank))
        for a in range(rd.rank):
            assert perm[perm[a]] == a
            for b in range(rd.rank):
                assert rd.cartan[perm[a]][perm[b]] == rd.cartan[a][b]


def dynkin_dot(lie_type, rank):
    argv = ["root-system", "--type", lie_type, "--rank", str(rank), "--format", "dot"]
    return transcript(argv)["stdout"]


def test_dynkin_dot_deterministic_and_shaped():
    dot = dynkin_dot("A", 3)
    assert dot == dynkin_dot("A", 3)
    assert dot.count(" -- ") == 2
    g2 = dynkin_dot("G", 2)
    assert g2.count("arrowhead") == 3  # triple edge
    b2 = dynkin_dot("B", 2)
    # arrow points at the short root, which is node 2 in this labelling
    assert "n1 -- n2 [dir=forward" in b2


def test_rootdatum_repr_and_lookup():
    rd = build_root_system("A", 2)
    assert "A2" in repr(rd)
    with pytest.raises(ValueError):
        index_of(rd, Root((5, 5)))


def _node_entry_points():
    """Every public entry point taking a node set or a node index, called
    with the single node ``n`` on A3."""
    from lieorbits import curves, desing, orbits, parabolic, weyl

    def cls(n):
        return curves.curve_class([n], [1])

    e = weyl.identity
    return {
        "simple_reflection": lambda rd, n: weyl.simple_reflection(rd, n),
        "from_word": lambda rd, n: weyl.from_word(rd, [n]),
        "double_coset_orbits": lambda rd, n: weyl.double_coset_orbits(rd, [n], []),
        "parabolic_from_nodes": lambda rd, n: parabolic_from_nodes(
            rd, [n], parabolic.standard_borel(rd)
        ),
        "standard_parabolic_set": lambda rd, n: parabolic.standard_parabolic_set(rd, [n]),
        "cartan_pairing": lambda rd, n: cartan_pairing(rd, rd.roots[0], n),
        "diagram_components_after_removal": lambda rd, n: diagram_components_after_removal(
            rd, [n]
        ),
        "weyl_generators": lambda rd, n: orbits.weyl_generators(rd, [n]),
        "quotient_dimension": lambda rd, n: orbits.quotient_dimension(rd, [n]),
        "orbit_table": lambda rd, n: orbits.orbit_table(rd, [n], [0]),
        "orbit_dimension": lambda rd, n: orbits.orbit_dimension(rd, e(rd), [n], [0]),
        "complement_codim_ge2": lambda rd, n: orbits.complement_codim_ge2(rd, [n], [0]),
        "levi_quotient": lambda rd, n: orbits.levi_quotient(rd, [n], [0]),
        "nilradical_filtration": lambda rd, n: orbits.nilradical_filtration(rd, [n]),
        "build_tower": lambda rd, n: desing.build_tower(rd, [n], e(rd)),
        "smoothness_sufficient": lambda rd, n: desing.smoothness_sufficient(rd, [n], e(rd)),
        "minimal_schubert": lambda rd, n: desing.minimal_schubert(rd, [n], e(rd)),
        "tangent_degree": lambda rd, n: curves.tangent_degree(rd, [n], cls(n)),
        "hilbert_dimension": lambda rd, n: curves.hilbert_dimension(rd, [n], cls(n)),
        "decide_smooth_rational_curve": lambda rd, n: curves.decide_smooth_rational_curve(
            rd, [n], cls(n)
        ),
        "p1_fibration_candidates": lambda rd, n: p1_fibration_candidates(rd, [n]),
        "anticanonical_coefficients": lambda rd, n: curves.anticanonical_coefficients(rd, [n]),
    }


@pytest.mark.parametrize("bad", [3, -1])
@pytest.mark.parametrize("name", sorted(_node_entry_points()))
def test_entry_points_reject_out_of_range_nodes_with_one_message(name, bad):
    rd = build_root_system("A", 3)
    with pytest.raises(ValueError) as exc:
        _node_entry_points()[name](rd, bad)
    assert str(exc.value) == f"node index {bad} out of range 0..2"


def test_roots_negate_hash_and_report_support_by_coordinates():
    r = Root((1, 0, 2))
    assert -r == Root((-1, 0, -2)) and -(-r) == r
    assert r.support == frozenset({0, 2}) == (-r).support
    assert r.support is r.support  # computed once, on first use
    assert Root((1, 0, 2)) == r and hash(Root((1, 0, 2))) == hash(r)
    assert len({r, Root((1, 0, 2)), -r}) == 2
    assert r != (1, 0, 2)
