"""Orbit dimensions, the boundary-codimension diagram test, Levi quotients
and nilradical filtrations."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from oracles import iterated_centres, orbit_dimension, sum_index
from transcripts import transcript

from lieorbits.orbits import (
    DomainRefusal,
    complement_codim_ge2,
    complement_min_codim,
    is_dense_orbit,
    levi_quotient,
    nilradical_filtration,
    nilradical_roots,
    orbit_table,
    quotient_dimension,
    weyl_generators,
)
from lieorbits.rootsys import build_root_system, involution_i
from lieorbits.weyl import from_word, identity, longest_element, simple_reflection, weyl_group


def nonempty_subsets(rank):
    return [frozenset(c) for k in range(1, rank + 1) for c in combinations(range(rank), k)]


def test_quotient_dimension_fixtures():
    a3 = build_root_system("A", 3)
    assert quotient_dimension(a3, {0}) == 3  # projective 3-space
    assert quotient_dimension(a3, {1}) == 4  # Grassmannian of lines
    assert quotient_dimension(a3, {0, 1, 2}) == 6  # full flags
    assert quotient_dimension(a3, frozenset()) == 0


def test_orbit_dimension_fixtures():
    a3 = build_root_system("A", 3)
    e, w0 = identity(a3), longest_element(a3)
    assert orbit_dimension(a3, e, {0}, {0}) == 0
    assert orbit_dimension(a3, w0, {0}, {0}) == 3
    # plane stabiliser acting on projective space: the closed orbit is the plane
    table = orbit_table(a3, {0}, {2})
    assert [o.dimension for o in table if not o.dense] == [2]


def test_dense_orbit_is_w0_orbit_and_unique():
    for key in [("A", 3), ("C", 2)]:
        rd = build_root_system(*key)
        w0 = longest_element(rd)
        for p in nonempty_subsets(rd.rank):
            for pp in nonempty_subsets(rd.rank):
                assert is_dense_orbit(rd, w0, p, pp, cross_check=True)
                table = orbit_table(rd, p, pp)
                assert sum(1 for o in table if o.dense) == 1
                assert sum(o.size for o in table) == len(weyl_group(rd))


def test_density_characterisations_agree_elementwise():
    rd = build_root_system("A", 3)
    for w in weyl_group(rd):
        for p, pp in [({0}, {0}), ({0}, {2}), ({1}, {0, 2})]:
            is_dense_orbit(rd, w, p, pp, cross_check=True)  # raises on mismatch


def test_density_disagreement_carries_w_p_and_pprime_as_trace(monkeypatch):
    import lieorbits.orbits
    from lieorbits.parabolic import ConsistencyError

    rd = build_root_system("A", 3)
    # every element reduced to the same minimum, so any w off the dense orbit disagrees
    monkeypatch.setattr(
        lieorbits.orbits, "double_coset_minimum", lambda w, left, right: identity(rd)
    )
    with pytest.raises(ConsistencyError) as exc:
        is_dense_orbit(rd, from_word(rd, (1,)), {0}, {0}, cross_check=True)
    assert exc.value.trace == {"w": (1,), "p": [0], "pprime": [0]}


def test_point_orbit_when_p_contains_pprime():
    rd = build_root_system("A", 1)
    e = identity(rd)
    assert not is_dense_orbit(rd, e, {0}, {0})
    assert orbit_dimension(rd, e, {0}, {0}) == 0


def test_orbit_sizes_match_stabiliser_count():
    rd = build_root_system("A", 3)
    group = weyl_group(rd)
    for p, pp in [({0}, {0}), ({0}, {2})]:
        wp = [w for w in group if set(w.reduced_word()) <= weyl_generators(rd, p)]
        wpp = [w for w in group if set(w.reduced_word()) <= weyl_generators(rd, pp)]
        for o in orbit_table(rd, p, pp):
            g = o.w
            stab = sum(1 for u in wp for v in wpp if (u * g) * v == g)
            assert o.size * stab == len(wp) * len(wpp)


# every (P, P') of these types, P = G and P' = G included
COUNT_KEYS = [("A", n) for n in range(1, 5)] + [
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2)
]


def assert_dimensions_are_the_root_set_count(rd, p, pp):
    for o in orbit_table(rd, p, pp):
        assert o.dimension == orbit_dimension(rd, o.w, p, pp), (sorted(p), sorted(pp), o.w)


@pytest.mark.parametrize("key", COUNT_KEYS, ids=lambda key: f"{key[0]}{key[1]}")
def test_orbit_dimensions_counted_by_length_are_the_root_set_count(key):
    rd = build_root_system(*key)
    marks = [frozenset()] + nonempty_subsets(rd.rank)
    for p in marks:
        for pp in marks:
            assert_dimensions_are_the_root_set_count(rd, p, pp)


@pytest.mark.parametrize("key", [("E", 6), ("E", 7)], ids=["E6", "E7"])
def test_orbit_dimensions_counted_by_length_on_seeded_exceptional_pairs(key):
    rd = build_root_system(*key)
    rng = random.Random(f"orbit dimensions {key[0]}{key[1]}")
    pairs = [({3}, {3})] if key == ("E", 7) else []  # 149 orbits
    for _ in range(6):
        p, pp = (rng.sample(range(rd.rank), rng.randint(1, 2)) for _ in range(2))
        pairs.append((p, pp))
    for p, pp in pairs:
        assert_dimensions_are_the_root_set_count(rd, frozenset(p), frozenset(pp))


def test_codim_criterion_fixtures():
    a3 = build_root_system("A", 3)
    assert complement_codim_ge2(a3, {0}, {0}) is True
    assert complement_min_codim(a3, {0}, {0}) == 3
    assert complement_codim_ge2(a3, {0}, {2}) is False
    assert complement_min_codim(a3, {0}, {2}) == 1


def test_complement_min_codim_takes_one_shot_iterables():
    a3 = build_root_system("A", 3)
    assert complement_min_codim(a3, iter([0]), [2]) == 1
    assert complement_min_codim(a3, iter([0]), iter([2])) == 1
    assert not is_dense_orbit(a3, identity(a3), iter([0]), iter([2]), cross_check=True)


def test_codim_criterion_equals_brute_force():
    for key in [("A", 3), ("C", 2)]:
        rd = build_root_system(*key)
        for p in nonempty_subsets(rd.rank):
            for pp in nonempty_subsets(rd.rank):
                brute = complement_min_codim(rd, p, pp)
                verdict = brute is None or brute >= 2
                assert complement_codim_ge2(rd, p, pp) == verdict, (p, pp)


def test_maximal_parabolic_choice_always_satisfies_criterion():
    # for any non-Borel parabolic there is a one-node P' avoiding the
    # involuted marks, and any such choice passes the diagram test
    for key in [("A", 3), ("A", 4), ("C", 2)]:
        rd = build_root_system(*key)
        inv = involution_i(rd)
        for p in nonempty_subsets(rd.rank):
            if len(p) == rd.rank:
                continue  # Borel: no such choice exists
            moved = {inv[i] for i in p}
            choices = [s for s in range(rd.rank) if s not in moved]
            assert choices
            for s in choices:
                assert complement_codim_ge2(rd, p, {s})


def test_levi_quotient_bourbaki_fixture():
    # lines in projective 4-space, P' stabilising a line: quotient is the plane
    rd = build_root_system("A", 4)
    lq = levi_quotient(rd, {1}, {1})
    assert lq.torus_rank == 1
    shapes = sorted(
        (f.lie_type, f.rank, tuple(sorted(f.marked_std)))
        for f in lq.factors
    )
    assert shapes == [("A", 1, ()), ("A", 2, (0,))]


def test_levi_quotient_empty_pprime():
    rd = build_root_system("A", 3)
    lq = levi_quotient(rd, {1}, frozenset())
    assert lq.torus_rank == 0
    assert len(lq.factors) == 1
    f = lq.factors[0]
    assert (f.lie_type, f.rank) == ("A", 3)
    assert set(f.marked) == {involution_i(rd)[1]} == {1}


def test_levi_quotient_incidence_fixture():
    # lines through a fixed point of projective 3-space form a plane
    rd = build_root_system("A", 3)
    lq = levi_quotient(rd, {1}, {0})
    marked = [
        (f.lie_type, f.rank, tuple(sorted(f.marked)))
        for f in lq.factors
    ]
    assert marked == [("A", 2, (1,))]  # A2 on nodes {2,3}, marked at node 2


def test_levi_quotient_refuses_and_names_node():
    rd = build_root_system("A", 3)
    with pytest.raises(DomainRefusal, match="node 3"):
        levi_quotient(rd, {0}, {2})  # i({1}) = {3}, which is marked in P'
    with pytest.raises(DomainRefusal, match="node 1"):
        levi_quotient(rd, {2}, {0})


def test_nilradical_fixtures():
    a2 = build_root_system("A", 2)
    assert nilradical_filtration(a2, frozenset()).layers == ()
    nf = nilradical_filtration(a2, {0})
    assert [layer.coords() for layer in nf.layers] == [[(1, 0), (1, 1)]]
    assert nf.is_abelian

    c2 = build_root_system("C", 2)
    nf = nilradical_filtration(c2, {0})
    assert [layer.coords() for layer in nf.layers] == [[(2, 1)], [(1, 0), (1, 1)]]
    assert not nf.is_abelian


# every type of rank at most six, and E6
GRADING_KEYS = (
    [("A", n) for n in range(1, 7)]
    + [(t, n) for t in "BC" for n in range(2, 7)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


def assert_grading_is_the_oracle(rd, marks):
    layers = [layer.indices for layer in nilradical_filtration(rd, marks).layers]
    assert layers == iterated_centres(rd, marks), sorted(marks)


@pytest.mark.parametrize("key", GRADING_KEYS, ids=lambda key: f"{key[0]}{key[1]}")
def test_marked_height_grading_is_the_iterated_centre_series(key):
    rd = build_root_system(*key)
    for marks in [frozenset()] + nonempty_subsets(rd.rank):
        assert_grading_is_the_oracle(rd, marks)


@pytest.mark.parametrize(
    "key", [("A", 30), ("D", 16), ("E", 7), ("E", 8), ("F", 4)], ids=lambda key: f"{key[0]}{key[1]}"
)
def test_marked_height_grading_matches_the_oracle_on_random_marks(key):
    rd = build_root_system(*key)
    rng = random.Random(f"{key[0]}{key[1]}")
    for _ in range(8):
        assert_grading_is_the_oracle(rd, rng.sample(range(rd.rank), rng.randint(1, rd.rank)))


def test_nilradical_layers_partition_and_lower():
    for key in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rd = build_root_system(*key)
        for pp in nonempty_subsets(rd.rank):
            nf = nilradical_filtration(rd, pp)
            nil = nilradical_roots(rd, pp)
            seen = set()
            level = {}
            for depth, layer in enumerate(nf.layers, start=1):
                assert not (layer.indices & seen)
                seen |= layer.indices
                for i in layer.indices:
                    level[i] = depth
            assert seen == nil.indices
            # root sums drop strictly below both summands' layers
            for i in nil.indices:
                for j in nil.indices:
                    k = sum_index(rd, i, j)
                    if k is not None:
                        assert k in nil.indices
                        assert level[k] < min(level[i], level[j])
            # the centre absorbs nothing
            for i in nf.layers[0].indices:
                for j in nil.indices:
                    assert sum_index(rd, i, j) is None


def test_orbit_queries_never_enumerate_the_group(monkeypatch):
    import lieorbits.weyl

    def refuse(rd):
        raise AssertionError("W enumerated")

    monkeypatch.setattr(lieorbits.weyl, "weyl_group", refuse)
    rd = build_root_system("D", 4)
    w0 = longest_element(rd)
    for p, pp in [({0}, {1}), ({1}, {0, 2}), ({0, 1, 2, 3}, {3})]:
        assert sum(1 for o in orbit_table(rd, p, pp) if o.dense) == 1
        complement_min_codim(rd, p, pp)
        assert is_dense_orbit(rd, w0, p, pp, cross_check=True)


def test_orbit_table_checks_sizes_sum_to_group_order(monkeypatch):
    import lieorbits.orbits
    from lieorbits.parabolic import ConsistencyError

    real = lieorbits.orbits.double_coset_orbits

    def one_short(rd, left, right):
        first, *rest = real(rd, left, right)
        return [first._replace(size=first.size - 1), *rest]

    monkeypatch.setattr(lieorbits.orbits, "double_coset_orbits", one_short)
    with pytest.raises(ConsistencyError, match="sum to"):
        orbit_table(build_root_system("A", 3), {0}, {2})


def test_orbit_rows_compare_as_plain_tuples_and_stay_distinct():
    # records are NamedTuples: equality and hashing ignore the record type, so
    # two record types with equal fields would collide in one set or dict; no
    # set or dict in the library holds more than one record type, and the rows
    # of one table never collide with each other
    table = orbit_table(build_root_system("B", 3), {0}, {1, 2})
    first = table[0]
    assert first == tuple(first) and hash(first) == hash(tuple(first))
    assert len(set(table)) == len(table) == len({o.w for o in table})


def test_orbit_table_json_shape():
    argv = ["orbits", "--type", "A", "--rank", "3", "--p", "1", "--pprime", "1", "--format", "json"]
    payload = json.loads(transcript(argv)["stdout"])
    assert payload[0] == {
        "representative_word": [],
        "dimension": 0,
        "size": 6,
        "dense": False,
    }
    assert payload[1]["dense"] is True
