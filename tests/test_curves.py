"""Curve-class positivity, tangent/family dimensions, fibration reductions
and the smooth-existence decision."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest
from oracles import lift_feasible, p1_fibration_candidates

from lieorbits.curves import (
    anticanonical_coefficients,
    curve_class,
    decide_smooth_rational_curve,
    hilbert_dimension,
    positivity,
    reduce_positive_class,
    tangent_degree,
    tangent_degree_from_roots,
)
from lieorbits.orbits import DomainRefusal
from lieorbits.rootsys import build_root_system


def plane_curve_genus(d):
    return (d - 1) * (d - 2) // 2


def quadric_curve_genus(a, b):
    return (a - 1) * (b - 1)


def nonempty_subsets(rank):
    return [frozenset(c) for k in range(1, rank + 1) for c in combinations(range(rank), k)]


def test_positivity_trivials():
    assert positivity(curve_class({0, 1}, [1, 1])) == "strict"
    assert positivity(curve_class({0, 1}, [0, 2])) == "positive"
    assert positivity(curve_class({0, 1}, [-1, 3])) == "outside"


def test_curve_class_validation():
    with pytest.raises(ValueError):
        curve_class({0, 1}, [1])
    c = curve_class({2, 0}, [5, 7])
    assert c.nodes == (0, 2) and c.degree(0) == 5 and c.degree(2) == 7
    with pytest.raises(KeyError):
        c.degree(1)


def test_tangent_degree_projective_space_calibration():
    for n in range(1, 7):
        rd = build_root_system("A", n)
        for d in range(4):
            c = curve_class({0}, [d])
            assert tangent_degree(rd, {0}, c) == (n + 1) * d
            assert tangent_degree_from_roots(rd, {0}, c) == (n + 1) * d


def test_tangent_degree_flag_fixture():
    rd = build_root_system("A", 2)
    assert tangent_degree(rd, {0, 1}, curve_class({0, 1}, [1, 0])) == 2
    assert tangent_degree(rd, {0, 1}, curve_class({0, 1}, [1, 1])) == 4


def test_tangent_degree_is_additive():
    rd = build_root_system("C", 2)
    for da in product(range(3), repeat=2):
        for db in product(range(3), repeat=2):
            ca = curve_class({0, 1}, da)
            cb = curve_class({0, 1}, db)
            cab = curve_class({0, 1}, [x + y for x, y in zip(da, db)])
            assert tangent_degree(rd, {0, 1}, cab) == tangent_degree(
                rd, {0, 1}, ca
            ) + tangent_degree(rd, {0, 1}, cb)


def test_tangent_degree_two_routes_agree():
    for key in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        for marks in nonempty_subsets(rd.rank):
            nodes = tuple(sorted(marks))
            for degs in product(range(4), repeat=len(nodes)):
                c = curve_class(marks, degs)
                assert tangent_degree(rd, marks, c) == tangent_degree_from_roots(
                    rd, marks, c
                )


def test_tangent_degree_requires_matching_keys():
    rd = build_root_system("A", 3)
    with pytest.raises(ValueError):
        tangent_degree(rd, {0}, curve_class({1}, [1]))


def test_hilbert_dimension_fixtures():
    a3 = build_root_system("A", 3)
    assert hilbert_dimension(a3, {0}, curve_class({0}, [1])) == 4  # lines in P3
    assert hilbert_dimension(a3, {0}, curve_class({0}, [2])) == 8  # conics in P3
    a2 = build_root_system("A", 2)
    assert hilbert_dimension(a2, {0, 1}, curve_class({0, 1}, [1, 1])) == 4


def test_hilbert_dimension_lines_in_projective_space():
    # family of lines = Grassmannian, dimension 2(n-1)
    for n in range(2, 7):
        rd = build_root_system("A", n)
        assert hilbert_dimension(rd, {0}, curve_class({0}, [1])) == 2 * (n - 1)


def test_hilbert_dimension_refuses_outside_cone():
    rd = build_root_system("A", 3)
    with pytest.raises(DomainRefusal):
        hilbert_dimension(rd, {0}, curve_class({0}, [-1]))


def test_hilbert_dimension_refuses_a_point():
    # P = G: G/P is a point, so no curve family has a dimension
    for key in [("A", 1), ("A", 3), ("G", 2), ("E", 6)]:
        rd = build_root_system(*key)
        with pytest.raises(DomainRefusal, match="point"):
            hilbert_dimension(rd, frozenset(), curve_class(frozenset(), []))


# Fano indices of the exceptional G/P_k at nodes 1..rank (maximal parabolics)
EXCEPTIONAL_FANO = {
    ("E", 6): (12, 11, 9, 7, 9, 12),
    ("E", 7): (17, 14, 11, 8, 10, 13, 18),
    ("E", 8): (23, 17, 13, 9, 11, 14, 19, 29),
    ("F", 4): (8, 5, 7, 11),
    ("G", 2): (5, 3),
}


def fano_index(lie_type, n, k):
    """Classical Fano index of G/P_k, with k the 1-based marked node."""
    if lie_type == "A":
        return n + 1
    if lie_type == "B":
        return 2 * n - k if k < n else 2 * n
    if lie_type == "C":
        return 2 * n - k + 1
    if lie_type == "D":
        return 2 * n - k - 1 if k <= n - 2 else 2 * n - 2
    return EXCEPTIONAL_FANO[lie_type, n][k - 1]


@pytest.mark.parametrize(
    "key",
    [("A", 5), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    ids=lambda key: f"{key[0]}{key[1]}",
)
def test_anticanonical_coefficient_at_a_maximal_parabolic_is_the_fano_index(key):
    rd = build_root_system(*key)
    got = [anticanonical_coefficients(rd, {k})[k] for k in range(rd.rank)]
    assert got == [fano_index(*key, k) for k in range(1, rd.rank + 1)]


def long_root_nodes(rd):
    """Nodes whose simple root is long.  Squared lengths travel along the
    diagram as |a_j|^2 / |a_i|^2 = <a_j, a_i-check> / <a_i, a_j-check>."""
    sq = {0: Fraction(1)}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(rd.rank):
            if j not in sq and rd.cartan[i][j]:
                sq[j] = sq[i] * Fraction(rd.cartan[i][j], rd.cartan[j][i])
                frontier.append(j)
    top = max(sq.values())
    return [k for k in range(rd.rank) if sq[k] == top]


LINE_KEYS = (
    [("A", 1), ("A", 2), ("A", 5), ("A", 8), ("B", 2), ("B", 3), ("B", 4), ("B", 6)]
    + [("C", 3), ("C", 4), ("C", 6), ("D", 4), ("D", 5), ("D", 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_lines_on_a_long_root_quotient_form_the_neighbour_quotient():
    # for a long simple root a_k the lines on G/P_k make up G/P_N(k), N(k) the
    # neighbours of k (Cohen-Cooperstein; Landsberg-Manivel 2003); the
    # short-root nodes are left out, since their lines are not of this form
    checked = 0
    for key in LINE_KEYS:
        rd = build_root_system(*key)
        for k in long_root_nodes(rd):
            nbrs = [j for j in range(rd.rank) if j != k and rd.cartan[k][j]]
            want = sum(
                1 for r in rd.roots[: rd.positive_count] if any(r.coords[j] for j in nbrs)
            )
            assert hilbert_dimension(rd, {k}, curve_class({k}, [1])) == want, (key, k + 1)
            checked += 1
    assert checked == 70  # the other 17 nodes of these types are short


def test_p1_fibration_fixtures():
    a2 = build_root_system("A", 2)
    assert [f.node for f in p1_fibration_candidates(a2, {0, 1})] == [0, 1]
    a3 = build_root_system("A", 3)
    assert p1_fibration_candidates(a3, {0, 2}) == []
    assert [f.node for f in p1_fibration_candidates(a3, {0, 1, 2})] == [0, 1, 2]
    assert [f.node for f in p1_fibration_candidates(a3, {0})] == []


def test_p1_fibration_relative_degree_matches_cartan_pairing():
    a2 = build_root_system("A", 2)
    cands = p1_fibration_candidates(a2, {0, 1})
    c = curve_class({0, 1}, [3, 1])
    assert cands[0].relative_degree(c) == 2 * 3 - 1  # pairing with alpha_1
    assert cands[1].relative_degree(c) == -3 + 2  # pairing with alpha_2
    g2 = build_root_system("G", 2)
    gc = p1_fibration_candidates(g2, {0, 1})
    d1, d2 = 2, 5
    c = curve_class({0, 1}, [d1, d2])
    degs = {f.node: f.relative_degree(c) for f in gc}
    assert degs[0] == 2 * d1 - d2
    assert degs[1] == -3 * d1 + 2 * d2


def test_borel_always_has_candidate_with_nonnegative_degree():
    for key in [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2)]:
        rd = build_root_system(*key)
        full = frozenset(range(rd.rank))
        cands = p1_fibration_candidates(rd, full)
        assert cands
        for degs in product(range(3), repeat=rd.rank):
            c = curve_class(full, degs)
            if positivity(c) == "outside":
                continue
            assert any(f.relative_degree(c) >= 0 for f in cands)


def test_reduce_positive_class_fixtures():
    a3 = build_root_system("A", 3)
    full = frozenset(range(3))
    for d in (1, 2):
        factors = reduce_positive_class(a3, full, curve_class(full, [d, 0, d]))
        assert [(f.lie_type, f.rank, f.restricted.degrees) for f in factors] == [
            ("A", 1, (d,)),
            ("A", 1, (d,)),
        ]
    assert reduce_positive_class(a3, full, curve_class(full, [0, 0, 0])) == []
    with pytest.raises(DomainRefusal):
        reduce_positive_class(a3, full, curve_class(full, [1, 1, 1]))
    with pytest.raises(DomainRefusal):
        reduce_positive_class(a3, full, curve_class(full, [1, -1, 0]))


def test_reduce_outputs_strictly_positive_and_small():
    for key in [("A", 3), ("A", 4), ("C", 3)]:
        rd = build_root_system(*key)
        for marks in nonempty_subsets(rd.rank):
            nodes = tuple(sorted(marks))
            for degs in product(range(3), repeat=len(nodes)):
                c = curve_class(marks, degs)
                if positivity(c) != "positive":
                    continue
                factors = reduce_positive_class(rd, marks, c)
                assert sum(f.rank for f in factors) <= rd.rank
                for f in factors:
                    assert all(d > 0 for d in f.restricted.degrees)


def test_lift_feasible_fixtures():
    assert lift_feasible(3, 1) == (True, True)
    assert lift_feasible(2, 1) == (False, False)
    assert lift_feasible(0, 0) == (True, False)
    assert lift_feasible(1, 3) == (False, False)
    with pytest.raises(ValueError):
        lift_feasible(-1, 0)
    with pytest.raises(ValueError):
        lift_feasible(2, -2)


def test_decide_on_projective_spaces():
    # the projective line only carries its own class; the plane stops at conics
    p1 = build_root_system("A", 1)
    for d in range(1, 6):
        v = decide_smooth_rational_curve(p1, {0}, curve_class({0}, [d]))
        assert v.mor_nonempty
        assert v.smooth_curve_exists == (d == 1)
        assert v.exception_hit == "P1"
    p2 = build_root_system("A", 2)
    for d in range(1, 6):
        v = decide_smooth_rational_curve(p2, {0}, curve_class({0}, [d]))
        assert v.mor_nonempty
        assert v.smooth_curve_exists == (plane_curve_genus(d) == 0)
        assert v.exception_hit == "P2"
    p3 = build_root_system("A", 3)
    for d in range(1, 6):
        v = decide_smooth_rational_curve(p3, {0}, curve_class({0}, [d]))
        assert v.smooth_curve_exists and v.exception_hit is None


def test_decide_quadric_product_via_reduction():
    rd = build_root_system("A", 3)
    full = frozenset(range(3))
    for a in range(1, 6):
        for b in range(1, 6):
            v = decide_smooth_rational_curve(rd, full, curve_class(full, [a, 0, b]))
            assert v.mor_nonempty
            assert v.smooth_curve_exists == (quadric_curve_genus(a, b) == 0)
            assert v.exception_hit == "P1xP1"
            assert v.reduction is not None and len(v.reduction) == 2


def test_decide_zero_class_and_outside():
    rd = build_root_system("A", 2)
    full = frozenset(range(2))
    v = decide_smooth_rational_curve(rd, full, curve_class(full, [0, 0]))
    assert v.mor_nonempty and not v.smooth_curve_exists and v.reduction == ()
    v = decide_smooth_rational_curve(rd, full, curve_class(full, [1, -1]))
    assert not v.mor_nonempty and not v.smooth_curve_exists


def test_decide_point_has_no_smooth_curve():
    # P = G: constant maps exist, embedded curves do not
    for key in [("A", 1), ("A", 3), ("B", 3), ("G", 2)]:
        rd = build_root_system(*key)
        v = decide_smooth_rational_curve(rd, frozenset(), curve_class(frozenset(), []))
        assert v.mor_nonempty and not v.smooth_curve_exists
        assert v.exception_hit is None and v.reduction is None


def test_decide_smooth_implies_nonempty_and_monotone():
    for key in [("A", 3), ("C", 2)]:
        rd = build_root_system(*key)
        for marks in nonempty_subsets(rd.rank):
            nodes = tuple(sorted(marks))
            for degs in product(range(3), repeat=len(nodes)):
                c = curve_class(marks, degs)
                v = decide_smooth_rational_curve(rd, marks, c)
                if v.smooth_curve_exists:
                    assert v.mor_nonempty
                # monotone when the decision did not route through one of
                # the exceptional shapes
                if v.exception_hit is None and v.smooth_curve_exists:
                    for k in range(len(degs)):
                        up = list(degs)
                        up[k] += 1
                        vv = decide_smooth_rational_curve(
                            rd, marks, curve_class(marks, up)
                        )
                        assert vv.smooth_curve_exists


def test_decide_triple_line_product():
    # a boundary class on A4 flags reducing to three line factors always lifts
    rd = build_root_system("A", 4)
    full = frozenset(range(4))
    # nodes 1, 3 are kept apart by zero-degree node 2... use degrees on 1,3,5-like split
    c = curve_class(full, [2, 0, 3, 2])
    factors = reduce_positive_class(rd, full, c)
    assert [f.rank for f in factors] == [1, 2]
    v = decide_smooth_rational_curve(rd, full, c)
    assert v.smooth_curve_exists and v.exception_hit is None


def test_decide_plane_times_line():
    # reduction to P2 x P1 always carries an embedded curve
    rd = build_root_system("A", 4)
    full = frozenset(range(4))
    c = curve_class(full, [3, 3, 0, 4])
    factors = reduce_positive_class(rd, full, c)
    shapes = sorted((f.lie_type, f.rank) for f in factors)
    assert shapes == [("A", 1), ("A", 2)]
    v = decide_smooth_rational_curve(rd, full, c)
    assert v.smooth_curve_exists and v.exception_hit is None
