"""The library against brute-force references: the variety a Schubert
tower resolves, found from its torus-fixed points; subdiagram types against
the search over every relabelling; Bruhat order against the subword order."""

from __future__ import annotations

from itertools import combinations

import pytest
from oracles import classify_by_permutations

from lieorbits.desing import build_tower
from lieorbits.parabolic import apply_element, standard_parabolic_set
from lieorbits.rootsys import build_root_system, classify_subdiagram
from lieorbits.weyl import bruhat_leq, from_word, weyl_group


def type_id(key):
    return f"{key[0]}{key[1]}"


def all_marks(rank):
    return [frozenset(c) for k in range(rank + 1) for c in combinations(range(rank), k)]


def stabiliser(group, s):
    """The elements of ``group`` that map the root set ``s`` onto itself."""
    return [v for v in group if apply_element(v, s) == s]


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)], ids=type_id)
def test_the_tower_resolves_the_translate_of_the_schubert_variety_of_the_inverse(key):
    # the torus-fixed points of F_1 x^{J_1} ... x^{J_{k-1}} F_k / P are the
    # tuples (u_1, ..., u_k), u_i in W_{F_i} / W_{J_i}, and the tower's map
    # sends them to u_1 ... u_k W_P; a coset v W_P is the parabolic v(P)
    rd = build_root_system(*key)
    group = weyl_group(rd)
    not_x_w = 0
    for marks in all_marks(rd.rank):
        p = standard_parabolic_set(rd, marks)
        for w in group:
            image = {p}
            for factor in reversed(build_tower(rd, marks, w).factors):
                image = {apply_element(v, s) for v in stabiliser(group, factor) for s in image}
            w_inv = w.inverse()
            assert image == {apply_element(w * v, p) for v in group if bruhat_leq(v, w_inv)}
            not_x_w += image != {apply_element(v, p) for v in group if bruhat_leq(v, w)}
    assert not_x_w > 0


def connected_subdiagrams(rd):
    adjacency = rd.adjacency()
    for k in range(1, rd.rank + 1):
        for nodes in combinations(range(rd.rank), k):
            seen, frontier = {nodes[0]}, [nodes[0]]
            while frontier:
                for j in adjacency[frontier.pop()]:
                    if j in nodes and j not in seen:
                        seen.add(j)
                        frontier.append(j)
            if len(seen) == k:
                yield nodes


def test_subdiagram_types_match_the_search_over_every_relabelling():
    keys = [("A", 7), ("B", 7), ("C", 7), ("D", 7), ("D", 8), ("E", 6), ("E", 7), ("E", 8),
            ("F", 4), ("G", 2), ("B", 2), ("C", 2), ("D", 4)]
    count = 0
    for key in keys:
        rd = build_root_system(*key)
        for nodes in connected_subdiagrams(rd):
            want = classify_by_permutations(rd, nodes)
            assert classify_subdiagram(rd, nodes) == want, (key, nodes)
            count += 1
    assert count == 290


def subword_products(rd, word):
    """Every element spelled by a subword of ``word``."""
    out = {from_word(rd, ())}
    for i in reversed(word):
        out |= {from_word(rd, (i,)) * v for v in out}
    return out


@pytest.mark.parametrize("key", [("B", 2), ("G", 2), ("A", 3)], ids=type_id)
def test_bruhat_order_is_the_subword_order(key):
    rd = build_root_system(*key)
    group = weyl_group(rd)
    for w in group:
        below = subword_products(rd, w.reduced_word())
        assert {u for u in group if bruhat_leq(u, w)} == below
