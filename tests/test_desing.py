"""Schubert towers and their Demazure refinement, checked exhaustively on
small ranks against Weyl-group oracles, plus golden CLI transcripts.

Regenerate the golden file from a trusted tree with
``PYTHONPATH=src python tests/test_desing.py``; the tests only read it.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations

import pytest
from transcripts import GOLDEN_DIR, check_golden, write_golden

from lieorbits.desing import (
    borel_completion,
    build_tower,
    demazure_refinement,
    minimal_schubert,
    smoothness_sufficient,
    tower_dimension,
)
from lieorbits.parabolic import (
    apply_element,
    borel_to_weyl,
    standard_borel,
    standard_parabolic_set,
)
from lieorbits.rootsys import build_root_system
from lieorbits.weyl import (
    bruhat_leq,
    from_word,
    identity,
    permutation_to_word,
    simple_reflection,
    weyl_group,
)

GOLDEN = GOLDEN_DIR / "desing_cli.json"
GOLDEN_TYPES = GOLDEN_DIR / "desing_cli_types.json"
SMALL = [("A", 2), ("A", 3), ("B", 3), ("G", 2)]

# (type, rank): words in CLI syntax, --p values (None leaves P = B)
CLI_CASES = {
    ("A", 3): (["", "1", "2 1 3 2", "3412", "4231", "1 2 1 3 2 1"], [None, "2", "1,3"]),
    ("B", 3): (["", "3", "1 2 3", "3 2 3 2", "1 2 3 2 1 2"], [None, "1", "3"]),
    ("G", 2): (["", "1", "1 2", "2 1 2", "1 2 1 2 1 2"], [None, "1", "2"]),
}

# the same four commands in JSON on the larger exceptional and simply laced types
TYPE_CASES = {
    ("D", 4): (
        ["", "2", "1 2 3 4", "2 1 3 4 2", "4 2 3 1 2 4 1 2 3 1 2 1"],
        [None, "2", "1,3,4"],
    ),
    ("F", 4): (
        ["", "3", "1 2 3 4", "3 2 3 4 3 2 1", "4 3 2 3 1 2 3 4 3 2 3 1 2 3 4 3 2 3 1 2 3 1 2 1"],
        [None, "1", "4"],
    ),
    ("E", 6): (
        ["", "4", "1 3 4 5 6 2", "2 4 3 5 4 2 6 5 4", "1 3 4 5 6 2 4 5 3 4 1 3 2 4 5 6"],
        [None, "2", "1,6"],
    ),
}


def type_id(key):
    return f"{key[0]}{key[1]}"


def towers(rd):
    """Every (w, P marks, tower) of the datum."""
    for w in weyl_group(rd):
        for k in range(rd.rank + 1):
            for marks in combinations(range(rd.rank), k):
                yield w, frozenset(marks), build_tower(rd, marks, w)


def left_coset(rd, gens, w):
    """The coset W_P w, W_P generated by the simple reflections ``gens``."""
    seen = {w}
    frontier = [w]
    while frontier:
        fresh = []
        for g in frontier:
            for i in gens:
                x = simple_reflection(rd, i) * g
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        frontier = fresh
    return seen


@pytest.mark.parametrize("key", SMALL, ids=type_id)
def test_refined_word_is_reduced_and_conjugates_the_base_element(key):
    rd = build_root_system(*key)
    for w, marks, t in towers(rd):
        chain = demazure_refinement(rd, t)
        product = from_word(rd, chain.word)
        assert product.length == len(chain.word)
        u = borel_to_weyl(rd, t.base_borel)
        assert product == u.inverse() * t.base_element * u


@pytest.mark.parametrize("key", SMALL, ids=type_id)
def test_tower_dimension_is_length_of_minimal_left_coset_element(key):
    rd = build_root_system(*key)
    for w, marks, t in towers(rd):
        gens = [i for i in range(rd.rank) if i not in marks]
        want = min(x.length for x in left_coset(rd, gens, w))
        assert tower_dimension(t) == want


@pytest.mark.parametrize("key", SMALL, ids=type_id)
def test_borel_completion_spans_p_and_w_of_b_and_stays_in_the_right_coset(key):
    rd = build_root_system(*key)
    left_misses = 0
    for w, marks, t in towers(rd):
        b, w2 = borel_completion(rd, marks, w)
        assert (b, w2) == (t.base_borel, t.base_element)
        wb = apply_element(w, standard_borel(rd))
        assert apply_element(w2, b) == wb
        assert b | wb == standard_parabolic_set(rd, marks) | wb
        assert w2 == w * borel_to_weyl(rd, b).inverse()
        gens = [i for i in range(rd.rank) if i not in marks]
        assert w.inverse() * w2 in left_coset(rd, gens, identity(rd))  # w2 in w W_P
        left_misses += w2 not in left_coset(rd, gens, w)
    assert left_misses > 0  # W_P w does not always contain w2


def contains_pattern(seq, pattern):
    k = len(pattern)
    order = sorted(range(k), key=lambda a: pattern[a])
    for idx in combinations(range(len(seq)), k):
        vals = [seq[i] for i in idx]
        if sorted(range(k), key=lambda a: vals[a]) == order:
            return True
    return False


def test_smoothness_sufficient_implies_pattern_avoidance_in_a3():
    # Lakshmibai-Sandhya: X_w in SL4/B is smooth iff w avoids 3412 and 4231
    rd = build_root_system("A", 3)
    full = frozenset(range(rd.rank))
    smooth = flagged = 0
    for perm in permutations(range(1, 5)):
        w = from_word(rd, permutation_to_word(perm))
        avoids = not (contains_pattern(perm, (3, 4, 1, 2)) or contains_pattern(perm, (4, 2, 3, 1)))
        sufficient = smoothness_sufficient(rd, full, w)
        assert avoids or not sufficient, perm
        smooth += avoids
        flagged += sufficient
    assert smooth == 22
    assert flagged == 20  # the test is sufficient only: two smooth ones are missed


ORACLE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("A", 4)]


def coset_min_length(rd, w, marks):
    """Length of the minimal element of W_Q w, with W_Q generated by the
    nodes outside ``marks``: the positive roots that meet the marks and that
    w^-1 sends negative (w's other left inversions belong to its W_Q part)."""
    n = rd.positive_count
    inv = w.inverse().perm
    return sum(1 for b in range(n) if inv[b] >= n and not rd.roots[b].support.isdisjoint(marks))


def levi_length(rd, marks):
    """Length of the longest element of W_Q: the positive roots off the marks."""
    return sum(1 for b in range(rd.positive_count) if rd.roots[b].support.isdisjoint(marks))


@functools.cache
def coset_verdicts(key):
    """Per P marks, the left cosets W_P w of the whole group, each mapping
    its members to (smoothness_sufficient, minimal_schubert, tower_dimension)."""
    rd = build_root_system(*key)
    table = {}
    for k in range(rd.rank + 1):
        for marks in map(frozenset, combinations(range(rd.rank), k)):
            gens = [i for i in range(rd.rank) if i not in marks]
            cosets, done = [], set()
            for w in weyl_group(rd):
                if w not in done:
                    coset = left_coset(rd, gens, w)
                    done |= coset
                    cosets.append(
                        {
                            x: (
                                smoothness_sufficient(rd, marks, x),
                                minimal_schubert(rd, marks, x),
                                tower_dimension(build_tower(rd, marks, x)),
                            )
                            for x in coset
                        }
                    )
            table[marks] = cosets
    return rd, table


@pytest.mark.parametrize("key", ORACLE_TYPES, ids=type_id)
def test_smoothness_minimal_model_and_dimension_depend_only_on_the_left_coset(key):
    _, table = coset_verdicts(key)
    for marks, cosets in table.items():
        for coset in cosets:
            # base_word spells w2, which lies in w W_P and so may vary
            seen = {
                (smooth, model.is_minimal, model.p1_nodes, model.dimension, dim)
                for smooth, model, dim in coset.values()
            }
            assert len(seen) == 1, (sorted(marks), sorted(coset, key=lambda x: x.perm)[0])


@pytest.mark.parametrize("key", ORACLE_TYPES, ids=type_id)
def test_minimal_schubert_is_the_largest_parabolic_the_variety_fibres_over(key):
    # Q contains P and the variety is the full preimage of its image in Q\G
    # exactly when the lengths lost to W_Q w match those gained by W_Q
    rd, table = coset_verdicts(key)
    for marks, cosets in table.items():
        coarser = [frozenset(c) for k in range(len(marks) + 1) for c in combinations(sorted(marks), k)]
        for coset in cosets:
            for w, (_, model, _) in coset.items():
                here = coset_min_length(rd, w, marks)
                fibring = [
                    q
                    for q in coarser
                    if here - coset_min_length(rd, w, q) == levi_length(rd, q) - levi_length(rd, marks)
                ]
                assert model.p1_nodes in fibring
                assert all(model.p1_nodes <= q for q in fibring)
                assert model.dimension == coset_min_length(rd, w, model.p1_nodes)


# cosets W_P w, over every P, that smoothness_sufficient flags
FLAGGED = {("A", 3): 65, ("B", 3): 65, ("C", 3): 65, ("G", 2): 13, ("D", 4): 361, ("A", 4): 329}


@pytest.mark.parametrize("key", ORACLE_TYPES, ids=type_id)
def test_smoothness_sufficient_implies_a_palindromic_poincare_polynomial(key):
    # smooth implies rationally smooth, whose Poincare polynomial is
    # palindromic (Carrell-Peterson); the Schubert variety of W_P w has the
    # minimal coset representatives below min(W_P w) as its cells
    rd, table = coset_verdicts(key)
    flagged = 0
    for cosets in table.values():
        reps = [min(coset, key=lambda x: x.length) for coset in cosets]
        for coset, top in zip(cosets, reps):
            if not next(iter(coset.values()))[0]:
                continue
            counts = [0] * (top.length + 1)
            for v in reps:
                if v.length <= top.length and bruhat_leq(v, top):
                    counts[v.length] += 1
            assert counts == counts[::-1], top
            flagged += 1
    assert flagged == FLAGGED[key]


def cli_argvs():
    for (lie_type, rank), (words, marks) in CLI_CASES.items():
        for word in words:
            for p in marks:
                for command in ("desing", "refine", "smooth", "minimal"):
                    formats = ["text", "json"]
                    # dot is desing's alone; one refused request per command suffices
                    if command == "desing" or (word == "" and p is None):
                        formats.append("dot")
                    for fmt in formats:
                        argv = [command, "--type", lie_type, "--rank", str(rank), "--word", word]
                        argv += ["--p", p] if p is not None else []
                        yield argv + ["--format", fmt]


def type_argvs():
    for (lie_type, rank), (words, marks) in TYPE_CASES.items():
        for word in words:
            for p in marks:
                for command in ("desing", "refine", "smooth", "minimal"):
                    argv = [command, "--type", lie_type, "--rank", str(rank), "--word", word]
                    argv += ["--p", p] if p is not None else []
                    yield argv + ["--format", "json"]


def test_cli_transcripts_match_golden_bytes():
    check_golden(GOLDEN, cli_argvs())


def test_cli_transcripts_on_d4_f4_e6_match_golden_bytes():
    check_golden(GOLDEN_TYPES, type_argvs())


if __name__ == "__main__":
    write_golden(GOLDEN, cli_argvs())
    write_golden(GOLDEN_TYPES, type_argvs())
