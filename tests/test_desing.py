"""Schubert towers and their Demazure refinement, checked exhaustively on
small ranks against Weyl-group oracles, plus golden CLI transcripts.

Regenerate the golden file from a trusted tree with
``PYTHONPATH=src python tests/test_desing.py``; the tests only read it.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from transcripts import GOLDEN_DIR, check_golden, write_golden

from lieorbits.desing import (
    borel_completion,
    build_tower,
    demazure_refinement,
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
