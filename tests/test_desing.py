"""Schubert towers and their Demazure refinement, checked exhaustively on
small ranks against Weyl-group oracles, plus golden CLI transcripts.

Regenerate the golden file from a trusted tree with
``PYTHONPATH=src python tests/test_desing.py``; the tests only read it.
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import combinations, permutations
from pathlib import Path

import pytest

from lieorbits import cli
from lieorbits.desing import (
    build_tower,
    demazure_refinement,
    smoothness_sufficient,
    tower_dimension,
)
from lieorbits.parabolic import borel_to_weyl
from lieorbits.rootsys import build_root_system
from lieorbits.weyl import from_word, permutation_to_word, simple_reflection, weyl_group

GOLDEN = Path(__file__).parent / "golden" / "desing_cli.json"
SMALL = [("A", 2), ("A", 3), ("B", 3), ("G", 2)]

# (type, rank): words in CLI syntax, --p values (None leaves P = B)
CLI_CASES = {
    ("A", 3): (["", "1", "2 1 3 2", "3412", "4231", "1 2 1 3 2 1"], [None, "2", "1,3"]),
    ("B", 3): (["", "3", "1 2 3", "3 2 3 2", "1 2 3 2 1 2"], [None, "1", "3"]),
    ("G", 2): (["", "1", "1 2", "2 1 2", "1 2 1 2 1 2"], [None, "1", "2"]),
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


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_transcripts_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == list(cli_argvs())
    for want in golden:
        assert transcript(want["argv"]) == want, " ".join(want["argv"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([transcript(a) for a in cli_argvs()], indent=1) + "\n")
