"""Golden transcripts of the ``lie`` commands outside the tower pipeline:
``root-system``, ``orbits``, ``codim``, ``levi``, ``nilradical``, ``curves``
and ``hilbert``, in every format, with their refusals and parse errors.

A second golden file repeats the non-tower commands on C3, F4 and E6,
whose DOT arrows, double edges and component relabelling the small types
never reach.  A third pins ``lie --help``, every subcommand's help, and which
error wins when a parse error meets an unsupported ``--format dot``.

Regenerate the golden files from a trusted tree with
``PYTHONPATH=src python tests/test_cli.py``; the tests only read them.
"""

from __future__ import annotations

import pytest
from transcripts import GOLDEN_DIR, check_golden, transcript, write_golden

from lieorbits import cli, orbits

GOLDEN = GOLDEN_DIR / "cli_commands.json"
GOLDEN_TYPES = GOLDEN_DIR / "cli_types.json"
GOLDEN_FRONT = GOLDEN_DIR / "cli_front_end.json"

# (type, rank): node sets in CLI syntax; "" marks no node, so P = G
MARKS = {
    ("A", 3): ["", "1", "2,3", "1,2,3"],
    ("B", 3): ["", "1", "3", "1,2,3"],
    ("G", 2): ["", "1", "2", "1,2"],
    ("D", 4): ["", "2", "1,3,4", "1,2,3,4"],
    ("A", 1): ["", "1"],
    ("D", 3): ["", "1", "2,3"],  # normalised to A3
}
# C3's reversed double edge, F4's middle double edge, and E6's involution and
# relabelled components: levi with P = 1, P' = 2 marks node 6 of an A5 that
# calls it 5
TYPE_MARKS = {
    ("C", 3): ["", "1", "2,3"],
    ("F", 4): ["", "2", "1,4"],
    ("E", 6): ["", "1", "2", "1,3,6"],
}
PAIRED = ("orbits", "codim", "levi")
REFUSE_DOT = PAIRED + ("nilradical", "curves", "hilbert")


def degree_vectors(k):
    """Strict, boundary, outside and wrong-length degree vectors for k marks."""
    if k == 0:
        return ["", "1"]
    rest = ["1"] * (k - 1)
    # the negative entry goes last, as when "--degrees -1,1" was still read as an option
    vectors = (["1"] + rest, ["0"] + rest, ["2"] + rest, rest + ["-1"], ["1"] * (k + 1))
    return [",".join(v) for v in vectors]


def command_argvs(marks_by_type):
    """root-system in every format, then each non-tower command in text and
    JSON over every pair of marks and the degree vectors of each mark."""
    for (lie_type, rank), marks in marks_by_type.items():
        group = ["--type", lie_type, "--rank", str(rank)]
        for fmt in ("text", "json", "dot"):
            yield ["root-system", *group, "--format", fmt]
        for p in marks:
            with_p = [*group, "--p", p]
            for command in PAIRED:
                for pp in marks:
                    for fmt in ("text", "json"):
                        yield [command, *with_p, "--pprime", pp, "--format", fmt]
            k = len(p.split(",")) if p else 0
            for command in ("curves", "hilbert"):
                for degrees in degree_vectors(k):
                    for fmt in ("text", "json"):
                        yield [command, *with_p, "--degrees", degrees, "--format", fmt]
        for pp in marks:
            for fmt in ("text", "json"):
                yield ["nilradical", *group, "--pprime", pp, "--format", fmt]


def type_argvs():
    yield from command_argvs(TYPE_MARKS)
    # degree 0 at node 1 leaves a D5 on nodes 2..6 whose labelling puts node 6
    # before node 3, so the reduction lists the degrees as [2, 1]
    e6 = ["--type", "E", "--rank", "6", "--p", "1,3,6", "--degrees", "0,1,2"]
    for fmt in ("text", "json"):
        yield ["curves", *e6, "--format", fmt]


def cli_argvs():
    yield from command_argvs(MARKS)
    a3 = ["--type", "A", "--rank", "3"]
    for command in REFUSE_DOT:
        yield [command, *a3, "--p", "1", "--pprime", "2", "--degrees", "1", "--format", "dot"]
    yield []
    yield ["root-system", "--type", "H", "--rank", "3"]
    yield ["root-system", "--type", "E", "--rank", "5"]
    yield ["orbits", *a3, "--pprime", "1"]
    yield ["orbits", *a3, "--p", "1"]
    yield ["codim", *a3, "--p", "1"]
    yield ["levi", *a3]
    yield ["nilradical", *a3]
    yield ["curves", *a3, "--p", "1"]
    yield ["hilbert", *a3, "--degrees", "1"]
    yield ["orbits", *a3, "--p", "0", "--pprime", "1"]
    yield ["orbits", *a3, "--p", "1", "--pprime", "4"]
    yield ["levi", *a3, "--p", "x", "--pprime", "1"]
    yield ["nilradical", *a3, "--pprime", "0"]
    yield ["curves", *a3, "--p", "4", "--degrees", "1"]
    yield ["curves", *a3, "--p", "1", "--degrees", "1,x"]
    yield ["hilbert", *a3, "--p", "1", "--degrees", "one"]


def front_end_argvs():
    yield ["--help"]
    for command in cli.COMMANDS:
        yield [command, "--help"]
    # each of these is refused for its own error before the DOT refusal
    a3 = ["--type", "A", "--rank", "3", "--format", "dot"]
    yield ["levi", "--type", "A", "--rank", "0", "--p", "1", "--pprime", "1", "--format", "dot"]
    yield ["nilradical", *a3]
    yield ["orbits", *a3, "--p", "4", "--pprime", "1"]
    yield ["codim", *a3, "--p", "1", "--pprime", "x"]
    yield ["curves", *a3, "--p", "1", "--degrees", "x"]
    yield ["refine", *a3, "--word", "5"]
    yield ["levi", *a3, "--p", "1", "--pprime", "2", "--word", "5"]
    yield ["hilbert", *a3, "--p", "1", "--degrees", "1,x"]


def test_help_and_dot_refusal_order_match_golden_bytes():
    check_golden(GOLDEN_FRONT, front_end_argvs())


def test_command_transcripts_match_golden_bytes():
    check_golden(GOLDEN, cli_argvs())


def test_command_transcripts_on_c3_f4_e6_match_golden_bytes():
    check_golden(GOLDEN_TYPES, type_argvs())


@pytest.mark.parametrize("command", ["curves", "hilbert"])
@pytest.mark.parametrize("degrees", ["-1,1", "-2,-1", "-1"])
def test_leading_negative_degrees_read_as_a_value(command, degrees):
    head = [command, "--type", "A", "--rank", "3", "--p", "1,3"]
    spaced = transcript(head + ["--degrees", degrees, "--format", "json"])
    abbreviated = transcript(head + ["--deg", degrees, "--format", "json"])
    glued = transcript(head + [f"--degrees={degrees}", "--format", "json"])
    assert "expected one argument" not in spaced["stderr"]
    assert {**spaced, "argv": None} == {**abbreviated, "argv": None} == {**glued, "argv": None}


@pytest.mark.parametrize(
    "lie_type, rank, p, pprime, dim, order",
    [("E", 8, "8", "8", 57, 696729600), ("E", 7, "1", "7", 33, 2903040)],
    ids=["E8", "E7"],
)
def test_exceptional_orbit_tables_answer(lie_type, rank, p, pprime, dim, order):
    # |W(E7)| and |W(E8)| are past the default Weyl cap; the orbit of the
    # weight that the table walks is not
    t = transcript(["orbits", "--type", lie_type, "--rank", str(rank), "--p", p, "--pprime", pprime])
    assert (t["exit"], t["stderr"]) == (0, "")
    header, *rows = t["stdout"].splitlines()
    assert header == f"dim G/P = {dim}; {len(rows)} orbits"
    assert sum(int(row.split()[3]) for row in rows) == order
    assert sum(row.endswith("(dense)") for row in rows) == 1


@pytest.mark.parametrize(
    "lie_type, rank, word, printed",
    [("A", 12, "12", "12"), ("B", 10, "10", "10"), ("A", 9, "121", "1 2 1")],
)
def test_lone_word_token_is_one_index_from_rank_ten(lie_type, rank, word, printed):
    t = transcript(["refine", "--type", lie_type, "--rank", str(rank), "--word", word])
    assert (t["exit"], t["stderr"]) == (0, "")
    assert t["stdout"].startswith(f"word [{printed}],")


@pytest.mark.parametrize(
    "lie_type, rank, word, index",
    [("B", 10, "11", 11), ("A", 12, "121", 121)],
)
def test_word_index_past_the_rank_is_refused_from_rank_ten(lie_type, rank, word, index):
    t = transcript(["refine", "--type", lie_type, "--rank", str(rank), "--word", word])
    assert (t["exit"], t["stdout"]) == (1, "")
    assert t["stderr"].startswith(f"error: --word: reflection index {index} outside 1..{rank}")


def test_invariant_failure_is_reported_not_raised(monkeypatch):
    # with every orbit of dimension 0, none is dense and orbit_table's check fails
    monkeypatch.setattr(orbits, "orbit_dimension", lambda *args: 0)
    t = transcript(["orbits", "--type", "A", "--rank", "3", "--p", "1", "--pprime", "2"])
    assert (t["exit"], t["stdout"]) == (1, "")
    assert t["stderr"].startswith("error: expected exactly one dense orbit")


@pytest.mark.parametrize(
    "lie_type, largest, over",
    [("A", 157, 25122), ("B", 111, 25088), ("C", 111, 25088), ("D", 112, 25312)],
)
def test_classical_ranks_past_the_root_bound_are_refused(lie_type, largest, over):
    # the largest admitted rank is only parsed: its tables hold millions of entries
    argv = ["root-system", "--type", lie_type, "--rank"]
    assert cli.parse_query(argv + [str(largest)]).rank == largest
    t = transcript(argv + [str(largest + 1)])
    assert (t["exit"], t["stdout"]) == (1, "")
    want = f"error: type {lie_type}{largest + 1} has {over} roots, over the limit 25000\n"
    assert t["stderr"] == want


@pytest.mark.parametrize("cap", ["abc", "-5", "0"])
def test_weyl_cap_must_be_a_positive_integer(monkeypatch, cap):
    monkeypatch.setenv("LIE_MAX_WEYL", cap)
    t = transcript(["orbits", "--type", "A", "--rank", "3", "--p", "1", "--pprime", "2"])
    assert (t["exit"], t["stdout"]) == (1, "")
    assert t["stderr"] == f"error: LIE_MAX_WEYL must be a positive integer, got {cap!r}\n"


if __name__ == "__main__":
    write_golden(GOLDEN, cli_argvs())
    write_golden(GOLDEN_TYPES, type_argvs())
    write_golden(GOLDEN_FRONT, front_end_argvs())
