"""Golden transcripts of the ``lie`` commands outside the tower pipeline:
``root-system``, ``orbits``, ``codim``, ``levi``, ``nilradical``, ``curves``
and ``hilbert``, in every format, with their refusals and parse errors.

Regenerate the golden file from a trusted tree with
``PYTHONPATH=src python tests/test_cli.py``; the tests only read it.
"""

from __future__ import annotations

import pytest
from transcripts import GOLDEN_DIR, check_golden, transcript, write_golden

GOLDEN = GOLDEN_DIR / "cli_commands.json"

# (type, rank): node sets in CLI syntax; "" marks no node, so P = G
MARKS = {
    ("A", 3): ["", "1", "2,3", "1,2,3"],
    ("B", 3): ["", "1", "3", "1,2,3"],
    ("G", 2): ["", "1", "2", "1,2"],
    ("D", 4): ["", "2", "1,3,4", "1,2,3,4"],
    ("A", 1): ["", "1"],
    ("D", 3): ["", "1", "2,3"],  # normalised to A3
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


def cli_argvs():
    for (lie_type, rank), marks in MARKS.items():
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


def test_command_transcripts_match_golden_bytes():
    check_golden(GOLDEN, cli_argvs())


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


if __name__ == "__main__":
    write_golden(GOLDEN, cli_argvs())
