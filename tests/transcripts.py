"""Golden CLI transcripts: run ``lie`` in process and record its exit code,
standard output and standard error byte for byte, with help text wrapped
to 80 columns.

A test module lists its argument vectors, checks them with
:func:`check_golden`, and rewrites its golden file with
:func:`write_golden` when run as a script from a trusted tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from typing import Iterable
from unittest import mock

from lieorbits import cli

GOLDEN_DIR = Path(__file__).parent / "golden"


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # help text wraps to COLUMNS; --help exits from inside argparse
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_golden(path: Path, argvs: Iterable[list[str]]) -> None:
    golden = json.loads(path.read_text())
    assert [g["argv"] for g in golden] == list(argvs)
    for want in golden:
        assert transcript(want["argv"]) == want, " ".join(want["argv"])


def write_golden(path: Path, argvs: Iterable[list[str]]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps([transcript(a) for a in argvs], indent=1) + "\n")
