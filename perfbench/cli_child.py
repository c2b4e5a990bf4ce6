"""Run one ``lie`` query in a fresh interpreter, traced.

Usage: ``python perfbench/cli_child.py COMMAND [OPTIONS...]`` with ``src`` on
``PYTHONPATH``.  Spans cover the import of ``lieorbits.cli``,
``build_root_system``, ``parse_query`` and ``run_query``, plus the library
functions listed in ``spans.TARGETS``.  Prints one JSON line holding the
exit code ``lie`` would return, its standard output and the spans.
"""

import importlib
import io
import json
import sys

from spans import Recorder, install


def main(argv) -> None:
    rec = Recorder()
    cli = rec.call("cli.import", importlib.import_module, "lieorbits.cli")
    install(rec)
    from lieorbits import parabolic, rootsys

    out = io.StringIO()
    try:
        q = rec.call("cli.parse_query", cli.parse_query, argv)
        rootsys.build_root_system(q.lie_type, q.rank)
        rc = rec.call("cli.run_query", cli.run_query, q, out)
    except (cli.ParseExit, ValueError, parabolic.ConsistencyError):
        rc = 1
    print(json.dumps({"rc": rc, "out": out.getvalue(), "trace": rec.export()}))


if __name__ == "__main__":
    main(sys.argv[1:])
