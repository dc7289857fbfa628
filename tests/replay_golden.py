"""Replay the golden command-line cases, with the standard library only.

Every case of ``tests/golden/cli.json`` and ``tests/golden/help.json`` runs
through ``cli.main`` in-process at ``COLUMNS=80``; a case whose exit code,
stdout or stderr differs from its record is named on stderr, and the script
exits 1 if any does.  It needs no pytest, so any interpreter can run it from
a checkout:

    PYTHONPATH=src python tests/replay_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from multiproj import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
HELP_GOLDEN = GOLDEN.with_name("help.json")


def run(argv):
    """``cli.main(argv)`` in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(path):
    return json.loads(path.read_text())["cases"] if path.exists() else []


def main():
    os.environ["COLUMNS"] = "80"
    cases = load(GOLDEN) + load(HELP_GOLDEN)
    differ = 0
    for case in cases:
        got = run(case["argv"])
        fields = [key for key in ("exit", "stdout", "stderr") if got[key] != case[key]]
        if fields:
            differ += 1
            print(f"differs in {', '.join(fields)}: {' '.join(case['argv'])}", file=sys.stderr)
    print(f"{len(cases) - differ} of {len(cases)} golden cases match")
    return 1 if differ or not cases else 0


if __name__ == "__main__":
    sys.exit(main())
