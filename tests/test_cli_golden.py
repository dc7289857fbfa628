"""Golden output of the command line: exit code, stdout and stderr, byte for byte.

The cases are every invocation of acceptance criterion 10 in each format,
with and without ``--quiet``, plus the usage and domain errors.  Each runs
``cli.main`` in-process and must reproduce ``tests/golden/cli.json``.
``tests/golden/help.json`` holds the ``--help`` text of ``multiproj`` and of
each command, at ``COLUMNS=80`` (argparse wraps to the terminal width).

``tests/replay_golden.py`` replays both files, and runs README's library
example, without pytest, so that any interpreter can check them.  Re-record both files after an intended change
of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from replay_golden import GOLDEN, HELP_GOLDEN, load, run
from test_acceptance import _CLI_CASES

ERRORS = [
    ["lefschetz-check", "3", "--partition", "2,1"],
    ["lefschetz-check"],
    ["factor", "--roundtrip", "0"],
    ["factor", "--char", "q^^2"],
    ["factor", "--partition", "0"],
    ["table", "--genus", "x", "--n", "1"],
    ["table", "--genus", "1..200", "--n", "1..200"],
    ["dims", "--genus", "1", "--n", "1"],
    ["betti", "--genus", "1", "--n", "0"],
]


def invocations():
    """Every recorded argv, in file order."""
    # Criterion 10 keeps ``--roundtrip 20``, about a second; 8 is enough here.
    commands = [
        ["8" if a == "20" and "--roundtrip" in args else a for a in args]
        for _, args in _CLI_CASES
    ]
    for argv in commands:
        for fmt in ("table", "json", "csv"):
            for quiet in ([], ["--quiet"]):
                yield [*argv, "--format", fmt, *quiet]
    yield from ERRORS


HELP = [["--help"]] + [[name, "--help"] for name in (
    "classify", "betti", "dims", "factor", "lefschetz-check", "table")]


CASES, HELP_CASES = load(GOLDEN), load(HELP_GOLDEN)


def test_golden_covers_every_invocation():
    assert [case["argv"] for case in CASES] == list(invocations())


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_output_matches_golden(case):
    assert run(case["argv"]) == case


def test_help_golden_covers_every_command():
    assert [case["argv"] for case in HELP_CASES] == HELP


@pytest.mark.parametrize("case", HELP_CASES, ids=lambda case: " ".join(case["argv"]))
def test_help_matches_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"]) == case


def test_replay_script_matches():
    # the pytest-free replay, as another interpreter runs it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("replay_golden.py"))],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    total = len(CASES) + len(HELP_CASES)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == f"{total} of {total} golden cases match\n"


def record():
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, argvs in ((GOLDEN, invocations()), (HELP_GOLDEN, HELP)):
        cases = [run(argv) for argv in argvs]
        path.write_text(json.dumps({"cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    record()
