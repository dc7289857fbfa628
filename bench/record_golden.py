"""Record the golden stdout and exit code of every invocation the cli workload runs.

Each invocation runs as ``python -m multiproj`` in a child process, so the
golden bytes come from a real process, while the workload captures stdout of
``cli.main`` in-process; the two must agree byte for byte.

Run from the repository root:  python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The README's command-line examples, except ``factor --roundtrip 20``: that
# one verifies 2713 factorizations (about a second), which would make the
# workload a factorization benchmark instead of a CLI one.
README = (
    ["classify", "2,1", "1,1,1"],
    ["betti", "--genus", "1", "--n", "2"],
    ["betti", "--genus", "2", "--n", "5", "--sum"],
    ["dims", "--genus", "2", "--n", "3"],
    ["factor", "--partition", "2,1"],
    ["factor", "--char", "q^2 + 2 + q^-2"],
    ["lefschetz-check", "25"],
    ["lefschetz-check", "--partition", "2,1"],
    ["table", "--genus", "1..2", "--n", "2..5"],
)
ERRORS = (
    ["factor", "--char", "q^2 + q^-2"],  # exit 1: not a tensor of irreducibles
    ["classify", "0,1", "1"],  # exit 2: parts must be positive
)
COLD_START = ["betti", "--genus", "1", "--n", "2"]


def record(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "multiproj", *argv],
                          capture_output=True, env=env, cwd=ROOT, check=False)
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout.decode()}


def main():
    cases = [record([*argv, "--format", fmt])
             for argv in README for fmt in ("table", "json", "csv")]
    cases += [record(argv) for argv in ERRORS]
    doc = {"cases": cases, "cold_start": record(COLD_START)}
    (HERE / "golden" / "cli.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
