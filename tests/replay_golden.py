"""Replay the golden command-line cases and README's library example, with the
standard library only.

Every case of ``tests/golden/cli.json`` and ``tests/golden/help.json`` runs
through ``cli.main`` in-process at ``COLUMNS=80``; a case whose exit code,
stdout or stderr differs from its record is named on stderr.  Then the
``python`` block under README's ``## Library`` runs, and each expression
line whose comment starts with a Python literal (up to any `` -- ``) must
have that literal as the ``repr`` of its value; a line that has not is
named on stderr.  The script exits 1 on any difference.  It needs no pytest, so any
interpreter can run it from a checkout:

    PYTHONPATH=src python tests/replay_golden.py
"""

import ast
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from multiproj import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
HELP_GOLDEN = GOLDEN.with_name("help.json")
README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    """``cli.main(argv)`` in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(path):
    return json.loads(path.read_text())["cases"] if path.exists() else []


def leading_literal(comment):
    """The longest start of ``comment`` (up to any `` -- ``) that is a Python
    literal, stripped, or None."""
    text = comment.split(" -- ", 1)[0].strip()
    for end in range(len(text), 0, -1):
        try:
            ast.literal_eval(text[:end])
        except (SyntaxError, ValueError, TypeError):
            continue
        return text[:end].rstrip()
    return None


def readme_example():
    """Run README's library example; return the lines whose value differs."""
    block = README.read_text().split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, checked, differ = block.splitlines(), {}, 0, []
    for node in ast.parse(block).body:
        line = lines[node.end_lineno - 1]
        comment = line.encode()[node.end_col_offset:].decode().strip()  # offsets count bytes
        expected = leading_literal(comment[1:]) if comment.startswith("#") else None
        if isinstance(node, ast.Expr) and expected is not None:
            checked += 1
            got = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
            if got != expected:
                differ.append(f"{line.split('#')[0].strip()} is {got}, not {expected}")
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return differ if checked else ["no line has a literal to check"]


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
    wrong = readme_example()
    for line in wrong:
        print(f"README example: {line}", file=sys.stderr)
    return 1 if differ or wrong or not cases else 0


if __name__ == "__main__":
    sys.exit(main())
