"""CLI contract: documented commands, exit codes, formats, determinism.

Almost everything here shells out to ``python -m multiproj`` so the entry
point, argument parsing, and stream handling are exercised exactly as a user
would hit them.  The boundary tests of the size limits run ``cli.main``
in-process, so that each limit can be lowered to a cheap value, and so do the
tests that every error is one line returned by ``main``, never a
``SystemExit``.
"""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate

from multiproj import cli, exactalg, lefschetz, sl2rep
from multiproj.sl2rep import IrrepMultiset
from multiproj.symcurve import total_dim_cohomology

VERDICT_SCHEMA = {
    "type": "object",
    "required": [
        "verdict",
        "reason",
        "n1",
        "n2",
        "partition1",
        "partition2",
        "character1",
        "character2",
        "factorization1",
        "factorization2",
    ],
    "properties": {
        "verdict": {"enum": ["ISOMORPHIC", "NON_ISOMORPHIC"]},
        "reason": {
            "enum": ["DIMENSION_MISMATCH", "SAME_PARTITION", "DISTINCT_CHARACTERS"]
        },
        "n1": {"type": "integer"},
        "n2": {"type": "integer"},
        "partition1": {"type": "string"},
        "partition2": {"type": "string"},
        "character1": {"type": ["string", "null"]},
        "character2": {"type": ["string", "null"]},
        "factorization1": {"type": ["string", "null"]},
        "factorization2": {"type": ["string", "null"]},
    },
    "additionalProperties": False,
}

BRACKET_CHECK_SCHEMA = {
    "type": "object",
    "required": ["relation", "pass", "max_abs_discrepancy_numerator"],
    "properties": {
        "relation": {"enum": ["XY-YX=H", "HX-XH=2X", "HY-YH=-2Y"]},
        "pass": {"type": "boolean"},
        "max_abs_discrepancy_numerator": {"type": "integer"},
    },
    "additionalProperties": False,
}


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "multiproj", *args],
        capture_output=True,
        text=True,
    )


class TestClassify:
    def test_non_isomorphic(self):
        r = run("classify", "2,1", "1,1,1")
        assert r.returncode == 0
        assert "verdict: NON_ISOMORPHIC" in r.stdout
        assert "reason: DISTINCT_CHARACTERS" in r.stdout

    def test_isomorphic_reordering(self):
        r = run("classify", "1,2", "2,1")
        assert r.returncode == 0
        assert "verdict: ISOMORPHIC" in r.stdout

    def test_bad_part_exits_2(self):
        r = run("classify", "2,0", "1,1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error" in r.stderr

    def test_json_validates(self):
        for pair in (("2,1", "1,1,1"), ("1,2", "2,1"), ("3", "2,2"), ("5000", "1")):
            r = run("classify", *pair, "--format", "json")
            assert r.returncode == 0
            validate(json.loads(r.stdout), VERDICT_SCHEMA)

    def test_csv_has_header(self):
        r = run("classify", "2,1", "1,1,1", "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0].startswith("verdict,reason,n1,n2,")
        assert len(lines) == 2

    # Distinct dimensions are answered without characters, over the degree
    # limit too, and CSV writes the fields of the unbuilt ones empty.
    def test_csv_leaves_unbuilt_fields_empty(self):
        r = run("classify", "5000", "1", "--format", "csv")
        assert r.returncode == 0
        header, row = r.stdout.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        unbuilt = ["character1", "character2", "factorization1", "factorization2"]
        assert [fields[key] for key in unbuilt] == [""] * 4


class TestBetti:
    def test_genus_one(self):
        r = run("betti", "--genus", "1", "--n", "2")
        assert r.returncode == 0
        assert r.stdout == "1,2,2,2,1\n"

    def test_genus_zero(self):
        r = run("betti", "--genus", "0", "--n", "3")
        assert r.stdout == "1,0,1,0,1,0,1\n"

    def test_sum_flag(self):
        r = run("betti", "--genus", "2", "--n", "5", "--sum")
        assert r.stdout == "64\n"

    def test_negative_genus_exits_2(self):
        assert run("betti", "--genus", "-1", "--n", "2").returncode == 2

    def test_zero_n_exits_2(self):
        assert run("betti", "--genus", "1", "--n", "0").returncode == 2

    def test_csv(self):
        r = run("betti", "--genus", "1", "--n", "1", "--format", "csv")
        assert r.stdout == "g,n,r,betti\n1,1,0,1\n1,1,1,2\n1,1,2,1\n"


class TestDims:
    @pytest.mark.parametrize(
        "g,n,expected",
        [("2", "3", "32,56,STRICTLY_LESS"), ("0", "9", "10,10,EQUAL"),
         ("1", "2", "8,10,STRICTLY_LESS")],
    )
    def test_documented_rows(self, g, n, expected):
        r = run("dims", "--genus", g, "--n", n)
        assert r.returncode == 0
        assert r.stdout == expected + "\n"

    def test_n1_exits_2(self):
        assert run("dims", "--genus", "1", "--n", "1").returncode == 2

    def test_json(self):
        doc = json.loads(run("dims", "--genus", "2", "--n", "3", "--format", "json").stdout)
        assert doc == {
            "g": 2, "n": 3, "total_dim": 32, "sym_dim": 56,
            "relation": "STRICTLY_LESS",
        }


class TestFactor:
    def test_partition_input(self):
        r = run("factor", "--partition", "2,1")
        assert r.returncode == 0
        assert r.stdout == "2,1\n"

    def test_char_input(self):
        # {1,1} in the canonical multiset form
        r = run("factor", "--char", "q^2 + 2 + q^-2")
        assert r.returncode == 0
        assert r.stdout == "1^2\n"

    def test_unfactorable_exits_1(self):
        r = run("factor", "--char", "q^3 + q^-3")
        assert r.returncode == 1
        assert "not a tensor" in r.stderr

    def test_malformed_char_exits_2(self):
        assert run("factor", "--char", "q^^2").returncode == 2

    def test_roundtrip(self):
        r = run("factor", "--roundtrip", "10")
        assert r.returncode == 0
        assert "138" in r.stdout  # p(1) + ... + p(10)

    def test_no_mode_exits_2(self):
        assert run("factor").returncode == 2

    def test_json(self):
        doc = json.loads(
            run("factor", "--partition", "3,1", "--format", "json").stdout
        )
        assert doc["labels"] == [3, 1]
        assert doc["factorization"] == "3,1"


class TestLefschetzCheck:
    def test_irreducible_module(self):
        r = run("lefschetz-check", "25")
        assert r.returncode == 0
        assert "irreducible: true" in r.stdout

    def test_tensor_module(self):
        r = run("lefschetz-check", "--partition", "2,1")
        assert r.returncode == 0
        assert "irreducible: false" in r.stdout
        assert "expected_irreducible: false" in r.stdout

    def test_trivial_module(self):
        assert run("lefschetz-check", "0").returncode == 0

    def test_json_checks_validate(self):
        doc = json.loads(run("lefschetz-check", "7", "--format", "json").stdout)
        assert doc["ok"] is True
        for check in doc["checks"]:
            validate(check, BRACKET_CHECK_SCHEMA)

    def test_requires_exactly_one_input(self):
        assert run("lefschetz-check").returncode == 2
        assert run("lefschetz-check", "3", "--partition", "2,1").returncode == 2


class TestTable:
    def test_includes_documented_row(self):
        r = run("table", "--genus", "1..2", "--n", "2..5", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "g,n,betti,total_dim,sym_dim,relation"
        assert any(line.startswith("2,5,") and ",64,252," in line for line in lines)

    def test_single_cell(self):
        r = run("table", "--genus", "1..1", "--n", "2..2", "--format", "csv")
        assert '1,2,"1,2,2,2,1",8,10,STRICTLY_LESS' in r.stdout

    def test_empty_range_exits_2(self):
        assert run("table", "--genus", "2..1", "--n", "2..5").returncode == 2

    def test_oversized_exits_2(self):
        assert run("table", "--genus", "1..200", "--n", "1..200").returncode == 2

    def test_json_rows_ordered(self):
        rows = json.loads(
            run("table", "--genus", "0..1", "--n", "1..3", "--format", "json").stdout
        )
        assert [(row["g"], row["n"]) for row in rows] == [
            (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
        ]


def _traced_peak(monkeypatch, argv):
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# No format holds the whole table: --quiet, JSON and CSV hold one cell at a
# time, and the table format only the unpadded cells its column widths need.
@pytest.mark.parametrize(
    "flags,bound",
    [
        (["--quiet"], 1_000_000),
        (["--format", "json"], 1_000_000),
        (["--format", "csv"], 1_000_000),
        (["--format", "table"], 5_000_000),
    ],
    ids=["quiet", "json", "csv", "table"],
)
def test_table_memory_is_flat(monkeypatch, flags, bound):
    argv = ["table", "--genus", "1..4", "--n", "1..300", *flags]
    assert _traced_peak(monkeypatch, argv) <= bound


EMIT_ROWS = [
    {"g": 0, "n": 1, "betti": "1,0,1"},
    {"g": 10, "n": 2, "betti": "1,20,191,20,1"},
]
EMIT_DOC = [{"g": 0, "n": 1, "betti": (1, 0, 1)}, {"g": 10, "n": 2, "betti": []}]


def emitted(fmt, quiet, rows, text=None, doc=EMIT_DOC):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, quiet=quiet), doc, rows, text)
    return out.getvalue()


@pytest.mark.parametrize(
    "fmt,quiet,text,read,drained",
    [
        ("json", False, None, False, True),
        ("json", True, None, False, True),
        ("csv", True, None, False, True),
        ("table", True, None, False, True),
        ("table", False, "given", False, False),
        ("csv", False, None, True, False),
        ("table", False, None, True, False),
    ],
    ids=["json", "json-quiet", "csv-quiet", "table-quiet", "table-text", "csv",
         "table-padded"],
)
def test_emit_reads_rows_only_for_the_format_it_writes(fmt, quiet, text, read, drained):
    # JSON writes the document, and --quiet reads it to its end, so that a
    # command's generator still computes and checks every value it yields
    reads, ends = [], []

    def rows():
        reads.append(True)
        yield from EMIT_ROWS

    def doc():
        yield from EMIT_DOC
        ends.append(True)

    assert emitted(fmt, quiet, rows(), text, doc()) == emitted(fmt, quiet, EMIT_ROWS, text)
    assert bool(reads) is read
    assert bool(ends) is drained


def streamed(o):
    """``o`` with every list a generator, inside dicts and tuples too."""
    if isinstance(o, dict):
        return {k: streamed(v) for k, v in o.items()}
    if isinstance(o, tuple):
        return tuple(map(streamed, o))
    if isinstance(o, list):
        return (streamed(v) for v in o)
    return o


BIG = 10**4000 - 1  # the most digits a command prints
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-BIG, max_value=BIG),
    st.sampled_from([BIG, -BIG]),
    st.text(),
    st.text(st.sampled_from('"\\\x00\x1f\n\té€😀a')),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(st.integers(min_value=-BIG, max_value=BIG)).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.text(st.sampled_from('"\\\x01é'))), children),
    ),
    max_leaves=30,
)


# JSONEncoder(indent=2) is the oracle of _emit's JSON layout, on each document
# and on the same document with every list a generator.
@settings(derandomize=True, deadline=None, max_examples=400)
@given(doc=DOCUMENTS)
def test_json_layout_is_the_encoders(doc):
    expected = json.JSONEncoder(indent=2).encode(doc) + "\n"
    assert emitted("json", False, [], doc=doc) == expected
    assert emitted("json", False, [], doc=streamed(doc)) == expected


@pytest.mark.parametrize(
    "doc",
    [{}, [], (), [{}], {"a": []}, [True, False], [1, True, -2], [[], [[]]],
     {"k\"\\\u0007é": [BIG, -BIG]}, None, "\u2028"],
)
def test_json_layout_of_edge_documents(doc):
    expected = json.JSONEncoder(indent=2).encode(doc) + "\n"
    assert emitted("json", False, [], doc=doc) == expected
    assert emitted("json", False, [], doc=streamed(doc)) == expected


def test_emit_pads_rows_under_their_keys():
    assert emitted("table", False, iter(EMIT_ROWS)) == (
        "g   n  betti\n"
        "0   1  1,0,1\n"
        "10  2  1,20,191,20,1\n"
    )


class TestGlobalFlags:
    def test_quiet_suppresses_stdout(self):
        r = run("classify", "2,1", "1,1,1", "--quiet")
        assert r.returncode == 0
        assert r.stdout == ""

    def test_quiet_keeps_failure_exit(self):
        r = run("factor", "--char", "q^3 + q^-3", "--quiet")
        assert r.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("classify", "2,1", "1,1,1"),
            ("betti", "--genus", "1", "--n", "2", "--format", "json"),
            ("dims", "--genus", "2", "--n", "3", "--format", "csv"),
            ("factor", "--partition", "2,1"),
            ("lefschetz-check", "--partition", "1,1", "--format", "json"),
            ("table", "--genus", "0..2", "--n", "1..4", "--format", "csv"),
        ],
    )
    def test_deterministic(self, args):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# Inputs that once took more than 10 s; each must now finish well inside it.
@pytest.mark.parametrize(
    "args,code,line",
    [
        (("factor", "--char", "q^1500 + q^-1500"), 1, None),
        (("factor", "--partition", "500,400,300"), 0, "500,400,300"),
        (("classify", "30,20,10", "31,19,10"), 0, "verdict: NON_ISOMORPHIC"),
        (
            ("betti", "--genus", "2", "--n", "2000", "--sum"),
            0,
            str(total_dim_cohomology(2, 2000)),
        ),
        (("lefschetz-check", "20000"), 0, "irreducible: true"),
        (("lefschetz-check", "--partition", "6,6,6,6,6"), 0, "irreducible: false"),
        (("table", "--genus", "1..60", "--n", "1..60", "--quiet"), 0, None),
        (("table", "--genus", "1", "--n", "1..2000", "--quiet"), 0, None),
        (("betti", "--genus", "1000000000000", "--n", "1"), 0, "1,2000000000000,1"),
        (
            ("betti", "--genus", "10000", "--n", "100", "--sum"),
            0,
            str(total_dim_cohomology(10000, 100)),
        ),
        (("table", "--genus", "0..9999", "--n", "1", "--quiet"), 0, None),
        (("classify", "5000", "1"), 0, "reason: DIMENSION_MISMATCH"),
        # the widest table the row-digit limit admits at n = 2000
        (("table", "--genus", "0..3", "--n", "1..2000", "--quiet"), 0, None),
        (
            ("dims", "--genus", "3500", "--n", "5000"),
            0,
            f"{total_dim_cohomology(3500, 5000)},{math.comb(12001, 5000)},STRICTLY_LESS",
        ),
    ],
)
def test_large_input_finishes(args, code, line):
    proc = subprocess.run(
        [sys.executable, "-m", "multiproj", *args],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == code, proc.stderr
    if line is None:
        assert proc.stdout == ""
    else:
        assert line in proc.stdout.splitlines()


# The widest table in JSON, the slowest format, also keeps the budget; its
# 149 MB go to a file, not through the test's memory.
def test_widest_json_table_finishes(tmp_path):
    out = tmp_path / "table.json"
    argv = ["table", "--genus", "0..3", "--n", "1..2000", "--format", "json"]
    with open(out, "wb") as sink:
        proc = subprocess.run([sys.executable, "-m", "multiproj", *argv], stdout=sink,
                              stderr=subprocess.PIPE, timeout=10)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256()
    with open(out, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    assert (out.stat().st_size, digest.hexdigest()) == (
        149236715, "9f3502302f85cd6d59bc64a5ebac6c179a5f214eba713917dae4594037ae6cee"
    )


# A write to stdout that fails (a reader that closed the pipe, a closed
# stdout, a full disk) ends in one error line and exit 1, not a traceback,
# and what was written before it stays written.  ``--help`` is written like
# a command's output, so its failed write ends the same way.
TABLE = ["table", "--genus", "0..3", "--n", "1..300", "--format"]
HELPS = [["--help"], ["table", "--help"]]
FIRST_LINE = {"csv": b"g,n,betti,total_dim,sym_dim,relation\n", "json": b"[\n"}


def multiproj(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "multiproj", *argv],
                            stderr=subprocess.PIPE, **kwargs)


def one_error_line(proc, timeout=10):
    err = proc.communicate(timeout=timeout)[1].decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err
    return err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_pipe_is_one_error_line(fmt):
    proc = multiproj([*TABLE, fmt], stdout=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()  # the reader stops, as ``head -1`` does
    assert first == FIRST_LINE[fmt]
    assert one_error_line(proc) == "error: cannot write output: Broken pipe\n"


@pytest.mark.parametrize("argv", [[*TABLE, "csv"], [*TABLE, "json"], *HELPS],
                         ids=["csv", "json", "help", "table-help"])
def test_closed_stdout_is_one_error_line(argv):
    proc = multiproj(argv, preexec_fn=lambda: os.close(1))
    assert one_error_line(proc) == "error: cannot write output: stdout is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [[*TABLE, "csv"], [*TABLE, "json"],
                                  ["betti", "--genus", "1", "--n", "2"], *HELPS],
                         ids=["csv", "json", "betti", "help", "table-help"])
def test_full_disk_is_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = multiproj(argv, stdout=full)
    assert one_error_line(proc) == "error: cannot write output: No space left on device\n"


# Requests over a size limit are refused before any work is done.
@pytest.mark.parametrize(
    "args",
    [
        ("lefschetz-check", "200000"),
        ("lefschetz-check", "--partition", "7,7,7,7,7,7"),
        ("factor", "--roundtrip", "26"),
        ("betti", "--genus", "1", "--n", "30000"),
        ("betti", "--genus", "10000", "--n", "2000"),
        ("dims", "--genus", "100000000", "--n", "100000000"),
        ("table", "--genus", "1..2", "--n", "1999..2001"),
        ("factor", "--char", "q^100000000 + q^-100000000"),
        ("factor", "--partition", "1000,1001"),
        ("classify", "2001", "2000,1"),
        ("classify", "5000", "4999,1"),
        # a sum of 4301 digits, whose parts int() still reads
        ("classify", "9" * 4300 + ",1", "1"),
        # a dimension of 2^15000, 4516 digits
        ("lefschetz-check", "--partition", ",".join(["1"] * 15000)),
        # spans and row lengths too long to print, and a summed coefficient
        # of 4301 digits
        ("table", "--genus", "0.." + "9" * 4300, "--n", "1"),
        ("table", "--genus", "0", "--n", "1.." + "9" * 4300),
        ("betti", "--genus", "1", "--n", "9" * 4300),
        ("betti", "--genus", "0", "--n", "9" * 4300),
        ("table", "--genus", "1", "--n", "9" * 4300),
        ("factor", "--char", "{0}*q + {0}*q + {0}*q^-1 + {0}*q^-1".format("9" * 4300)),
        # refused after C(32001, 16000) is formed
        ("dims", "--genus", "8000", "--n", "16000"),
    ],
)
def test_size_limit_exits_2(args):
    proc = subprocess.run(
        [sys.executable, "-m", "multiproj", *args],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


# A refusal shows a size of more than 4000 digits as "over 10^4000", not in full.
@pytest.mark.parametrize(
    "args",
    [
        ("factor", "--char", "q^" + "9" * 4100),
        ("betti", "--genus", "1", "--n", "9" * 4100),
        ("dims", "--genus", "9" * 4100, "--n", "2"),
        ("factor", "--roundtrip", "9" * 4100),
    ],
    ids=["degree", "row-length", "genus", "roundtrip"],
)
def test_refusal_shows_a_long_size_as_over_10_4000(capsys, args):
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "over 10^4000" in err
    assert len(err) < 200 and len(err.splitlines()) == 1


# A range refusal echoes the range text, or a too small start, and main
# cuts the line to a fixed length: a long range is one short error line.
@pytest.mark.parametrize(
    "args",
    [
        ("table", "--genus", "9" * 4100 + "..0", "--n", "1"),
        ("table", "--genus", "0.." + "9" * 4400, "--n", "1"),
        ("table", "--genus", "-" + "9" * 4100, "--n", "1"),
    ],
    ids=["empty", "bad", "below-minimum"],
)
def test_range_refusal_is_one_short_line(capsys, args):
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err.encode()) <= 200, err


# main writes every error line, and cuts a message of more than 192 bytes
# of UTF-8 to its first 120, "..." and its last 69: a refusal that echoes
# long input, its own or argparse's, ASCII or not, is one line of at most
# 200 bytes that starts as the whole message would and ends as it does.
LONG_TEXT, LONG_NEGATIVE = "x" * 5000, "-" + "9" * 4100


@pytest.mark.parametrize(
    "argv,code,start,end",
    [
        (["classify", LONG_TEXT, "1"], 2, "invalid partition part 'xxx",
         "x': not an integer"),
        (["factor", "--partition", LONG_TEXT], 2, "invalid partition part 'xxx",
         "x': not an integer"),
        (["betti", "--genus", LONG_TEXT, "--n", "1"], 2,
         "argument --genus: invalid int value: 'xxx", "x'"),
        ([LONG_TEXT], 2, "argument command: invalid choice: 'xxx", ")"),
        (["betti", "--genus", LONG_NEGATIVE, "--n", "1"], 2, "genus must be >= 0, got -99",
         "99"),
        (["betti", "--genus", "1", "--n", LONG_NEGATIVE], 2, "--n must be >= 1, got -99",
         "99"),
        (["dims", "--genus", "1", "--n", LONG_NEGATIVE], 2,
         "--n must be >= 2 (the comparison is trivial below that), got -99", "99"),
        (["lefschetz-check", LONG_NEGATIVE], 2, "dimension must be nonnegative, got -99",
         "99"),
        (["factor", "--roundtrip", LONG_NEGATIVE], 2,
         "--roundtrip bound must be >= 1, got -99", "99"),
        (["factor", "--char", "9" * 4000 + "*q"], 2,
         "not a character: coefficient at q^1 (99", "99) differs from q^-1 (0)"),
        (["factor", "--char", " + ".join(f"2*q^{k}" for k in range(500, -501, -1))], 1,
         "not a tensor of nontrivial irreducibles: 2*q^500 + 2*q^499", " + 2*q^-500"),
        (["classify", "\u00e9" * 5000, "1"], 2, "invalid partition part '\u00e9\u00e9",
         "\u00e9': not an integer"),
        (["classify", "\U0001f600" * 5000, "1"], 2,
         "invalid partition part '\U0001f600\U0001f600", "\U0001f600': not an integer"),
    ],
    ids=["classify-text", "partition-text", "invalid-int", "invalid-choice",
         "negative-genus", "betti-negative-n", "dims-negative-n", "lefschetz-negative",
         "roundtrip-negative", "not-a-palindrome", "does-not-factor", "classify-2-byte",
         "classify-4-byte"],
)
def test_every_error_line_is_bounded(argv, code, start, end):
    got, out, err = main_in_process(argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {start}") and err.endswith(f"{end}\n"), err
    assert "..." in err and len(err.splitlines()) == 1
    assert len(err.encode()) <= 200, err


# The cut is made in UTF-8 bytes: it keeps a whole prefix and a whole suffix
# of the message, dropping a character either cut would split, and leaves a
# message of at most 192 bytes as it is.
@pytest.mark.parametrize("char", ["x", "\u00e9", "\u20ac", "\U0001f600"])
@pytest.mark.parametrize("shift", range(4))
def test_cut_splits_no_character(char, shift):
    message = "a" * shift + char * 300 + "b" * shift
    cut = cli._cut(message)
    head, dots, tail = cut.partition("...")
    assert dots and message.startswith(head) and message.endswith(tail)
    assert 192 - 6 <= len(cut.encode()) <= 192
    short = message[: 192 // len(char.encode())]
    assert cli._cut(short) == short


# A character is held dense from q^N to q^-N, so its degree is checked on
# the parsed polynomial, at either end, before the character is built.
@pytest.mark.parametrize("text", ["q^-3000", "q^3000", "q^2 + q^-3000"])
def test_character_degree_checked_before_it_is_built(capsys, text):
    assert cli.main(["factor", "--char", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(" of top degree 3000 exceeds the 2000-degree limit\n")
    assert len(err.splitlines()) == 1


def test_zero_character_is_a_domain_error():
    proc = run("factor", "--char", "0")
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: not a tensor of nontrivial irreducibles: dimension 0 < 2\n"
    )


# Each limit is read from the module that owns it.
def test_limits_are_the_documented_ones():
    assert (
        cli._TABLE_CELL_LIMIT,
        lefschetz._MODULE_DIM_LIMIT,
        cli._ROUNDTRIP_LIMIT,
        cli._ROW_LIMIT,
        cli._ROW_DIGIT_LIMIT,
        exactalg._DIGIT_LIMIT,
        cli._CHARACTER_DEGREE_LIMIT,
    ) == (10_000, 200_000, 25, 4001, 100_000, 4000, 2000)


def test_digit_bound_is_exact():
    for g in range(0, 12):
        for n in range(1, 40):
            digits = len(str(math.comb(2 * g + n + 1, n)))
            assert not cli._more_digits(g, n, digits)
            assert cli._more_digits(g, n, digits - 1)


def test_digit_bound_decides_as_the_power_of_ten():
    # bit lengths decide outside the band 2^(3 digits) <= b < 2^(4 digits)
    for g in range(0, 60, 7):
        for n in range(1, 800, 41):
            value = math.comb(2 * g + n + 1, n)
            for digits in range(0, 400, 3):
                assert cli._more_digits(g, n, digits) == (value >= 10**digits)


# Each limit lowered to the size of a cheap request: at the limit the request
# is answered, one below it (the request one past the limit) it is refused.
# The module-dimension guard is lefschetz's; the digit limit is patched where
# the command line reads it.
OWNER = {"_MODULE_DIM_LIMIT": lefschetz}


@pytest.mark.parametrize(
    "name,limit,args",
    [
        ("_MODULE_DIM_LIMIT", 64, ("lefschetz-check", "--partition", "3,3,3")),
        ("_MODULE_DIM_LIMIT", 8, ("lefschetz-check", "7")),
        ("_ROUNDTRIP_LIMIT", 3, ("factor", "--roundtrip", "3")),
        ("_TABLE_CELL_LIMIT", 6, ("table", "--genus", "0..1", "--n", "1..3")),
        ("_ROW_LIMIT", 5, ("betti", "--genus", "1", "--n", "2")),
        ("_ROW_LIMIT", 7, ("table", "--genus", "0..1", "--n", "1..3")),
        # C(5, 2) = 10: two digits, five of them in the row
        ("_ROW_DIGIT_LIMIT", 10, ("betti", "--genus", "1", "--n", "2")),
        # C(8, 3) = 56
        ("_DIGIT_LIMIT", 2, ("dims", "--genus", "2", "--n", "3")),
        # C(11, 4) = 330 at the largest cell (g, n) = (3, 4)
        ("_DIGIT_LIMIT", 3, ("table", "--genus", "1..3", "--n", "1..4")),
        ("_CHARACTER_DEGREE_LIMIT", 3, ("factor", "--partition", "2,1")),
        ("_CHARACTER_DEGREE_LIMIT", 2, ("factor", "--char", "q^2 + 2 + q^-2")),
        ("_CHARACTER_DEGREE_LIMIT", 3, ("classify", "2,1", "1,1,1")),
        ("_DIGIT_LIMIT", 2, ("classify", "98,1", "1")),
        ("_DIGIT_LIMIT", 1, ("factor", "--char", "q^2 + 2 + q^-2")),
    ],
)
def test_limit_boundary(monkeypatch, capsys, name, limit, args):
    owner = OWNER.get(name, cli)
    monkeypatch.setattr(owner, name, limit)
    assert cli.main([*args, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(owner, name, limit - 1)
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and str(limit - 1) in err


def main_in_process(argv):
    """``cli.main(argv)`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            raise AssertionError(f"cli.main raised SystemExit({exc.code})") from None
    return code, out.getvalue(), err.getvalue()


def unreachable(*args):
    raise AssertionError("a usage error reached the library")



# Each usage error, argparse's or a handler's, is one line returned by main,
# found before any computation starts.
@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["betti", "--genus", "1"], "the following arguments are required: --n"),
        (["betti", "--genus", "x", "--n", "2"], "argument --genus: invalid int value: 'x'"),
        (["dims", "--genus", "1", "--n", "2", "extra"], "unrecognized arguments: extra"),
        (
            ["factor", "--partition", "2", "--char", "q"],
            "argument --char: not allowed with argument --partition",
        ),
        (
            ["lefschetz-check", "3", "--partition", "2,1"],
            "argument --partition: not allowed with argument n",
        ),
        (["lefschetz-check"], "one of the arguments n --partition is required"),
        (["betti", "--genus", "-1", "--n", "2"], "genus must be >= 0, got -1"),
        (["dims", "--genus", "-1", "--n", "2"], "genus must be >= 0, got -1"),
        (["table", "--genus", "3..1", "--n", "1"], "empty genus range '3..1'\n"),
        (["table", "--genus", "-1", "--n", "1"], "genus must be >= 0, got -1\n"),
    ],
    ids=["no-command", "unknown-command", "missing-argument", "non-int",
         "extra-argument", "factor-two-inputs", "lefschetz-both", "lefschetz-neither",
         "betti-negative-genus", "dims-negative-genus", "table-empty-range",
         "table-negative-genus"],
)
def test_usage_error_is_one_returned_line(monkeypatch, argv, message):
    for name in ("classify", "poincare_polynomial", "compare_dimensions", "dimension_table",
                 "factor_tensor_of_irreps", "verify_roundtrip", "lefschetz_check"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = main_in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert err.endswith("\n")


def test_roundtrip_mismatch_is_one_error_line(monkeypatch):
    monkeypatch.setattr(sl2rep, "factor_tensor_of_irreps", lambda c: IrrepMultiset((0,)))
    assert main_in_process(["factor", "--roundtrip", "3"]) == (
        1, "", "error: round-trip failure: (1,) factored as 0\n"
    )


# A failed expectation of lefschetz-check still prints its report, then one
# error line that names the module and the check that failed.
def test_failed_lefschetz_check_is_one_error_line(monkeypatch):
    monkeypatch.setattr(lefschetz, "is_irreducible", lambda module: False)
    report = (
        "XY-YX=H: pass\n"
        "HX-XH=2X: pass\n"
        "HY-YH=-2Y: pass\n"
        "character: q^3 + q + q^-1 + q^-3\n"
        "character_matches: true\n"
        "irreducible: false\n"
        "expected_irreducible: true\n"
    )
    error = "error: module 3 failed: irreducible\n"
    assert main_in_process(["lefschetz-check", "3"]) == (1, report, error)
    assert main_in_process(["lefschetz-check", "3", "--quiet"]) == (1, "", error)


# Small values, numbers at the 4300 digits Python still turns into text,
# which every command refuses before doing any work (every argv is cheap),
# and long tokens that a refusal echoes (every error line is bounded).
TOKENS = st.sampled_from([
    "0", "1", "2", "3", "6", "-1", "-7", "x", "", "1.5", "1..2", "2..1", "0..1",
    "-1..1", "1..", "..", "2,1", "1,1", "0,2", "2,,1", "q", "q^2 + 2 + q^-2",
    "q^^2", "q^3 + q^-3", "json", "csv", "xml", "--quiet", "--sum", "--",
    "9" * 4300, "0.." + "9" * 4300, f"{'9' * 4300}*q + {'9' * 4300}*q",
    "-" + "9" * 4100, "x" * 5000,
])
OPTIONS = st.sampled_from([
    "--genus", "--n", "--partition", "--char", "--roundtrip", "--format",
])
ARGUMENTS = st.lists(
    st.one_of(st.tuples(OPTIONS, TOKENS), st.tuples(TOKENS)), max_size=2
).map(lambda groups: [token for group in groups for token in group])
INTS = st.sampled_from(["0", "1", "2", "3", "6"])
RANGES = st.sampled_from(["0..1", "1..2", "2", "1..3"])
PARTITIONS = st.sampled_from(["2,1", "1,1", "3", "1,1,1"])
CHARACTERS = st.sampled_from(["q^2 + 2 + q^-2", "q^3 + q^-3", "q + q^-1", "0"])
# Each command's own options, and in each slot a fitting value or any token,
# so that a fair share of the argv parse.
SHAPES = [
    ["classify", PARTITIONS, PARTITIONS],
    ["betti", "--genus", INTS, "--n", INTS],
    ["dims", "--genus", INTS, "--n", INTS],
    ["factor", "--partition", PARTITIONS],
    ["factor", "--char", CHARACTERS],
    ["factor", "--roundtrip", INTS],
    ["lefschetz-check", INTS],
    ["lefschetz-check", "--partition", PARTITIONS],
    ["table", "--genus", RANGES, "--n", RANGES],
    ["bogus"],
]


@st.composite
def argvs(draw):
    shape = draw(st.sampled_from(SHAPES))
    head = [s if isinstance(s, str) else draw(st.one_of(s, TOKENS)) for s in shape]
    return head + draw(ARGUMENTS)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=argvs())
def test_every_argv_ends_in_a_returned_code(argv):
    code, out, err = main_in_process(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("\n") and len(err.encode()) <= 200, err
    if code == 2:
        assert out == ""


# The command list of README's "Command line" section is the parser's.
def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    names = dict.fromkeys(line.split()[1] for line in block.splitlines())
    assert list(names) == [command.name for command in cli.COMMANDS]


def test_every_handler_belongs_to_one_command():
    handlers = sorted(name for name in vars(cli) if name.startswith("_cmd_"))
    assert sorted(command.handler.__name__ for command in cli.COMMANDS) == handlers
