"""Rules on the package source: no cache that grows without bound, no floats,
no whole-matrix products, one writer of the command line's stdout, one
padder of its table columns, one writer of its stderr, one place that
returns its exit code, no sparse characters in the classifier, no dense
character built outside sl2rep, no series container behind symcurve, no
closed form inside the series expansion, no Betti number computed by the
command line, one owner of the int check, one owner of the command line's
digit rule, and none of the methods deleted because only the tests read
them."""

import ast
from pathlib import Path

import pytest

import multiproj

SOURCES = sorted(Path(multiproj.__file__).parent.glob("*.py"))


def unbounded_caches(tree):
    """Line numbers of ``lru_cache(maxsize=None)`` and ``functools.cache``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cache"
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name != "lru_cache":
                continue
            sizes = node.args[:1]
            sizes += [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return lines


FLOAT_MATH = {"sqrt", "log", "exp"}


def floating_point(tree):
    """Line numbers of float literals, ``float(...)`` and math.sqrt/log/exp."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lines += [node.lineno for a in node.names if a.name in FLOAT_MATH]
    return lines


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"sl2rep.py", "classifier.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unbounded_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unbounded_caches(tree) == [], f"unbounded cache in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("@functools.lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@lru_cache(None)\ndef f(): pass", True),
        ("@functools.cache\ndef f(): pass", True),
        ("from functools import cache", True),
        ("@lru_cache(maxsize=128)\ndef f(): pass", False),
        ("@lru_cache\ndef f(): pass", False),
    ],
    ids=["maxsize-none", "positional-none", "cache", "import-cache", "bounded", "bare"],
)
def test_rule_detects_unbounded_caches(source, flagged):
    assert bool(unbounded_caches(ast.parse(source))) is flagged


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert floating_point(tree) == [], f"floating point in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("x = 0.5", True),
        ("x = 1e3", True),
        ("x = float(n)", True),
        ("import math\nx = math.sqrt(n)", True),
        ("x = math.log(n)", True),
        ("x = math.exp(n)", True),
        ("from math import sqrt", True),
        ("x = math.isqrt(n) + math.lcm(a, b)", False),
        ("x = Fraction(1, 2)", False),
        ("x = 10 ** 3", False),
    ],
    ids=["literal", "exponent-literal", "float-call", "sqrt", "log", "exp",
         "import-sqrt", "integer-math", "fraction", "integer-power"],
)
def test_rule_detects_floating_point(source, flagged):
    assert bool(floating_point(ast.parse(source))) is flagged


MATRIX_PRODUCTS = {"__matmul__", "__rmatmul__", "__imatmul__", "kron"}


def whole_matrix_products(tree):
    """Line numbers of the ``@`` operator and of ``__matmul__`` or ``kron`` methods.

    The matrix modules are checked and built one row at a time; a product of
    whole matrices belongs in the tests, as an oracle.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in MATRIX_PRODUCTS
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_whole_matrix_products(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert whole_matrix_products(tree) == [], f"matrix product in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("c = a @ b", True),
        ("c @= b", True),
        ("class M:\n    def __matmul__(self, o): pass", True),
        ("class M:\n    def __rmatmul__(self, o): pass", True),
        ("class M:\n    def kron(self, o): pass", True),
        ("def kron(a, b): pass", True),
        ("@dataclass\nclass M: pass", False),
        ("c = a * b", False),
        ("y = m._apply(rows, v)", False),
    ],
    ids=["matmul", "augmented", "dunder", "reflected", "kron-method",
         "kron-function", "decorator", "scalar", "apply"],
)
def test_rule_detects_whole_matrix_products(source, flagged):
    assert bool(whole_matrix_products(ast.parse(source))) is flagged


def nodes_inside(tree, name):
    """Every node of each function ``name`` in ``tree``, its ``def`` included."""
    return [
        inner
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for inner in ast.walk(node)
    ]


STDOUT_NAMES = {
    ("sys", "stdout"), ("json", "dumps"), ("json", "dump"), ("args", "format")
}


def output_outside_emit(tree, names=STDOUT_NAMES):
    """Line numbers of stdout writes and format choices outside ``_emit``.

    Those are ``sys.stdout``, ``json.dumps``, ``json.dump``, any ``csv.``
    name, ``print`` and ``args.format``.
    """
    inside = set(map(id, nodes_inside(tree, "_emit")))
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pair = (node.value.id, node.attr)
            if pair in names or node.value.id == "csv":
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "print":
            lines.append(node.lineno)
    return lines


def test_only_emit_writes_stdout():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert output_outside_emit(tree) == []


EMIT = (
    "def _emit(args, doc, rows, text):\n"
    "    if args.format == 'json':\n"
    "        sys.stdout.write(json.dumps(doc))\n"
    "    csv.DictWriter(sys.stdout, list(rows[0]))\n"
)


@pytest.mark.parametrize(
    "source,flagged",
    [
        (EMIT, False),
        (EMIT + "def f(text):\n    sys.stdout.write(text)\n", True),
        (EMIT + "def f(doc):\n    return json.dumps(doc)\n", True),
        (EMIT + "def f(rows):\n    csv.writer(rows)\n", True),
        (EMIT + "def f(text):\n    print(text)\n", True),
        (EMIT + "def f(args):\n    return args.format == 'csv'\n", True),
        (EMIT + "def f(text):\n    sys.stderr.write(text)\n", False),
        (EMIT + "def f(doc, out):\n    json.dump(doc, out)\n", True),
    ],
    ids=["emit-only", "second-stdout-write", "json-dumps", "csv", "print",
         "format-test", "stderr", "json-dump"],
)
def test_rule_detects_output_outside_emit(source, flagged):
    assert bool(output_outside_emit(ast.parse(source))) is flagged


def test_json_dump_caught_only_by_its_own_pair():
    tree = ast.parse(EMIT + "def f(doc, out):\n    json.dump(doc, out)\n")
    assert output_outside_emit(tree, STDOUT_NAMES - {("json", "dump")}) == []


PADDING = {"ljust", "rjust", "center"}


def padding_outside_emit(tree):
    """Line numbers of ``.ljust``, ``.rjust`` and ``.center`` calls outside ``_emit``.

    ``_emit`` alone pads rows into the table format's columns; a command that
    pads its own text builds a second layout, and builds it even when
    ``--quiet`` or another format drops it.
    """
    inside = set(map(id, nodes_inside(tree, "_emit")))
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PADDING
    ]


def test_only_emit_pads_columns():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert padding_outside_emit(tree) == []


PAD = (
    "def _emit(args, doc, rows, text=None):\n"
    "    text = '\\n'.join('  '.join(c.ljust(w) for c in r) for r in rows)\n"
)


@pytest.mark.parametrize(
    "source,flagged",
    [
        (PAD, False),
        (PAD + "def f(c, w):\n    return c.ljust(w)\n", True),
        (PAD + "text = name.rjust(8)\n", True),
        (PAD + "def f(c):\n    return str(c).center(9, '-')\n", True),
        (PAD + "def f(c):\n    return c.strip().ljust\n", False),
        (PAD + "def f(line):\n    return line.rstrip()\n", False),
    ],
    ids=["emit-only", "ljust", "rjust", "center", "uncalled", "rstrip"],
)
def test_rule_detects_padding_outside_emit(source, flagged):
    assert bool(padding_outside_emit(ast.parse(source))) is flagged


def stderr_outside_main(tree):
    """Line numbers of ``sys.stderr`` and ``from sys import stderr`` outside ``main``.

    Every failure of the command line reaches ``main`` as an exception, and
    ``main`` alone writes it, as one ``error: ...`` line.
    """
    inside = set(map(id, nodes_inside(tree, "main")))
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) == ("sys", "stderr"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            lines += [node.lineno for a in node.names if a.name == "stderr"]
    return lines


def test_only_main_writes_stderr():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert stderr_outside_main(tree) == []


MAIN = (
    "def main(argv):\n"
    "    try:\n"
    "        return run(argv)\n"
    "    except UsageError as exc:\n"
    "        sys.stderr.write(f'error: {exc}\\n')\n"
    "        return 2\n"
)


@pytest.mark.parametrize(
    "source,flagged",
    [
        (MAIN, False),
        (MAIN + "def f(text):\n    sys.stderr.write(text)\n", True),
        (MAIN + "def f(text):\n    print(text, file=sys.stderr)\n", True),
        (MAIN + "def f(text, out=sys.stderr):\n    out.write(text)\n", True),
        (MAIN + "from sys import stderr\n", True),
        (MAIN + "def f(text):\n    sys.stdout.write(text)\n", False),
        (MAIN + "def f(text):\n    raise UsageError(text)\n", False),
    ],
    ids=["main-only", "second-stderr-write", "print-to-stderr", "default-argument",
         "import-stderr", "stdout", "raise"],
)
def test_rule_detects_stderr_outside_main(source, flagged):
    assert bool(stderr_outside_main(ast.parse(source))) is flagged


def is_exit_code(node):
    """Whether ``node`` is an int literal (a bool is not) or a conditional with one."""
    if isinstance(node, ast.IfExp):
        return is_exit_code(node.body) or is_exit_code(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def exit_code_outside_main(tree):
    """Line numbers of a ``return`` of an int literal outside ``main``.

    A handler returns nothing: it reports a failure by raising, and ``main``
    alone turns the outcome into the exit code.
    """
    inside = set(map(id, nodes_inside(tree, "main")))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Return) and id(node) not in inside
        and is_exit_code(node.value)
    ]


def test_only_main_returns_an_exit_code():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert exit_code_outside_main(tree) == []


EXIT = (
    "def main(argv):\n"
    "    try:\n"
    "        run(argv)\n"
    "    except (UsageError, CheckFailed) as exc:\n"
    "        return 2 if isinstance(exc, UsageError) else 1\n"
    "    return 0\n"
)


@pytest.mark.parametrize(
    "source,flagged",
    [
        (EXIT, False),
        (EXIT + "def f(args):\n    emit(args)\n    return 0\n", True),
        (EXIT + "def f(ok):\n    return 0 if ok else 1\n", True),
        (EXIT + "def f(ok, code):\n    return code if ok else 1\n", True),
        (EXIT + "def f(args):\n    return g(args)\n", False),
        (EXIT + "def f(b, bits):\n    return bits > b\n", False),
        (EXIT + "def f(b):\n    if b:\n        return True\n    return False\n", False),
        (EXIT + "def f(args):\n    if args.quiet:\n        return\n", False),
    ],
    ids=["main-only", "handler-zero", "conditional", "one-literal-branch", "call",
         "comparison", "bool", "bare-return"],
)
def test_rule_detects_exit_code_outside_main(source, flagged):
    assert bool(exit_code_outside_main(ast.parse(source))) is flagged


DENSE_CHARACTER_NAMES = {"_from_dense", "_coeffs"}


def dense_character_internals(tree):
    """Line numbers that name ``_from_dense`` or ``_coeffs``, however reached.

    ``sl2rep`` owns the dense layout of a ``Character``; any other module
    builds one through the checking constructor ``Character(poly)``.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "id", getattr(node, "attr", None))
        if name in DENSE_CHARACTER_NAMES:
            lines.append(node.lineno)
    return lines


# exactalg's ``_coeffs`` is LaurentPoly's own sparse dict, not a Character's.
CHARACTER_CLIENTS = [p for p in SOURCES if p.name not in ("sl2rep.py", "exactalg.py")]


@pytest.mark.parametrize("path", CHARACTER_CLIENTS, ids=lambda p: p.name)
def test_only_sl2rep_builds_dense_characters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dense_character_internals(tree) == [], f"dense character in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("c = Character._from_dense(tuple(dense))", True),
        ("half = c._coeffs[: len(c._coeffs) // 2 + 1]", True),
        ("from .sl2rep import _from_dense", True),
        ("def f(c):\n    return getattr(c, 'x')._coeffs", True),
        ("c = Character(LaurentPoly(Counter(weights)))", False),
        ("c = tensor_irreps_character(parts)", False),
        ("text = '_from_dense'", False),
    ],
    ids=["from-dense", "coeffs", "import", "chained", "checked", "dense-product",
         "string"],
)
def test_rule_detects_dense_character_internals(source, flagged):
    assert bool(dense_character_internals(ast.parse(source))) is flagged


def names_laurent_poly(tree):
    """Line numbers where ``LaurentPoly`` is imported, named or an attribute.

    ``classify`` works on dense characters; a sparse product in the
    classifier would be a slow path back to the dict form.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for a in node.names if a.name == "LaurentPoly"]
        elif isinstance(node, ast.Name) and node.id == "LaurentPoly":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "LaurentPoly":
            lines.append(node.lineno)
    return lines


def test_classifier_names_no_laurent_poly():
    path = Path(multiproj.__file__).parent / "classifier.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert names_laurent_poly(tree) == []


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("from .exactalg import LaurentPoly", True),
        ("from .exactalg import _exact, LaurentPoly as LP", True),
        ("p = LaurentPoly()", True),
        ("p = exactalg.LaurentPoly({0: 1})", True),
        ("def f(p: LaurentPoly): pass", True),
        ("from .exactalg import _exact", False),
        ("c = tensor_irreps_character(parts)", False),
        ("text = 'LaurentPoly'", False),
    ],
    ids=["import", "import-as", "name", "attribute", "annotation", "other-import",
         "dense", "string"],
)
def test_rule_detects_laurent_poly(source, flagged):
    assert bool(names_laurent_poly(ast.parse(source))) is flagged


SYMCURVE_EXACTALG_NAMES = {"binom", "_require_int"}


def exactalg_beyond_binom(tree):
    """Line numbers that reach ``exactalg`` for anything but ``binom`` and the
    int check ``_require_int``.

    ``symcurve`` expands its series one row of ints at a time; a series
    type from ``exactalg`` would bring the general ring back.  A type check
    is not one.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "exactalg":
                lines += [node.lineno for a in node.names
                          if a.name not in SYMCURVE_EXACTALG_NAMES]
            else:
                lines += [node.lineno for a in node.names if a.name == "exactalg"]
        elif isinstance(node, ast.Import):
            names = (a.name.rpartition(".")[2] for a in node.names)
            lines += [node.lineno for name in names if name == "exactalg"]
    return lines


def test_symcurve_takes_only_binom_from_exactalg():
    path = Path(multiproj.__file__).parent / "symcurve.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert exactalg_beyond_binom(tree) == []


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("from .exactalg import binom", False),
        ("from multiproj.exactalg import binom as choose", False),
        ("from .sl2rep import Character", False),
        ("from operator import add", False),
        ("from .exactalg import _require_int, binom", False),
        ("from .exactalg import binom, LaurentPoly", True),
        ("from .exactalg import TruncatedBiseries", True),
        ("from multiproj.exactalg import geometric_sum", True),
        ("from .exactalg import *", True),
        ("from . import exactalg", True),
        ("import multiproj.exactalg", True),
    ],
    ids=["binom", "binom-as", "other-module", "stdlib", "int-check",
         "binom-and-more", "series-type", "absolute", "star", "module",
         "import-module"],
)
def test_rule_detects_exactalg_beyond_binom(source, flagged):
    assert bool(exactalg_beyond_binom(ast.parse(source))) is flagged


CLOSED_FORM_NAMES = {"binom", "comb", "_closed_half"}


def closed_form_in_series(tree):
    """Line numbers inside ``_series_rows`` that name ``binom``, ``comb`` or
    ``_closed_half``.

    Each Betti row is checked against the closed form; a series expansion that
    took its coefficients from the closed form would check nothing.
    """
    lines = []
    for inner in nodes_inside(tree, "_series_rows"):
        if isinstance(inner, ast.alias):  # an import, under any asname
            name = inner.name.rpartition(".")[2]
        else:
            name = getattr(inner, "id", getattr(inner, "attr", None))
        if name in CLOSED_FORM_NAMES:
            lines.append(inner.lineno)
    return lines


def test_series_rows_names_no_closed_form():
    path = Path(multiproj.__file__).parent / "symcurve.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_series_rows" in defined
    assert closed_form_in_series(tree) == []


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("def _series_rows(g, n):\n    return [binom(2 * g, i) for i in g]", True),
        ("def _series_rows(g, n):\n    return math.comb(2 * g, n)", True),
        ("def _series_rows(g, n):\n    from math import comb as c\n    return c", True),
        ("def _series_rows(g, n):\n    return _closed_half(g, n)", True),
        ("def _series_rows(g, n):\n    c = c * (2 * g - i) // (i + 1)", False),
        ("def _closed_half(g, n):\n    return binom(2 * g, n)", False),
        ("from .exactalg import binom\ndef _series_rows(g, n): pass", False),
    ],
    ids=["binom", "math-comb", "import-comb-as", "closed-half", "ratio",
         "other-function", "module-import"],
)
def test_rule_detects_closed_form_in_series(source, flagged):
    assert bool(closed_form_in_series(ast.parse(source))) is flagged


CLI_SYMCURVE_NAMES = {
    "_compare", "_poincare_rows", "compare_dimensions", "poincare_polynomial"
}


def symcurve_beyond_rows(tree):
    """Line numbers that take from ``symcurve`` more than the CLI may use.

    The command line prints the rows and comparisons ``symcurve`` checked;
    ``betti_closed`` or ``total_dim_cohomology`` there would re-derive them.
    ``_compare`` takes the total of a checked row and derives no Betti number.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "symcurve":
                lines += [node.lineno for a in node.names
                          if a.name not in CLI_SYMCURVE_NAMES]
            else:
                lines += [node.lineno for a in node.names if a.name == "symcurve"]
        elif isinstance(node, ast.Import):
            names = (a.name.rpartition(".")[2] for a in node.names)
            lines += [node.lineno for name in names if name == "symcurve"]
    return lines


def test_cli_takes_only_checked_rows_from_symcurve():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert symcurve_beyond_rows(tree) == []


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("from .symcurve import _poincare_rows, compare_dimensions", False),
        ("from .symcurve import _compare", False),
        ("from multiproj.symcurve import poincare_polynomial as pp", False),
        ("from .exactalg import binom", False),
        ("from .symcurve import poincare_polynomial, betti_closed", True),
        ("from .symcurve import total_dim_cohomology", True),
        ("from multiproj.symcurve import _series_rows", True),
        ("from .symcurve import _compare, _total_dim", True),
        ("from .symcurve import *", True),
        ("from . import symcurve", True),
        ("import multiproj.symcurve", True),
    ],
    ids=["rows", "compare", "alias", "other-module", "closed-form", "sum-formula",
         "absolute", "unchecked-sum", "star", "module", "import-module"],
)
def test_rule_detects_symcurve_beyond_rows(source, flagged):
    assert bool(symcurve_beyond_rows(ast.parse(source))) is flagged


INT_TYPES = {"int", "bool"}


def names_int_type(node):
    """Whether ``node`` is the name ``int`` or ``bool``, or a display holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_int_type(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id in INT_TYPES


def int_checks(tree):
    """Line numbers of ``isinstance``/``issubclass`` against ``int`` or ``bool``,
    and of comparisons with ``int``, ``bool`` or a set of types holding one.

    ``exactalg`` decides what an exact int is, in ``_require_int`` and
    ``_exact``; a second spelling of that rule elsewhere could drift from it.
    """
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and any(names_int_type(arg) for arg in node.args[1:])
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            names_int_type(side) for side in (node.left, *node.comparators)
        ):
            lines.append(node.lineno)
    return lines


INT_CHECK_CLIENTS = [p for p in SOURCES if p.name != "exactalg.py"]


@pytest.mark.parametrize("path", INT_CHECK_CLIENTS, ids=lambda p: p.name)
def test_only_exactalg_checks_ints(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert int_checks(tree) == [], f"int check in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("if not isinstance(v, int) or isinstance(v, bool):\n    pass", True),
        ("ok = isinstance(v, bool)", True),
        ("ok = isinstance(v, (Fraction, int))", True),
        ("ok = {type(n), *map(type, betti)} != {int}", True),
        ("ok = type(v) is int", True),
        ("ok = g == 0 and isinstance(g, int) and g is not False", True),
        ("ok = issubclass(type(v), int)", True),
        ("_require_int(('g', 'n'), (g, n))", False),
        ("ok = isinstance(other, ProjPoint)", False),
        ("value = int(token, 10)", False),
        ("ok = Fraction in map(type, row.values())", False),
        ("ok = n == 0", False),
    ],
    ids=["loop", "bool", "type-tuple", "type-set", "type-is", "route", "subclass",
         "helper", "other-class", "int-call", "fraction-screen", "value"],
)
def test_rule_detects_int_checks(source, flagged):
    assert bool(int_checks(ast.parse(source))) is flagged


def powers_of_ten(tree):
    """Line numbers of ``10 ** x`` and ``pow(10, ...)`` outside ``_over_digits``.

    The command line sizes what it prints by digits, and ``_over_digits``
    alone decides whether a number has more digits than a limit; a second
    power of ten would be a second copy of that rule.
    """
    inside = set(map(id, nodes_inside(tree, "_over_digits")))
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow":
            base = node.args[0] if node.args else None
        else:
            continue
        if isinstance(base, ast.Constant) and base.value == 10:
            lines.append(node.lineno)
    return lines


def test_only_the_digit_helper_forms_a_power_of_ten():
    path = Path(multiproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert powers_of_ten(tree) == []


DIGITS = (
    "def _over_digits(v, digits):\n"
    "    return v.bit_length() > 3 * digits and v >= 10**digits\n"
)


@pytest.mark.parametrize(
    "source,flagged",
    [
        (DIGITS, False),
        (DIGITS + "x = 10**d\n", True),
        (DIGITS + "def f(n):\n    return n >= 10 ** 4000\n", True),
        (DIGITS + "x = pow(10, d)\n", True),
        (DIGITS + "def _shown(v):\n    return v if v < 10**d else 'over'\n", True),
        (DIGITS + "shown = f'over 10^{d}'\n", False),
        (DIGITS + "x = 2 ** d\n", False),
        (DIGITS + "x = d ** 10\n", False),
        (DIGITS + "x = pow(d, 10)\n", False),
        (DIGITS + "x = 10 * d\n", False),
    ],
    ids=["helper-only", "power", "comparison", "pow-call", "display", "text",
         "other-base", "exponent-ten", "pow-exponent", "product"],
)
def test_rule_detects_powers_of_ten(source, flagged):
    assert bool(powers_of_ten(ast.parse(source))) is flagged


# Methods that nothing in the package, its command line or its benchmark
# read: the tests build these values from the constructors instead.
TEST_ONLY_METHODS = {
    "LaurentPoly": {"zero", "one", "term", "coefficient", "evaluate_at_one",
                    "__neg__", "__sub__"},
    "Character": {"__mul__"},
    "Partition": {"__iter__", "__len__"},
    "IrrepMultiset": {"total", "__len__"},
    "RatMatrix": {"entry", "is_zero", "apply"},
    "BracketReport": {"to_json"},
}


def methods_read_only_by_tests(tree):
    """Line numbers of a def or class attribute of ``TEST_ONLY_METHODS``."""
    lines = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        banned = TEST_ONLY_METHODS.get(cls.name, set())
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            if banned.intersection(names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_test_only_methods(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert methods_read_only_by_tests(tree) == [], f"test-only method in {path.name}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("class LaurentPoly:\n    def zero(cls): pass", True),
        ("class LaurentPoly:\n    @classmethod\n    def term(cls, c, e): pass", True),
        ("class Character:\n    def __mul__(self, o): pass", True),
        ("class RatMatrix:\n    apply = _apply", True),
        ("class BracketReport:\n    def to_json(self): pass", True),
        ("def f():\n    class RatMatrix:\n        def entry(self): pass", True),
        ("class RatMatrix:\n    def _apply(self, rows, vec): pass", False),
        ("class Partition:\n    def __len__(self): pass", True),
        ("class IrrepMultiset:\n    def __len__(self): pass", True),
        ("class IrrepMultiset:\n    def __iter__(self): pass", False),
        ("class LaurentPoly:\n    def __add__(self, o): pass", False),
        ("class PoincarePolynomial:\n    def total(self): pass", False),
        ("def entry(m, i, j): pass", False),
    ],
    ids=["method", "classmethod", "dunder", "alias", "report", "nested",
         "partition-len", "multiset-len", "multiset-iter", "private", "kept",
         "other-class", "function"],
)
def test_rule_detects_test_only_methods(source, flagged):
    assert bool(methods_read_only_by_tests(ast.parse(source))) is flagged
