"""Rules on the package source: each is one entry of ``RULES``, which says what
it keeps out of which modules and why, and one of ``SNIPPETS``, its self-test."""

import ast
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import multiproj

PACKAGE = Path(multiproj.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
CLI, SYMCURVE = PACKAGE / "cli.py", PACKAGE / "symcurve.py"


def nodes_inside(tree, name):
    """Every node of each function ``name`` in ``tree``, its ``def`` included."""
    return [
        inner
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for inner in ast.walk(node)
    ]


def imported_names(pairs, nodes):
    """Line numbers of ``m.x`` and ``from m import x``, for ``(m, x)`` in ``pairs``."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in pairs:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for a in node.names if (node.module, a.name) in pairs]
    return lines


def named(banned, nodes):
    """Line numbers naming one of ``banned``: a name, an attribute or an import."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.alias):  # an import, under any asname
            name = node.name.rpartition(".")[2]
        else:
            name = getattr(node, "id", getattr(node, "attr", None))
        if name in banned:
            lines.append(node.lineno)
    return lines


def imports_beyond(module, allowed, nodes):
    """Line numbers that import ``module``, or a name from it not in ``allowed``."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == module:
                lines += [node.lineno for a in node.names if a.name not in allowed]
            else:
                lines += [node.lineno for a in node.names if a.name == module]
        elif isinstance(node, ast.Import):
            names = (a.name.rpartition(".")[2] for a in node.names)
            lines += [node.lineno for name in names if name == module]
    return lines


def power_args(node):
    """``[a, b]`` for ``a ** b``, the arguments of a ``pow`` call, else ``[]``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return [node.left, node.right]
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow":
        return node.args
    return []


def unbounded_caches(nodes):
    """Line numbers of ``lru_cache(maxsize=None)`` and ``functools.cache``,
    under any name an import gives them."""
    lru, tools = {"lru_cache"}, {"functools"}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lru |= {a.asname or a.name for a in node.names if a.name == "lru_cache"}
            tools |= {a.asname or a.name for a in node.names if a.name == "functools"}
    lines = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if getattr(node.value, "id", None) in tools:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) not in lru:
                continue
            sizes = node.args[:1]
            sizes += [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                lines.append(node.lineno)
    return lines


FLOAT_NAMES = {("math", f) for f in ("sqrt", "log", "exp", "pow", "fsum")} | {
    ("time", f) for f in ("time", "perf_counter", "monotonic", "process_time")
}


def floating_point(nodes):
    """Line numbers of float literals, ``float(...)``, true division, a power
    to a negated exponent, and the float functions of ``math`` and ``time``."""
    lines = imported_names(FLOAT_NAMES, nodes)
    for node in nodes:
        args = power_args(node)
        if (
            len(args) == 2  # pow(a, -1, m) is an int
            and isinstance(getattr(args[1], "op", None), ast.USub)
            or isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
            or isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
        ):
            lines.append(node.lineno)
    return lines


MATRIX_PRODUCTS = {"__matmul__", "__rmatmul__", "__imatmul__", "kron"}


def whole_matrix_products(nodes):
    """Line numbers of the ``@`` operator and of ``__matmul__`` or ``kron`` methods."""
    lines = []
    for node in nodes:
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


STDOUT_NAMES = {
    ("sys", "stdout"), ("json", "dumps"), ("json", "dump"), ("args", "format")
}


def stdout_writes(nodes, names=STDOUT_NAMES):
    """Line numbers of stdout writes and format choices: ``sys.stdout``,
    ``json.dumps``, ``json.dump``, any ``csv.`` name, ``print`` and ``args.format``."""
    return imported_names(names, nodes) + [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "csv"
        or isinstance(node, ast.Name) and node.id == "print"
    ]


def padding_calls(nodes):
    """Line numbers of ``.ljust``, ``.rjust`` and ``.center`` calls."""
    return [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"ljust", "rjust", "center"}
    ]


def is_exit_code(node):
    """Whether ``node`` is an int literal (a bool is not) or a conditional with one."""
    if isinstance(node, ast.IfExp):
        return is_exit_code(node.body) or is_exit_code(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def exit_code_returns(nodes):
    """Line numbers of a ``return`` of an int literal."""
    return [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Return) and is_exit_code(node.value)
    ]


def names_int_type(node):
    """Whether ``node`` is the name ``int`` or ``bool``, or a display holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_int_type(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id in {"int", "bool"}


def int_checks(nodes):
    """Line numbers of ``isinstance``/``issubclass`` against ``int`` or ``bool``,
    and of comparisons with ``int``, ``bool`` or a set of types holding one."""
    lines = []
    for node in nodes:
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


def private_names(modules, nodes):
    """Line numbers of ``from m import _x`` and ``m._x``, for m in ``modules``."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] in modules:
                lines += [node.lineno for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if getattr(node.value, "id", None) in modules:
                lines.append(node.lineno)
    return lines


def powers_of_ten(nodes):
    """Line numbers of ``10 ** x`` and ``pow(10, ...)``."""
    lines = []
    for node in nodes:
        base = power_args(node)[:1]
        if base and isinstance(base[0], ast.Constant) and base[0].value == 10:
            lines.append(node.lineno)
    return lines


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


def methods_read_only_by_tests(nodes):
    """Line numbers of a def or class attribute of ``TEST_ONLY_METHODS``."""
    lines = []
    for cls in nodes:
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


class Rule(NamedTuple):
    test: str  # the name of the test that finds ``files`` clean
    matcher: Callable  # scanned nodes -> the line numbers it flags
    files: Path | list  # one module, or a list of them
    inside: str | None = None  # the one function the rule scans
    exempt: str | None = None  # the one function it skips
    one_test: bool = False  # scan a list of modules in one unparametrized test


RULES = {
    # No cache that grows without bound in a long-lived process.
    "unbounded_caches": Rule("test_no_unbounded_cache", unbounded_caches, SOURCES),
    # No floating point, ever: a clock is ``perf_counter_ns``, and the one
    # true division, in ``ProjPoint.normalized``, divides Fractions.
    "floating_point": Rule(
        "test_no_floating_point", floating_point, SOURCES, exempt="normalized"
    ),
    # The matrix modules are checked and built one row at a time; a product
    # of whole matrices belongs in the tests, as an oracle.
    "whole_matrix_products": Rule(
        "test_no_whole_matrix_products", whole_matrix_products, SOURCES
    ),
    # ``_emit`` alone writes stdout and reads the format.
    "output_outside_emit": Rule(
        "test_only_emit_writes_stdout", stdout_writes, CLI, exempt="_emit"
    ),
    # ``_emit`` alone pads rows into the table format's columns; a command
    # that pads its own text builds a second layout, even when ``--quiet`` or
    # another format drops it.
    "padding_outside_emit": Rule(
        "test_only_emit_pads_columns", padding_calls, CLI, exempt="_emit"
    ),
    # Every failure of the command line reaches ``main`` as an exception, and
    # ``main`` alone writes it, as one ``error: ...`` line.
    "stderr_outside_main": Rule(
        "test_only_main_writes_stderr",
        partial(imported_names, {("sys", "stderr")}), CLI, exempt="main",
    ),
    # ``main`` alone bounds an error line, with ``_cut``, whatever the message
    # echoes; a refusal that cut its own echo would be a second length rule.
    "cut_outside_main": Rule(
        "test_only_main_cuts_an_error_line", partial(named, {"_cut"}), CLI, exempt="main"
    ),
    # A handler returns nothing: it reports a failure by raising, and
    # ``main`` alone turns the outcome into the exit code.
    "exit_code_outside_main": Rule(
        "test_only_main_returns_an_exit_code", exit_code_returns, CLI, exempt="main"
    ),
    # ``sl2rep`` owns the dense layout of a ``Character``; any other module
    # builds one through the checking constructor ``Character(poly)``.
    # exactalg's ``_coeffs`` is LaurentPoly's own sparse dict.
    "dense_character_internals": Rule(
        "test_only_sl2rep_builds_dense_characters",
        partial(named, {"_from_dense", "_coeffs"}),
        [p for p in SOURCES if p.name not in ("sl2rep.py", "exactalg.py")],
    ),
    # ``classify`` works on dense characters; a sparse product in the
    # classifier would be a slow path back to the dict form.
    "laurent_poly": Rule(
        "test_classifier_names_no_laurent_poly",
        partial(named, {"LaurentPoly"}), PACKAGE / "classifier.py",
    ),
    # ``symcurve`` expands its series one row of ints at a time; a series type
    # from ``exactalg`` would bring the general ring back.  Its int check
    # ``_require_int`` is not one.
    "exactalg_beyond_binom": Rule(
        "test_symcurve_takes_only_binom_from_exactalg",
        partial(imports_beyond, "exactalg", {"binom", "_require_int"}), SYMCURVE,
    ),
    # Each Betti row is checked against the closed form; a series expansion
    # that took its coefficients from the closed form would check nothing.
    "closed_form_in_series": Rule(
        "test_series_rows_names_no_closed_form",
        partial(named, {"binom", "comb", "_closed_half"}), SYMCURVE,
        inside="_series_rows",
    ),
    # The command line prints the rows and comparisons ``symcurve`` checked;
    # ``betti_closed`` or ``total_dim_cohomology`` there would re-derive them.
    # ``dimension_table`` pairs each checked row with its comparison.
    "symcurve_beyond_rows": Rule(
        "test_cli_takes_only_checked_rows_from_symcurve",
        partial(imports_beyond, "symcurve", {
            "compare_dimensions", "dimension_table", "poincare_polynomial"
        }),
        CLI,
    ),
    # Each command makes one public library call and formats what it returns;
    # a private name of a computing module would be a piece of a computation
    # done in the command line.  ``exactalg._all_int``, the package's one int
    # check, and ``_record`` are not computations.
    "private_library_names": Rule(
        "test_cli_takes_no_private_name_from_a_computing_module",
        partial(private_names, {"classifier", "lefschetz", "sl2rep", "symcurve"}), CLI,
    ),
    # ``exactalg`` decides what an exact int is, in ``_require_int`` and
    # ``_exact``; a second spelling of that rule elsewhere could drift from it.
    "int_checks": Rule(
        "test_only_exactalg_checks_ints", int_checks,
        [p for p in SOURCES if p.name != "exactalg.py"],
    ),
    # Sizes are checked and shown by digits, and ``exactalg._over_digits``
    # alone decides whether a number has more digits than a limit; a second
    # power of ten, in any module, would be a second copy of that rule.
    "powers_of_ten": Rule(
        "test_only_the_digit_helper_forms_a_power_of_ten", powers_of_ten, SOURCES,
        exempt="_over_digits", one_test=True,
    ),
    # Methods deleted because only the tests read them stay deleted.
    "test_only_methods": Rule(
        "test_no_test_only_methods", methods_read_only_by_tests, SOURCES
    ),
    # A result type is a ``_record.Record``: ``dataclasses`` (with the
    # ``inspect`` and ``ast`` it imports) cost ``import multiproj`` more than
    # the rest of the package; the tests keep it, as the records' oracle.
    "dataclasses": Rule(
        "test_no_dataclasses_import", partial(imports_beyond, "dataclasses", ()), SOURCES
    ),
}


def scanned(rule, tree):
    """The nodes of ``tree`` that ``rule`` scans."""
    r = RULES[rule]
    if r.inside:
        return nodes_inside(tree, r.inside)
    skipped = set(map(id, nodes_inside(tree, r.exempt)))
    return [node for node in ast.walk(tree) if id(node) not in skipped]


def flags(rule, tree):
    return RULES[rule].matcher(scanned(rule, tree))


def after(prefix, cases):
    """``cases`` with ``prefix`` put before each source."""
    return [(case, prefix + source, flagged) for case, source, flagged in cases]


EMIT = (
    "def _emit(args, doc, rows, text):\n"
    "    if args.format == 'json':\n"
    "        sys.stdout.write(json.dumps(doc))\n"
    "    csv.DictWriter(sys.stdout, list(rows[0]))\n"
)
PAD = (
    "def _emit(args, doc, rows, text=None):\n"
    "    text = '\\n'.join('  '.join(c.ljust(w) for c in r) for r in rows)\n"
)
MAIN = (
    "def main(argv):\n"
    "    try:\n"
    "        return run(argv)\n"
    "    except UsageError as exc:\n"
    "        sys.stderr.write(f'error: {exc}\\n')\n"
    "        return 2\n"
)
CUT = (
    "def _cut(message):\n"
    "    return message if len(message) <= 192 else message[:120] + '...'\n"
    "def main(argv):\n"
    "    try:\n"
    "        run(argv)\n"
    "    except UsageError as exc:\n"
    "        sys.stderr.write(f'error: {_cut(str(exc))}\\n')\n"
)
EXIT = (
    "def main(argv):\n"
    "    try:\n"
    "        run(argv)\n"
    "    except (UsageError, CheckFailed) as exc:\n"
    "        return 2 if isinstance(exc, UsageError) else 1\n"
    "    return 0\n"
)
DIGITS = (
    "def _over_digits(v, digits):\n"
    "    return v.bit_length() > 3 * digits and v >= 10**digits\n"
)

# Each rule's self-test: (id, source, whether the rule flags it).
SNIPPETS = {
    "unbounded_caches": [
        ("maxsize-none", "@functools.lru_cache(maxsize=None)\ndef f(): pass", True),
        ("positional-none", "@lru_cache(None)\ndef f(): pass", True),
        ("cache", "@functools.cache\ndef f(): pass", True),
        ("import-cache", "from functools import cache", True),
        ("lru-cache-as",
         "from functools import lru_cache as memo\n@memo(maxsize=None)\ndef f(): pass",
         True),
        ("module-as", "import functools as ft\n@ft.cache\ndef f(): pass", True),
        ("bounded", "@lru_cache(maxsize=128)\ndef f(): pass", False),
        ("bare", "@lru_cache\ndef f(): pass", False),
        ("lru-cache-as-bounded",
         "from functools import lru_cache as memo\n@memo(maxsize=64)\ndef f(): pass",
         False),
        ("other-cache", "hits = self.cache", False),
    ],
    "floating_point": [
        ("literal", "x = 0.5", True),
        ("exponent-literal", "x = 1e3", True),
        ("float-call", "x = float(n)", True),
        ("sqrt", "import math\nx = math.sqrt(n)", True),
        ("log", "x = math.log(n)", True),
        ("exp", "x = math.exp(n)", True),
        ("import-sqrt", "from math import sqrt", True),
        ("true-division", "x = n / 2", True),
        ("divide-in-place", "x /= 2", True),
        ("negative-power", "x = 2 ** -1", True),
        ("pow-negative", "x = pow(2, -1)", True),
        ("math-pow", "x = math.pow(2, 3)", True),
        ("fsum", "x = math.fsum(xs)", True),
        ("clock", "t = time.time()", True),
        ("perf-counter", "t = time.perf_counter()", True),
        ("monotonic", "t = time.monotonic()", True),
        ("process-time", "t = time.process_time()", True),
        ("import-perf-counter", "from time import perf_counter", True),
        ("import-time", "from time import time", True),
        ("integer-math", "x = math.isqrt(n) + math.lcm(a, b)", False),
        ("fraction", "x = Fraction(1, 2)", False),
        ("fraction-of-names", "x = Fraction(a, b)", False),
        ("integer-power", "x = 10 ** 3", False),
        ("power-of-ten", "x = 10 ** d", False),
        ("floor-division", "x = n // 2", False),
        ("perf-counter-ns", "t = time.perf_counter_ns()", False),
        ("modular-inverse", "x = pow(a, -1, m)", False),
        ("normalized",
         "def normalized(cs, lead):\n    return [c / lead for c in cs]", False),
    ],
    "whole_matrix_products": [
        ("matmul", "c = a @ b", True),
        ("augmented", "c @= b", True),
        ("dunder", "class M:\n    def __matmul__(self, o): pass", True),
        ("reflected", "class M:\n    def __rmatmul__(self, o): pass", True),
        ("kron-method", "class M:\n    def kron(self, o): pass", True),
        ("kron-function", "def kron(a, b): pass", True),
        ("decorator", "@dataclass\nclass M: pass", False),
        ("scalar", "c = a * b", False),
        ("apply", "y = m._apply(rows, v)", False),
    ],
    "output_outside_emit": after(EMIT, [
        ("emit-only", "", False),
        ("second-stdout-write", "def f(text):\n    sys.stdout.write(text)\n", True),
        ("json-dumps", "def f(doc):\n    return json.dumps(doc)\n", True),
        ("csv", "def f(rows):\n    csv.writer(rows)\n", True),
        ("print", "def f(text):\n    print(text)\n", True),
        ("format-test", "def f(args):\n    return args.format == 'csv'\n", True),
        ("stderr", "def f(text):\n    sys.stderr.write(text)\n", False),
        ("json-dump", "def f(doc, out):\n    json.dump(doc, out)\n", True),
        ("import-stdout", "from sys import stdout\n", True),
        ("import-dumps", "from json import dumps\n", True),
        ("import-dump", "from json import dump\n", True),
        ("import-stderr", "from sys import stderr\n", False),
    ]),
    "padding_outside_emit": after(PAD, [
        ("emit-only", "", False),
        ("ljust", "def f(c, w):\n    return c.ljust(w)\n", True),
        ("rjust", "text = name.rjust(8)\n", True),
        ("center", "def f(c):\n    return str(c).center(9, '-')\n", True),
        ("uncalled", "def f(c):\n    return c.strip().ljust\n", False),
        ("rstrip", "def f(line):\n    return line.rstrip()\n", False),
    ]),
    "stderr_outside_main": after(MAIN, [
        ("main-only", "", False),
        ("second-stderr-write", "def f(text):\n    sys.stderr.write(text)\n", True),
        ("print-to-stderr", "def f(text):\n    print(text, file=sys.stderr)\n", True),
        ("default-argument",
         "def f(text, out=sys.stderr):\n    out.write(text)\n", True),
        ("import-stderr", "from sys import stderr\n", True),
        ("stdout", "def f(text):\n    sys.stdout.write(text)\n", False),
        ("raise", "def f(text):\n    raise UsageError(text)\n", False),
    ]),
    "cut_outside_main": after(CUT, [
        ("main-only", "", False),
        ("echo", "def f(text):\n    raise UsageError(f'bad {_cut(repr(text))}')\n", True),
        ("mapped", "def f(parts):\n    return ', '.join(map(_cut, parts))\n", True),
        ("module-level", "short = _cut(message)\n", True),
        ("import", "from .cli import _cut\n", True),
        ("slice", "def f(text):\n    return text[:32] + '...'\n", False),
        ("method", "def f(text):\n    return text.cut(32)\n", False),
    ]),
    "exit_code_outside_main": after(EXIT, [
        ("main-only", "", False),
        ("handler-zero", "def f(args):\n    emit(args)\n    return 0\n", True),
        ("conditional", "def f(ok):\n    return 0 if ok else 1\n", True),
        ("one-literal-branch",
         "def f(ok, code):\n    return code if ok else 1\n", True),
        ("call", "def f(args):\n    return g(args)\n", False),
        ("comparison", "def f(b, bits):\n    return bits > b\n", False),
        ("bool",
         "def f(b):\n    if b:\n        return True\n    return False\n", False),
        ("bare-return", "def f(args):\n    if args.quiet:\n        return\n", False),
    ]),
    "dense_character_internals": [
        ("from-dense", "c = Character._from_dense(tuple(dense))", True),
        ("coeffs", "half = c._coeffs[: len(c._coeffs) // 2 + 1]", True),
        ("import", "from .sl2rep import _from_dense", True),
        ("chained", "def f(c):\n    return getattr(c, 'x')._coeffs", True),
        ("checked", "c = Character(LaurentPoly(Counter(weights)))", False),
        ("dense-product", "c = tensor_irreps_character(parts)", False),
        ("string", "text = '_from_dense'", False),
    ],
    "laurent_poly": [
        ("import", "from .exactalg import LaurentPoly", True),
        ("import-as", "from .exactalg import _exact, LaurentPoly as LP", True),
        ("name", "p = LaurentPoly()", True),
        ("attribute", "p = exactalg.LaurentPoly({0: 1})", True),
        ("annotation", "def f(p: LaurentPoly): pass", True),
        ("other-import", "from .exactalg import _exact", False),
        ("dense", "c = tensor_irreps_character(parts)", False),
        ("string", "text = 'LaurentPoly'", False),
    ],
    "exactalg_beyond_binom": [
        ("binom", "from .exactalg import binom", False),
        ("binom-as", "from multiproj.exactalg import binom as choose", False),
        ("other-module", "from .sl2rep import Character", False),
        ("stdlib", "from operator import add", False),
        ("int-check", "from .exactalg import _require_int, binom", False),
        ("binom-and-more", "from .exactalg import binom, LaurentPoly", True),
        ("series-type", "from .exactalg import TruncatedBiseries", True),
        ("absolute", "from multiproj.exactalg import geometric_sum", True),
        ("star", "from .exactalg import *", True),
        ("module", "from . import exactalg", True),
        ("import-module", "import multiproj.exactalg", True),
    ],
    "closed_form_in_series": after("def _series_rows(g, n):\n    ", [
        ("binom", "return [binom(2 * g, i) for i in g]", True),
        ("math-comb", "return math.comb(2 * g, n)", True),
        ("import-comb-as", "from math import comb as c\n    return c", True),
        ("closed-half", "return _closed_half(g, n)", True),
        ("ratio", "c = c * (2 * g - i) // (i + 1)", False),
    ]) + [
        ("other-function",
         "def _closed_half(g, n):\n    return binom(2 * g, n)", False),
        ("module-import", "from .exactalg import binom\ndef _series_rows(g, n): pass",
         False),
    ],
    "symcurve_beyond_rows": [
        ("rows", "from .symcurve import _poincare_rows, compare_dimensions", True),
        ("compare", "from .symcurve import _compare", True),
        ("table", "from .symcurve import dimension_table, compare_dimensions", False),
        ("alias", "from multiproj.symcurve import poincare_polynomial as pp", False),
        ("other-module", "from .exactalg import binom", False),
        ("closed-form",
         "from .symcurve import poincare_polynomial, betti_closed", True),
        ("sum-formula", "from .symcurve import total_dim_cohomology", True),
        ("absolute", "from multiproj.symcurve import _series_rows", True),
        ("unchecked-sum", "from .symcurve import _compare, _total_dim", True),
        ("star", "from .symcurve import *", True),
        ("module", "from . import symcurve", True),
        ("import-module", "import multiproj.symcurve", True),
    ],
    "private_library_names": [
        ("rows", "from .symcurve import _poincare_rows", True),
        ("aliased", "from multiproj.lefschetz import _x_kernel_dims as kernels", True),
        ("among-public", "from .sl2rep import Character, _peel_q_integers", True),
        ("classifier", "from .classifier import _TOKEN_SPLIT", True),
        ("attribute", "dims = symcurve._compare(g, n, total)", True),
        ("public", "from .symcurve import dimension_table, poincare_polynomial", False),
        ("int-check", "from .exactalg import LaurentPoly, _all_int", False),
        ("record", "from ._record import Record, _set", False),
        ("own-name", "raise _UsageError(message)", False),
        ("string", "text = '_poincare_rows'", False),
    ],
    "int_checks": [
        ("loop", "if not isinstance(v, int) or isinstance(v, bool):\n    pass", True),
        ("bool", "ok = isinstance(v, bool)", True),
        ("type-tuple", "ok = isinstance(v, (Fraction, int))", True),
        ("type-set", "ok = {type(n), *map(type, betti)} != {int}", True),
        ("type-is", "ok = type(v) is int", True),
        ("route", "ok = g == 0 and isinstance(g, int) and g is not False", True),
        ("subclass", "ok = issubclass(type(v), int)", True),
        ("helper", "_require_int(('g', 'n'), (g, n))", False),
        ("other-class", "ok = isinstance(other, ProjPoint)", False),
        ("int-call", "value = int(token, 10)", False),
        ("fraction-screen", "ok = Fraction in map(type, row.values())", False),
        ("value", "ok = n == 0", False),
    ],
    "powers_of_ten": after(DIGITS, [
        ("helper-only", "", False),
        ("power", "x = 10**d\n", True),
        ("comparison", "def f(n):\n    return n >= 10 ** 4000\n", True),
        ("pow-call", "x = pow(10, d)\n", True),
        ("display", "def _shown(v):\n    return v if v < 10**d else 'over'\n", True),
        ("text", "shown = f'over 10^{d}'\n", False),
        ("other-base", "x = 2 ** d\n", False),
        ("exponent-ten", "x = d ** 10\n", False),
        ("pow-exponent", "x = pow(d, 10)\n", False),
        ("product", "x = 10 * d\n", False),
    ]),
    "test_only_methods": [
        ("method", "class LaurentPoly:\n    def zero(cls): pass", True),
        ("classmethod",
         "class LaurentPoly:\n    @classmethod\n    def term(cls, c, e): pass", True),
        ("dunder", "class Character:\n    def __mul__(self, o): pass", True),
        ("alias", "class RatMatrix:\n    apply = _apply", True),
        ("report", "class BracketReport:\n    def to_json(self): pass", True),
        ("nested",
         "def f():\n    class RatMatrix:\n        def entry(self): pass", True),
        ("private", "class RatMatrix:\n    def _apply(self, rows, vec): pass", False),
        ("partition-len", "class Partition:\n    def __len__(self): pass", True),
        ("multiset-len", "class IrrepMultiset:\n    def __len__(self): pass", True),
        ("multiset-iter", "class IrrepMultiset:\n    def __iter__(self): pass", False),
        ("kept", "class LaurentPoly:\n    def __add__(self, o): pass", False),
        ("other-class", "class PoincarePolynomial:\n    def total(self): pass", False),
        ("function", "def entry(m, i, j): pass", False),
    ],
    "dataclasses": [
        ("import", "import dataclasses", True),
        ("from-import", "from dataclasses import dataclass", True),
        ("aliased-import", "import dataclasses as dc", True),
        ("aliased-name", "from dataclasses import replace as evolve", True),
        ("record", "from ._record import Record, _set", False),
        ("string", "text = 'dataclasses'", False),
    ],
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def rule_tests(rule):
    """``rule``'s two tests, under the names they have always had: its files
    are clean, and the rule flags each of its snippets as ``SNIPPETS`` says."""
    r = RULES[rule]
    if isinstance(r.files, Path):  # one module: the test takes no parameter
        def clean():
            assert flags(rule, parse(r.files)) == []
    elif r.one_test:  # a rule that once scanned one module keeps its one test
        def clean():
            found = {p.name: lines for p in r.files if (lines := flags(rule, parse(p)))}
            assert found == {}, rule
    else:
        @pytest.mark.parametrize("path", r.files, ids=lambda p: p.name)
        def clean(path):
            assert flags(rule, parse(path)) == [], f"{rule} in {path.name}"

    @pytest.mark.parametrize(
        "source,flagged",
        [case[1:] for case in SNIPPETS[rule]],
        ids=[case[0] for case in SNIPPETS[rule]],
    )
    def detects(source, flagged):
        assert bool(flags(rule, ast.parse(source))) is flagged

    return {r.test: clean, f"test_rule_detects_{rule}": detects}


globals().update(pair for rule in RULES for pair in rule_tests(rule).items())


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"sl2rep.py", "classifier.py", "cli.py"}


def test_every_rule_has_snippets_of_both_kinds():
    assert SNIPPETS.keys() == RULES.keys()
    for rule, cases in SNIPPETS.items():
        assert {flagged for _, _, flagged in cases} == {True, False}, rule


def test_every_scanned_or_exempt_function_exists():
    """A rule whose function was renamed would scan nothing, or skip nothing."""
    missing = [
        (rule, owner)
        for rule, r in RULES.items()
        if (owner := r.inside or r.exempt)
        and not any(
            nodes_inside(parse(path), owner)
            for path in ([r.files] if isinstance(r.files, Path) else r.files)
        )
    ]
    assert missing == []


def test_json_dump_caught_only_by_its_own_pair():
    tree = ast.parse(EMIT + "def f(doc, out):\n    json.dump(doc, out)\n")
    nodes = scanned("output_outside_emit", tree)
    assert stdout_writes(nodes, STDOUT_NAMES - {("json", "dump")}) == []
