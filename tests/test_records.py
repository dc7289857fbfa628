"""The result types are immutable records on ``multiproj._record.Record``.

Each behaves as the frozen dataclass with its fields would: the tests define
those dataclasses as the oracle and compare the two on printing, equality,
hashing, frozen fields, construction and the pickle and copy round trips.
The package's value types (``RatMatrix``, ``Character``, ``LaurentPoly``,
``ProjPoint``) take the same round trips.  ``import multiproj`` runs no
submodule, each name loading its own on first use; the package imports no
``dataclasses``, and no ``fractions`` until a value needs it.
``test_import_footprint``, ``test_lazy_namespace_in_a_fresh_interpreter`` and
``test_deferred_paths_in_a_fresh_interpreter`` check these in fresh
interpreters.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import multiproj
from multiproj import classifier, cli, exactalg, lefschetz, sl2rep, symcurve
from multiproj._record import Record


# The oracles: the records as frozen dataclasses, under the same names and
# with the same fields and defaults, without the checks.
@dataclass(frozen=True)
class Partition:
    parts: tuple


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: object
    reason: object
    partition1: object
    partition2: object
    character1: object = None
    character2: object = None
    factorization1: object = None
    factorization2: object = None


@dataclass(frozen=True)
class IrrepMultiset:
    labels: tuple


@dataclass(frozen=True)
class PoincarePolynomial:
    betti: tuple
    n: int


@dataclass(frozen=True)
class DimensionComparison:
    g: int
    n: int
    total_dim: int
    sym_dim: int
    relation: object


@dataclass(frozen=True)
class Sl2MatrixModule:
    X: object
    Y: object
    basis_weights: tuple


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    passed: bool
    max_abs_discrepancy_numerator: int


@dataclass(frozen=True)
class BracketReport:
    checks: tuple


@dataclass(frozen=True)
class LefschetzReport:
    parts: tuple
    dim: int
    brackets: object
    character: object
    character_matches: bool
    irreducible: bool


@dataclass(frozen=True)
class _Command:
    name: str
    handler: object
    help: str
    arguments: object = ()
    exclusive: object = ()
    usage: object = None


ORACLES = {
    classifier.Partition: Partition,
    classifier.ClassificationVerdict: ClassificationVerdict,
    sl2rep.IrrepMultiset: IrrepMultiset,
    symcurve.PoincarePolynomial: PoincarePolynomial,
    symcurve.DimensionComparison: DimensionComparison,
    lefschetz.Sl2MatrixModule: Sl2MatrixModule,
    lefschetz.RelationCheck: RelationCheck,
    lefschetz.BracketReport: BracketReport,
    lefschetz.LefschetzReport: LefschetzReport,
    cli._Command: _Command,
}


def samples():
    """(id, record) pairs, at least two unequal records of each type."""
    p21, p111 = classifier.Partition((1, 2)), classifier.Partition([1, 1, 1])
    p3 = lefschetz.build_cohomology_module(3)
    half_x = lefschetz.RatMatrix(4, 4, {(i, j): Fraction(v, 2) for i in range(4)
                                        for j, v in p3.X.row_items(i)})
    broken = lefschetz.Sl2MatrixModule(half_x, p3.Y, p3.basis_weights)
    return [
        ("partition-21", p21),
        ("partition-111", p111),
        ("partition-4", classifier.Partition((4,))),
        ("verdict-distinct", classifier.classify(p21, p111)),
        ("verdict-same", classifier.classify(p21, classifier.Partition((2, 1)))),
        ("verdict-dimension", classifier.classify(p21, classifier.Partition((4,)))),
        ("multiset-311", sl2rep.IrrepMultiset((1, 3, 1))),
        ("multiset-empty", sl2rep.IrrepMultiset(())),
        ("poincare-1-2", symcurve.poincare_polynomial(1, 2)),
        ("poincare-0-3", symcurve.poincare_polynomial(0, 3)),
        ("dims-1-3", symcurve.compare_dimensions(1, 3)),
        ("dims-0-2", symcurve.compare_dimensions(0, 2)),
        ("module-p3", p3),
        ("module-tensor", lefschetz.tensor_modules(p3, lefschetz.build_cohomology_module(1))),
        ("module-broken", broken),
        ("report-pass", lefschetz.verify_brackets(p3)),
        ("report-fail", lefschetz.verify_brackets(broken)),
        ("check-pass", lefschetz.verify_brackets(p3).checks[0]),
        ("check-fail", lefschetz.verify_brackets(broken).checks[0]),
        ("lefschetz-p3", lefschetz.lefschetz_check((3,))),
        ("lefschetz-21", lefschetz.lefschetz_check((2, 1))),
        ("command-classify", cli.COMMANDS[0]),
        ("command-factor", cli.COMMANDS[3]),
        ("command-betti", cli.COMMANDS[1]),
    ]


SAMPLES = samples()
RECORDS = pytest.mark.parametrize(
    "record", [r for _, r in SAMPLES], ids=[name for name, _ in SAMPLES]
)


def values(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


def oracle(record):
    """The oracle dataclass holding ``record``'s field values."""
    return ORACLES[type(record)](*values(record))


def test_every_record_has_an_oracle_and_samples():
    assert set(Record.__subclasses__()) == set(ORACLES)
    assert {type(r) for _, r in SAMPLES} == set(ORACLES)


@pytest.mark.parametrize("cls", ORACLES, ids=lambda c: c.__name__)
def test_fields_are_the_oracle_fields(cls):
    names = tuple(f.name for f in dataclasses.fields(ORACLES[cls]))
    assert cls.__slots__ == cls.__match_args__ == names


@RECORDS
def test_repr_and_hash_match_the_oracle(record):
    assert repr(record) == repr(oracle(record))
    try:
        expected = hash(oracle(record))
    except TypeError:  # a module holds matrices, which are not hashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_equality_matches_the_oracle():
    for _, a in SAMPLES:
        for _, b in SAMPLES:
            assert (a == b) is (oracle(a) == oracle(b))
            assert (a != b) is (oracle(a) != oracle(b))
        assert a == type(a)(*values(a))
        assert a != oracle(a) and a != values(a)


@RECORDS
@pytest.mark.parametrize("action", ["assign", "delete"])
def test_fields_are_frozen_like_the_oracle(record, action):
    before = values(record)
    for name in (*type(record).__slots__, "other"):
        raised = []
        for target in (record, oracle(record)):
            with pytest.raises(AttributeError) as info:
                if action == "assign":
                    setattr(target, name, None)
                else:
                    delattr(target, name)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
    assert values(record) == before


@RECORDS
def test_positional_and_keyword_construction(record):
    cls, fields = type(record), values(record)
    assert cls(*fields) == record
    assert cls(**dict(zip(cls.__slots__, fields))) == record
    required = [f for f in dataclasses.fields(ORACLES[cls])
                if f.default is dataclasses.MISSING]
    if len(required) < len(fields):
        short = fields[: len(required)]
        assert oracle(cls(*short)) == ORACLES[cls](*short)


@RECORDS
def test_weak_references_work_but_not_dataclass_tools(record):
    dc = oracle(record)
    assert weakref.ref(record)() is record and weakref.ref(dc)() is dc
    assert not dataclasses.is_dataclass(record)
    with pytest.raises(TypeError):
        dataclasses.replace(record)
    with pytest.raises(TypeError):
        vars(record)


def pickler(protocol=None):
    return lambda r: pickle.loads(pickle.dumps(r, protocol))


# The default protocol (4), the highest (5) and each below the default.
COPIERS = pytest.mark.parametrize("copier", [
    pytest.param(pickler(), id="pickle"),
    pytest.param(pickler(pickle.HIGHEST_PROTOCOL), id="pickle-highest"),
    *(pytest.param(pickler(p), id=f"pickle-{p}") for p in range(pickle.DEFAULT_PROTOCOL)),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
])


@RECORDS
@COPIERS
def test_round_trips(record, copier):
    got = copier(record)
    assert type(got) is type(record)
    assert got == record and repr(got) == repr(record)
    assert repr(copier(oracle(record))) == repr(oracle(record))


def value_samples():
    """(id, value) pairs of the package's value types, ``__slots__`` classes
    that are not records."""
    p3 = lefschetz.build_cohomology_module(3)
    return [
        ("matrix-int", p3.X),
        ("matrix-fraction", lefschetz.RatMatrix(2, 3, {(0, 2): Fraction(1, 2), (1, 0): -4})),
        ("matrix-empty", lefschetz.RatMatrix(0, 0)),
        ("character", sl2rep.irrep_character(3)),
        ("character-zero", sl2rep.Character(exactalg.LaurentPoly())),
        ("laurent", exactalg.LaurentPoly({3: 2, -1: -5})),
        ("laurent-zero", exactalg.LaurentPoly()),
        ("point", classifier.ProjPoint((1, Fraction(-2, 3), 0))),
    ]


@pytest.mark.parametrize("value", [v for _, v in value_samples()],
                         ids=[name for name, _ in value_samples()])
@COPIERS
def test_value_round_trips(value, copier):
    got = copier(value)
    assert type(got) is type(value)
    assert got == value and str(got) == str(value) and repr(got) == repr(value)


def test_value_round_trips_rebuild_through_the_constructor():
    bad = sl2rep.Character._from_dense((1, 0, 2))  # not palindromic
    with pytest.raises(ValueError, match="not a character"):
        copy.copy(bad)


# Importing the module named by argv[2] in a fresh interpreter loads none of
# the names; without ``site`` (-S), whose .pth files may load ``typing``
# first, it loads no ``typing`` either.  ``fractions`` (with ``decimal`` and
# ``numbers``) loads on the first value that is not an int.  ``import
# multiproj`` loads no submodule, and ``multiproj.cli`` loads ``json`` and
# ``csv`` only when those formats are written.
FOOTPRINT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = set(sys.modules)\n"
    "__import__(sys.argv[2])\n"
    "print(*sorted(set(sys.modules) - before))\n"
)
LAZY = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}


def package_root():
    return str(Path(multiproj.__file__).parent.parent)


@pytest.mark.parametrize("flags,module,absent", [
    ((), "multiproj", LAZY),
    (("-S",), "multiproj", LAZY | {"typing"}),
    (("-S",), "multiproj.cli", LAZY | {"typing", "json", "csv"}),
], ids=["site", "no-site", "cli-no-site"])
def test_import_footprint(flags, module, absent):
    proc = subprocess.run([sys.executable, *flags, "-c", FOOTPRINT, package_root(), module],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert module in loaded
    if module == "multiproj":
        assert {m for m in loaded if m.startswith("multiproj.")} == set()
    assert loaded & absent == set()


# After a bare ``import multiproj`` in a fresh interpreter, the checks named
# by argv[2:] run in that order: every public name and every submodule
# resolves, on first access, to the object its submodule defines and stays
# bound in the package; ``from multiproj import *`` binds exactly ``__all__``.
NAMESPACE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import multiproj\n"
    "SUBMODULES = ('classifier', 'exactalg', 'lefschetz', 'sl2rep', 'symcurve')\n"
    "assert not {*multiproj.__all__, *SUBMODULES} & set(vars(multiproj))\n"
    "assert {*multiproj.__all__, *SUBMODULES} <= set(dir(multiproj))\n"
    "def names():\n"
    "    for name in multiproj.__all__:\n"
    "        obj = getattr(multiproj, name)\n"
    "        assert vars(multiproj)[name] is obj\n"
    "        assert obj.__module__ in {'multiproj.' + sub for sub in SUBMODULES}, name\n"
    "        assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
    "def submodules():\n"
    "    for sub in SUBMODULES:\n"
    "        assert getattr(multiproj, sub) is sys.modules['multiproj.' + sub], sub\n"
    "        assert vars(multiproj)[sub] is sys.modules['multiproj.' + sub], sub\n"
    "def star():\n"
    "    namespace = {}\n"
    "    exec('from multiproj import *', namespace)\n"
    "    assert namespace.keys() - {'__builtins__'} == set(multiproj.__all__)\n"
    "def nope():\n"
    "    try:\n"
    "        multiproj.nope\n"
    "    except AttributeError as exc:\n"
    "        print(exc)\n"
    "for check in sys.argv[2:]:\n"
    "    globals()[check]()\n"
    "print(len(multiproj.__all__))\n"
)


@pytest.mark.parametrize("order", [
    ("nope", "names", "submodules", "star"),
    ("submodules", "star", "names", "nope"),
    ("star", "nope", "names", "submodules"),
], ids=["names-first", "submodules-first", "star-first"])
def test_lazy_namespace_in_a_fresh_interpreter(order):
    proc = subprocess.run([sys.executable, "-S", "-c", NAMESPACE, package_root(), *order],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "module 'multiproj' has no attribute 'nope'\n46\n"


# ``show(exprs)`` prints what each expression returns or raises.  A fresh
# ``-S`` interpreter runs it before anything has loaded ``fractions``, so each
# path that imports ``fractions`` on first use is that first use (or, for the
# parsers, compiles its pattern on first use); this interpreter runs it too,
# as the oracle.
SHOW = (
    "from multiproj import *\n"
    "from multiproj.exactalg import _exact\n"
    "def halved(n):  # H*(P^n) with X halved: Fraction entries\n"
    "    from fractions import Fraction\n"
    "    m = build_cohomology_module(n)\n"
    "    x = {(i, j): Fraction(v, 2) for i in range(m.dim) for j, v in m.X.row_items(i)}\n"
    "    return Sl2MatrixModule(RatMatrix(m.dim, m.dim, x), m.Y, m.basis_weights)\n"
    "def show(exprs):\n"
    "    for expr in exprs:\n"
    "        try:\n"
    "            print(repr(eval(expr)))\n"
    "        except (TypeError, ValueError) as exc:\n"
    "            print(type(exc).__name__, exc)\n"
)
FRESH = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "exec(sys.argv[2])\n"
    "assert 'fractions' not in sys.modules\n"
    "show(sys.argv[3:])\n"
    "print('fractions' in sys.modules, file=sys.stderr)\n"
)


@pytest.mark.parametrize("exprs,loads_fractions", [
    (["_exact(7)", "_exact(1.5)", "_exact(True)", "halved(2).X"], True),
    (["ProjPoint((1, 2)) == ProjPoint((2, 4))", "ProjPoint((3, 0, -6))",
      "ProjPoint((0, 0))", "ProjPoint((1.5, 1))", "ProjPoint(())"], True),
    (['LaurentPoly.parse("q^2 + 2 + q^-2")', 'LaurentPoly.parse("2*q^3 - q - 5*q^-3")',
      'LaurentPoly.parse("q^2 2")', 'LaurentPoly.parse("q^x")', 'LaurentPoly.parse("")',
      'parse_partition("2 1,1")', 'parse_partition(" 3 ,, 1\t2 ")', 'parse_partition("2 x")',
      'parse_partition(" , ")', 'parse_partition("0")', 'parse_partition("1" * 5000)'], False),
    (["highest_weight_multiplicities(build_cohomology_module(4))",
      "highest_weight_multiplicities(halved(4))", "is_irreducible(halved(3))",
      "highest_weight_multiplicities(tensor_modules(halved(2), build_cohomology_module(1)))"],
     True),
    (["is_irreducible(build_cohomology_module(7))",
      "highest_weight_multiplicities(tensor_modules(*map(build_cohomology_module, (2, 1))))",
      "module_character(build_cohomology_module(3))"], False),
], ids=["exact", "point", "parsers", "multiplicities", "all-int"])
def test_deferred_paths_in_a_fresh_interpreter(exprs, loads_fractions, capsys):
    namespace = {}
    exec(SHOW, namespace)
    namespace["show"](exprs)
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-S", "-c", FRESH, package_root(), SHOW, *exprs],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == expected
    assert len(expected.splitlines()) == len(exprs)
    assert proc.stderr == f"{loads_fractions}\n"  # whether ``fractions`` is loaded at the end


def test_fraction_subclass_entries_are_stored_as_fraction():
    class F(Fraction):
        pass

    assert type(exactalg._exact(F(1, 2))) is Fraction and exactalg._exact(F(1, 2)) == F(1, 2)
    assert type(exactalg._exact(F(4, 2))) is int and exactalg._exact(F(4, 2)) == 2
    m = lefschetz.build_cohomology_module(3)
    x = {(i, j): F(v, 2) for i in range(m.dim) for j, v in m.X.row_items(i)}
    halved = lefschetz.Sl2MatrixModule(lefschetz.RatMatrix(m.dim, m.dim, x), m.Y, m.basis_weights)
    assert {type(v) for i in range(m.dim) for _, v in halved.X.row_items(i)} == {int, Fraction}
    assert lefschetz.highest_weight_multiplicities(halved) == {3: 1}
    assert lefschetz.is_irreducible(halved)
