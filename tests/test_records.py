"""The result types are immutable records on ``multiproj._record.Record``.

Each behaves as the frozen dataclass with its fields would: the tests define
those dataclasses as the oracle and compare the two on printing, equality,
hashing, frozen fields, construction and the pickle and copy round trips.
The package itself imports no ``dataclasses``, which ``test_import_footprint``
checks in a fresh interpreter.
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
from multiproj import classifier, lefschetz, sl2rep, symcurve
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


ORACLES = {
    classifier.Partition: Partition,
    classifier.ClassificationVerdict: ClassificationVerdict,
    sl2rep.IrrepMultiset: IrrepMultiset,
    symcurve.PoincarePolynomial: PoincarePolynomial,
    symcurve.DimensionComparison: DimensionComparison,
    lefschetz.Sl2MatrixModule: Sl2MatrixModule,
    lefschetz.RelationCheck: RelationCheck,
    lefschetz.BracketReport: BracketReport,
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


@RECORDS
@pytest.mark.parametrize("copier", [
    pytest.param(lambda r: pickle.loads(pickle.dumps(r)), id="pickle"),
    pytest.param(lambda r: pickle.loads(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)),
                 id="pickle-highest"),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
])
def test_round_trips(record, copier):
    got = copier(record)
    assert type(got) is type(record)
    assert got == record and repr(got) == repr(record)
    assert repr(copier(oracle(record))) == repr(oracle(record))


# ``import multiproj`` in a fresh interpreter loads none of the names; and
# without ``site`` (-S), whose .pth files may load ``typing`` first, it loads
# no ``typing`` either.
FOOTPRINT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = set(sys.modules)\n"
    "import multiproj\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


@pytest.mark.parametrize("flags,absent", [
    ((), {"dataclasses", "inspect"}),
    (("-S",), {"dataclasses", "inspect", "typing"}),
], ids=["site", "no-site"])
def test_import_footprint(flags, absent):
    root = str(Path(multiproj.__file__).parent.parent)
    proc = subprocess.run([sys.executable, *flags, "-c", FOOTPRINT, root],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "multiproj.classifier" in loaded
    assert loaded & absent == set()
