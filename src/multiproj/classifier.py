"""Isomorphism classification of multiprojective spaces P^{n_1} x ... x P^{n_r}.

A multiprojective space is labeled by the partition (n_1, ..., n_r) of its
dimension.  Its cohomology, as an sl(2)-module under the Lefschetz operators,
is the tensor product of the irreducibles Sym^{n_i}(C^2) (Kuenneth), so the
character of that module is a complete isomorphism invariant: unique tensor
factorization recovers the partition from the character.  `classify` decides
isomorphism by canonical-partition equality and attaches the characters plus
their recovered factorizations, so every verdict carries machine-checkable
evidence rather than a bare yes/no.

Also here: the explicit degree-2 map P^1 x P^1 -> P^2 realizing
Sym^2(P^1) = P^2 on points, with exact rational coordinates.
"""

from __future__ import annotations

import enum
import re
import sys
from collections.abc import Iterable, Sequence

from ._record import Record, _set
from .exactalg import _exact, _require_int
from .sl2rep import (
    Character,
    IrrepMultiset,
    _peel_q_integers,
    tensor_irreps_character,
)
from .symcurve import PoincarePolynomial


class Partition(Record):
    """A partition (n_1 >= n_2 >= ... >= n_r >= 1), canonically descending."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)  # checked, then read: an iterator is read once
        if not parts:
            raise ValueError("a partition needs at least one part")
        _require_int("partition parts", parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"all parts must be positive, got {parts}")
        _set(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def n(self) -> int:
        """The partitioned number: total dimension of the product space."""
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


_TOKEN_SPLIT = r"[,\s]+"  # compiled on use, through re's own cache


def parse_partition(text: str) -> Partition:
    """Parse comma- or space-separated positive integers, any order.

    >>> parse_partition("1,2,1").parts
    (2, 1, 1)
    """
    tokens = [tok for tok in re.split(_TOKEN_SPLIT, text.strip()) if tok]
    if not tokens:
        raise ValueError("empty partition text")
    parts = []
    for tok in tokens:
        try:
            value = int(tok, 10)
        except ValueError:
            if re.fullmatch(r"[+-]?\d+(?:_\d+)*", tok):  # an int past the text limit
                raise ValueError(
                    f"invalid partition part {tok!r}: an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
            raise ValueError(f"invalid partition part {tok!r}: not an integer") from None
        if value < 1:
            raise ValueError(f"invalid partition part {tok!r}: parts must be >= 1")
        parts.append(value)
    return Partition(tuple(parts))


def cohomology_character(p: Partition) -> Character:
    """Character of H*(P^{n_1} x ... x P^{n_r}) as an sl(2)-module.

    Kuenneth makes it the product of the irreducible characters of the
    factors; the dimension is prod(n_i + 1) and the top weight is sum(n_i).
    """
    return tensor_irreps_character(p.parts)


class Verdict(enum.Enum):
    ISOMORPHIC = "ISOMORPHIC"
    NON_ISOMORPHIC = "NON_ISOMORPHIC"


class Reason(enum.Enum):
    DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
    SAME_PARTITION = "SAME_PARTITION"
    DISTINCT_CHARACTERS = "DISTINCT_CHARACTERS"


class ClassificationVerdict(Record):
    """Verdict plus the representation-theoretic evidence backing it.

    For reason DIMENSION_MISMATCH the character/factorization fields are None
    (the verdict needs no character computation); otherwise both characters
    and both recovered factorizations are present, and the factorizations are
    guaranteed to round-trip to the input partitions.
    """

    __slots__ = ("verdict", "reason", "partition1", "partition2", "character1",
                 "character2", "factorization1", "factorization2")

    def __init__(
        self,
        verdict: Verdict,
        reason: Reason,
        partition1: Partition,
        partition2: Partition,
        character1: Character | None = None,
        character2: Character | None = None,
        factorization1: IrrepMultiset | None = None,
        factorization2: IrrepMultiset | None = None,
    ):
        _set(self, "verdict", verdict)
        _set(self, "reason", reason)
        _set(self, "partition1", partition1)
        _set(self, "partition2", partition2)
        _set(self, "character1", character1)
        _set(self, "character2", character2)
        _set(self, "factorization1", factorization1)
        _set(self, "factorization2", factorization2)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason.value,
            "n1": self.partition1.n,
            "n2": self.partition2.n,
            "partition1": str(self.partition1),
            "partition2": str(self.partition2),
            "character1": None if self.character1 is None else str(self.character1),
            "character2": None if self.character2 is None else str(self.character2),
            "factorization1": None
            if self.factorization1 is None
            else str(self.factorization1),
            "factorization2": None
            if self.factorization2 is None
            else str(self.factorization2),
        }


def classify(p1: Partition, p2: Partition) -> ClassificationVerdict:
    """Decide whether the two labeled multiprojective spaces are isomorphic.

    Distinct total dimensions short-circuit to NON_ISOMORPHIC with no further
    work.  At equal dimension the verdict is partition equality, but the
    characters and their unique tensor factorizations are computed and
    attached as evidence either way: each character is built once, as a
    dense product of q-integers, and peeled once.  The peeled labels must
    equal the partition, which implies the rebuild-and-compare that
    :func:`factor_tensor_of_irreps` makes for a character it did not build.
    That round trip also rules out two distinct partitions sharing a
    character: the peel is a function of the character alone.  A failed
    round trip would violate unique tensor factorization itself; it raises
    RuntimeError, never a quiet verdict.
    """
    if p1.n != p2.n:
        return ClassificationVerdict(
            Verdict.NON_ISOMORPHIC, Reason.DIMENSION_MISMATCH, p1, p2
        )
    c1 = cohomology_character(p1)
    c2 = cohomology_character(p2)
    f1 = _peel_q_integers(c1)
    f2 = _peel_q_integers(c2)
    if f1 is None or f2 is None or f1.labels != p1.parts or f2.labels != p2.parts:
        raise RuntimeError(
            "tensor factorization failed to recover its own partition: "
            f"{p1} -> {f1}, {p2} -> {f2}"
        )
    if p1 == p2:
        verdict, reason = Verdict.ISOMORPHIC, Reason.SAME_PARTITION
    else:
        verdict, reason = Verdict.NON_ISOMORPHIC, Reason.DISTINCT_CHARACTERS
    return ClassificationVerdict(
        verdict=verdict,
        reason=reason,
        partition1=p1,
        partition2=p2,
        character1=c1,
        character2=c2,
        factorization1=f1,
        factorization2=f2,
    )


def poincare_of_multiprojective(p: Partition) -> PoincarePolynomial:
    """Poincare polynomial of P^{n_1} x ... x P^{n_r}: prod_i (1 + x^2 + ... + x^{2 n_i}).

    Re-indexing degree d <-> weight n-d turns this into the cohomology
    character: B_d = multiplicity of weight n - d, which is 0 for odd d.
    """
    c = cohomology_character(p)
    n = p.n
    return PoincarePolynomial(
        betti=tuple(c.coefficient(n - d) for d in range(2 * n + 1)), n=n
    )


class ProjPoint:
    """A point of projective space: exact rational homogeneous coordinates.

    Equality and hashing are projective (up to a common nonzero scalar),
    implemented by normalizing on the first nonzero coordinate.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Sequence[Fraction | int]):
        from fractions import Fraction  # loaded on first use

        coords = tuple(Fraction(_exact(c)) for c in coords)
        if not coords:
            raise ValueError("a projective point needs at least one coordinate")
        if not any(coords):
            raise ValueError("homogeneous coordinates must not all be zero")
        self._coords = coords

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self._coords

    def normalized(self) -> tuple[Fraction, ...]:
        """Coordinates scaled so the first nonzero one is 1."""
        lead = next(c for c in self._coords if c)
        return tuple(c / lead for c in self._coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return len(self._coords) == len(other._coords) and (
            self.normalized() == other.normalized()
        )

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self._coords) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint({list(self._coords)!r})"

    def __reduce__(self) -> tuple:
        """Pickle and copy rebuild through ``__init__``, whose checks run again."""
        return self.__class__, (self._coords,)


def sym2_p1_map(z: ProjPoint, w: ProjPoint) -> ProjPoint:
    """The degree-2 map P^1 x P^1 -> P^2, (z, w) -> [z1*w1 : z2*w2 : z1*w2 + z2*w1].

    Symmetric in its arguments and scaling-equivariant, so it factors through
    the symmetric square.  The image is never the zero vector: if z1*w1 = 0
    and z2*w2 = 0 with z, w valid, one factor of each cross term survives.
    """
    for point in (z, w):
        if len(point.coords) != 2:
            raise ValueError(
                f"expected a point of P^1 (2 coordinates), got {point}"
            )
    z1, z2 = z.coords
    w1, w2 = w.coords
    return ProjPoint((z1 * w1, z2 * w2, z1 * w2 + z2 * w1))
