"""The character ring of finite-dimensional sl(2,C)-modules.

A finite-dimensional sl(2,C)-module decomposes into one-dimensional
eigenspaces of H with integer eigenvalues (weights).  The character records
that eigenvalue multiset as a Laurent polynomial in q: the coefficient of q^k
is the dimension of the weight-k eigenspace.  Under this dictionary

* direct sum of modules  = sum of characters,
* tensor product         = product of characters,
* dimension              = value at q = 1.

The (n+1)-dimensional irreducible Sym^n(C^2) has character
q^n + q^(n-2) + ... + q^(-n), and the labels n >= 0 enumerate all
irreducibles.  Besides the classical Clebsch-Gordan decomposition (a tensor
product written as a direct sum) this module implements the inverse of the
tensor construction itself: recovering the factors of a product of
irreducibles.  A tensor product of nontrivial irreducibles over a simple Lie
algebra determines its factors up to reordering, so the recovery is well
posed; it takes one forced exact division per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterator, Sequence

from .exactalg import LaurentPoly


class FactorizationError(ValueError):
    """No factorization into nontrivial irreducibles exists."""


@dataclass(frozen=True)
class Character:
    """Character of a finite-dimensional sl(2,C)-module.

    Valid characters are palindromic (weight k and -k have equal multiplicity)
    with nonnegative coefficients; both are checked at construction.  Genuine
    module characters additionally have weight multiplicities that decrease
    outward on each parity class; that stronger condition is exactly what
    :func:`clebsch_gordan_decompose` certifies.
    """

    poly: LaurentPoly

    def __post_init__(self):
        for exp, c in self.poly.terms():
            if c < 0:
                raise ValueError(
                    f"not a character: negative coefficient {c} at q^{exp}"
                )
            if self.poly.coefficient(-exp) != c:
                raise ValueError(
                    f"not a character: coefficient at q^{exp} ({c}) differs "
                    f"from q^{-exp} ({self.poly.coefficient(-exp)})"
                )

    @property
    def dimension(self) -> int:
        return self.poly.evaluate_at_one()

    @property
    def top_degree(self) -> int:
        """Highest weight occurring (the q-degree)."""
        return self.poly.degree

    def coefficient(self, k: int) -> int:
        return self.poly.coefficient(k)

    def __mul__(self, other: "Character") -> "Character":
        # Product of palindromic nonnegative polynomials is again one.
        return Character(self.poly * other.poly)

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class IrrepMultiset:
    """Multiset of irreducible labels, canonically sorted descending.

    Label n stands for the (n+1)-dimensional irreducible; a multiset is called
    nontrivial when it contains no label 0.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        for lab in self.labels:
            if not isinstance(lab, int):
                raise TypeError(f"irreducible labels must be int, got {lab!r}")
            if lab < 0:
                raise ValueError(f"irreducible labels are nonnegative, got {lab}")
        object.__setattr__(self, "labels", tuple(sorted(self.labels, reverse=True)))

    def counts(self) -> list[tuple[int, int]]:
        """(label, multiplicity) pairs, labels descending."""
        out: list[tuple[int, int]] = []
        for lab in self.labels:
            if out and out[-1][0] == lab:
                out[-1] = (lab, out[-1][1] + 1)
            else:
                out.append((lab, 1))
        return out

    def total(self) -> int:
        return sum(self.labels)

    def __str__(self) -> str:
        """Canonical text form: descending labels, ``^mult`` for repeats.

        {3, 1, 1} prints as ``3,1^2``.
        """
        return ",".join(
            f"{lab}^{mult}" if mult > 1 else str(lab)
            for lab, mult in self.counts()
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def irrep_character(n: int) -> Character:
    """Character q^n + q^(n-2) + ... + q^(-n) of the irreducible with label n."""
    if n < 0:
        raise ValueError(f"irreducible labels are nonnegative, got {n}")
    return Character(LaurentPoly({k: 1 for k in range(-n, n + 1, 2)}))


def tensor_character(factors: Sequence[Character]) -> Character:
    """Character of the tensor product of the given modules."""
    if not factors:
        raise ValueError("tensor_character needs at least one factor")
    poly = factors[0].poly
    for c in factors[1:]:
        poly = poly * c.poly
    return Character(poly)


def tensor_irreps_character(labels: Sequence[int]) -> Character:
    """Character of the tensor product of the irreducibles with these labels.

    A dense product of q-integers in O(r N) for r labels summing to N: with
    x = q^2, each label n multiplies the coefficients of x^0, x^1, ... by
    1 - x^(n+1) and divides them by 1 - x (prefix sums).  No labels give the
    trivial character 1.
    """
    coeffs = [1]
    for lab in labels:
        if lab < 0:
            raise ValueError(f"irreducible labels are nonnegative, got {lab}")
        shifted = map(sub, coeffs + [0] * lab, [0] * (lab + 1) + coeffs)
        coeffs = list(accumulate(shifted))
    top = len(coeffs) - 1
    return Character(LaurentPoly({top - 2 * j: c for j, c in enumerate(coeffs)}))


def clebsch_gordan_decompose(c: Character) -> IrrepMultiset:
    """Write a character as a direct sum of irreducibles (with multiplicity).

    The multiplicity of label k is coeff(q^k) - coeff(q^(k+2)): every
    irreducible with label >= k+2 contributes one to both weight spaces, and
    the irreducible with label k contributes only to the first.  A negative
    difference means the input is not the character of any module.
    """
    labels: list[int] = []
    top = c.top_degree if c.poly else -1
    for k in range(top, -1, -1):
        mult = c.coefficient(k) - c.coefficient(k + 2)
        if mult < 0:
            raise ValueError(
                f"not a module character: multiplicity of label {k} "
                f"would be {mult}"
            )
        labels.extend([k] * mult)
    return IrrepMultiset(tuple(labels))


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as descending tuples, in decreasing lexicographic order.

    Parts are at most max_part (default n).  Each partition follows from the
    last without recursion: the last part above 1 drops by one, and the
    trailing 1s plus the one it lost are refilled greedily with parts no
    larger than it.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if max_part is None or max_part > n:
        max_part = n
    if n and max_part < 1:
        return
    parts: list[int] = []
    rest, cap = n, max_part
    while True:
        if rest:
            q, r = divmod(rest, cap)
            parts += [cap] * q + ([r] if r else [])
        yield tuple(parts)
        rest = 0
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        cap, rest = parts[-1], rest + 1


def factor_tensor_of_irreps(c: Character) -> IrrepMultiset:
    """Recover the unique factorization of c into nontrivial irreducibles.

    With x = q^2 the irreducible with label n is the q-integer
    q^-n (1 - x^(n+1)) / (1 - x).  If c is a tensor of r of them, r is the
    coefficient of q^(N-2), N the top degree, and

        P(x) = q^N c (1 - x)^r = (1 - x^(n_1+1)) ... (1 - x^(n_r+1)).

    The lowest positive power x^k of P has coefficient -(number of labels
    equal to k - 1, the smallest), so each step peels label k - 1 by one
    exact division of P by (1 - x^k).  Every step is forced, so at most one
    multiset comes out; a failed step rejects c, and the labels are
    confirmed by rebuilding the product.
    """
    if c.dimension <= 1:
        raise FactorizationError(
            "not a tensor of nontrivial irreducibles: dimension "
            f"{c.dimension} < 2"
        )
    labels = _peel_q_integers(c)
    if labels is None:
        raise FactorizationError(f"not a tensor of nontrivial irreducibles: {c}")
    return IrrepMultiset(tuple(labels))


def _peel_q_integers(c: Character) -> list[int] | None:
    """The labels found by peeling P = q^N c (1 - x)^r, or None if a step fails."""
    top = c.top_degree
    weights = dict(c.poly.terms())
    # A product of q-integers has all top + 1 weights of the parity of top,
    # each with a positive coefficient, and no others.
    if len(weights) != top + 1:
        return None
    given = [weights.get(top - 2 * j, 0) for j in range(top + 1)]
    if given[0] != 1 or 0 in given or given[1] > top:
        return None
    p = list(given)
    for _ in range(given[1]):  # times (1 - x), r times
        p = list(map(sub, p + [0], [0] + p))
    labels = []
    # p[1] = r - r = 0, so every k >= 2 and every label is nontrivial
    while len(p) > 1:  # p never ends in a zero coefficient
        k = next(j for j in range(2, len(p)) if p[j])
        for i in range(k):  # divided by (1 - x^k): q_j = p_j + q_(j-k)
            p[i::k] = accumulate(p[i::k])
        if any(p[-k:]):
            return None
        del p[-k:]
        labels.append(k - 1)
    return labels if tensor_irreps_character(labels) == c else None
