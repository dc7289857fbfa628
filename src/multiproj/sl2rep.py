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

from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, groupby
from operator import sub

from ._record import Record
from .exactalg import LaurentPoly, _require_int


class FactorizationError(ValueError):
    """No factorization into nontrivial irreducibles exists."""


class Character:
    """Character of a finite-dimensional sl(2,C)-module.

    Valid characters are palindromic (weight k and -k have equal multiplicity)
    with nonnegative coefficients; both are checked when a character is built
    from a :class:`LaurentPoly`.  Genuine module characters additionally have
    weight multiplicities that decrease outward on each parity class; that
    stronger condition is exactly what :func:`clebsch_gordan_decompose`
    certifies.

    A character is held dense: the 2N + 1 coefficients of q^N, q^(N-1), ...,
    q^-N, whose length gives the top degree N (none for the zero character).
    Building one from a LaurentPoly costs O(N) whatever its number of terms.
    The product of irreducibles, the peel and the decomposition work on that
    tuple, and only this module lays it out: a product built here is not
    checked again.  ``poly`` is the sparse form, built on each access, for
    printing and for :func:`tensor_character`, which multiplies arbitrary
    characters.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, poly: LaurentPoly):
        top = max(poly.degree, -poly.valuation) if poly else -1
        dense = [0] * (2 * top + 1)
        for e, c in poly.terms():
            dense[top - e] = c
        self._coeffs = _validated(tuple(dense))

    @classmethod
    def _from_dense(cls, coeffs: tuple[int, ...]) -> "Character":
        """Dense coefficients q^N..q^-N (N = len // 2) of an irreducible or a
        product built here, a character by construction, so unchecked;
        elsewhere ``Character(poly)``."""
        c = cls.__new__(cls)
        c._coeffs = coeffs
        return c

    @property
    def poly(self) -> LaurentPoly:
        top = len(self._coeffs) // 2
        return LaurentPoly({top - i: c for i, c in enumerate(self._coeffs)})

    @property
    def dimension(self) -> int:
        return sum(self._coeffs)

    @property
    def top_degree(self) -> int:
        """Highest weight occurring (the q-degree)."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self._coeffs) // 2

    def coefficient(self, k: int) -> int:
        i = len(self._coeffs) // 2 - k
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"Character(poly={self.poly!r})"

    def __reduce__(self) -> tuple:
        """Pickle and copy rebuild through ``__init__``, whose checks run again."""
        return self.__class__, (self.poly,)


def _validated(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Dense coefficients q^N..q^-N, refused unless nonnegative and palindromic."""
    top = len(coeffs) // 2
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if c < 0:
            raise ValueError(
                f"not a character: negative coefficient {c} at q^{top - i}"
            )
        if coeffs[-1 - i] != c:
            raise ValueError(
                f"not a character: coefficient at q^{top - i} ({c}) differs "
                f"from q^{i - top} ({coeffs[-1 - i]})"
            )
    return coeffs


def _labels(values: Iterable[int]) -> tuple[int, ...]:
    """The values, read once, as a tuple of irreducible labels: ints >= 0."""
    labels = tuple(values)
    _require_int("irreducible labels", labels)
    for lab in labels:
        if lab < 0:
            raise ValueError(f"irreducible labels are nonnegative, got {lab}")
    return labels


class IrrepMultiset(Record):
    """Multiset of irreducible labels, canonically sorted descending.

    Label n stands for the (n+1)-dimensional irreducible; a multiset is called
    nontrivial when it contains no label 0.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[int]):
        super().__init__(tuple(sorted(_labels(labels), reverse=True)))

    def counts(self) -> list[tuple[int, int]]:
        """(label, multiplicity) pairs, labels descending."""
        return [(lab, len(list(run))) for lab, run in groupby(self.labels)]

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


def irrep_character(n: int) -> Character:
    """Character q^n + q^(n-2) + ... + q^(-n) of the irreducible with label n."""
    _labels((n,))
    return Character._from_dense((1, 0) * n + (1,))


def tensor_character(factors: Sequence[Character]) -> Character:
    """Character of the tensor product of the given modules.

    The sparse product of LaurentPolys, kept as the independent route that
    the dense products are checked against.
    """
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
    for lab in _labels(labels):
        shifted = map(sub, coeffs + [0] * lab, [0] * (lab + 1) + coeffs)
        coeffs = list(accumulate(shifted))
    dense = [0] * (2 * len(coeffs) - 1)  # weights of the other parity are 0
    dense[::2] = coeffs
    return Character._from_dense(tuple(dense))


def clebsch_gordan_decompose(c: Character) -> IrrepMultiset:
    """Write a character as a direct sum of irreducibles (with multiplicity).

    The multiplicity of label k is coeff(q^k) - coeff(q^(k+2)): every
    irreducible with label >= k+2 contributes one to both weight spaces, and
    the irreducible with label k contributes only to the first.  A negative
    difference means the input is not the character of any module.
    """
    half = c._coeffs[: len(c._coeffs) // 2 + 1]  # q^N down to q^0
    top = len(half) - 1
    labels: list[int] = []
    for i, mult in enumerate(map(sub, half, (0, 0) + half[:-2])):
        if mult < 0:
            raise ValueError(
                f"not a module character: multiplicity of label {top - i} "
                f"would be {mult}"
            )
        labels.extend([top - i] * mult)
    return IrrepMultiset(tuple(labels))


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as descending tuples, in decreasing lexicographic order.

    Each partition follows from the last without recursion: the last part
    above 1 drops by one, and the trailing 1s plus the one it lost are
    refilled greedily with parts no larger than it.
    """
    _require_int("n", (n,))
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    parts: list[int] = []
    rest, cap = n, n
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
    found = _peel_q_integers(c)
    if found is None or tensor_irreps_character(found.labels) != c:
        raise FactorizationError(f"not a tensor of nontrivial irreducibles: {c}")
    return found


def verify_roundtrip(limit: int) -> int:
    """Factor every tensor of nontrivial irreducibles whose labels sum to at
    most ``limit``; return how many were factored.

    Each character is built by the sparse :func:`tensor_character`, the route
    independent of the peel's dense rebuild, and must factor back into its
    own labels, or a FactorizationError names the first that did not.
    """
    _require_int("limit", (limit,))
    verified = 0
    for n in range(1, limit + 1):
        for labels in partitions(n):
            character = tensor_character([irrep_character(k) for k in labels])
            recovered = factor_tensor_of_irreps(character)
            if recovered.labels != labels:
                raise FactorizationError(
                    f"round-trip failure: {labels} factored as {recovered}"
                )
            verified += 1
    return verified


def _peel_q_integers(c: Character) -> IrrepMultiset | None:
    """The labels found by peeling P = q^N c (1 - x)^r, or None if a step fails.

    The labels are not confirmed: a caller that did not build c as their
    product must rebuild it, as :func:`factor_tensor_of_irreps` does.  c must
    have dimension at least 2.
    """
    dense = c._coeffs
    p = list(dense[::2])  # the weights of the parity of the top, from the top
    # A product of q-integers has all top + 1 weights of the parity of top,
    # each with a positive coefficient, and no others.
    if any(dense[1::2]) or p[0] != 1 or 0 in p or p[1] >= len(p):
        return None
    for _ in range(p[1]):  # times (1 - x), r times
        p = list(map(sub, p + [0], [0] + p))
    labels = []
    k = 2  # p[1] = r - r = 0, so every k >= 2 and every label is nontrivial
    while len(p) > 1:  # p never ends in a zero coefficient
        # labels come off smallest first, so no power below the last k leads
        k = next(j for j in range(k, len(p)) if p[j])
        for j in range(k, len(p)):  # divided by (1 - x^k): q_j = p_j + q_(j-k)
            p[j] += p[j - k]
        if any(p[-k:]):
            return None
        del p[-k:]
        labels.append(k - 1)
    return IrrepMultiset(tuple(labels))
