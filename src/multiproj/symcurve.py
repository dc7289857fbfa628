"""Cohomology of symmetric products Sym^n(C) of a smooth genus-g curve.

Two independent routes to the Betti numbers are implemented, and each row
returned for g >= 1 is checked against the other and the dimension formula:

* the closed form  B_r = sum_j binom(2g, r - 2j)  for r <= n, extended to
  r > n by Poincare duality B_r = B_{2n-r};
* the generating series (1 + tx)^{2g} / ((1 - t)(1 - tx^2)) of Macdonald,
  whose t^n coefficient, for every n up to one expansion's cap, is the
  Poincare polynomial of Sym^n(C); both divisions run row by row, holding
  only the previous row of each quotient: O(n^2) cell steps, O(n) memory.

Genus 0 is special: Sym^n(P^1) = P^n, so its Betti numbers come from the
projective-space rule (1 in each even degree) rather than the series, which is
stated for g >= 1.  (The series gives the same answer at g = 0; the tests
check that agreement as a bonus, but the library routes g = 0 explicitly.)

The module also carries the two total-dimension counts whose comparison shows
why the tensor-factorization classification of products of projective spaces
has no genus >= 1 analogue: for n >= 2 the cohomology of Sym^n(C) is strictly
smaller than the n-th symmetric power of H*(C) (as ungraded vector spaces),
so Sym^n of the cohomology is not the cohomology of Sym^n.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice
from operator import add

from ._record import Record
from .exactalg import _require_int, binom


class PoincarePolynomial(Record):
    """Betti numbers B_0..B_{2n} of a compact space of complex dimension n.

    Validates the three structural facts every space here satisfies:
    connectedness (B_0 = 1), nonnegativity, and Poincare duality, on ints.
    """

    __slots__ = ("betti", "n")

    def __init__(self, betti: Iterable[int], n: int):
        b = tuple(betti)
        names = chain(["n"], (f"B_{r}" for r in count()))
        _require_int(names, (n, *b))
        if n < 0:
            raise ValueError("half-dimension n must be nonnegative")
        if len(b) != 2 * n + 1:
            raise ValueError(f"need 2n+1 = {2 * n + 1} Betti numbers, got {len(b)}")
        if min(b) < 0:
            raise ValueError("Betti numbers must be nonnegative")
        if b[0] != 1:
            raise ValueError(f"B_0 must be 1 (connected space), got {b[0]}")
        m = 2 * n
        if b != b[::-1]:
            r = next(r for r in count() if b[r] != b[m - r])
            raise ValueError(f"duality violated: B_{r} = {b[r]} but B_{m - r} = {b[m - r]}")
        super().__init__(b, n)

    def total(self) -> int:
        """Total dimension of cohomology (sum of all Betti numbers)."""
        return sum(self.betti)

    def __str__(self) -> str:
        """Pretty form like ``1 + 2x + 2x^2 + 2x^3 + x^4`` (zero terms skipped)."""
        pieces = []
        for r, b in enumerate(self.betti):
            if b == 0:
                continue
            if r == 0:
                pieces.append(str(b))
            else:
                var = "x" if r == 1 else f"x^{r}"
                pieces.append(var if b == 1 else f"{b}{var}")
        return " + ".join(pieces)


class DimRelation(enum.Enum):
    """Trichotomy flag for the dimension comparison."""

    EQUAL = "EQUAL"
    STRICTLY_LESS = "STRICTLY_LESS"
    STRICTLY_GREATER = "STRICTLY_GREATER"


class DimensionComparison(Record):
    """dim H*(Sym^n C) vs dim Sym^n(H*(C)), with the comparison spelled out."""

    __slots__ = ("g", "n", "total_dim", "sym_dim", "relation")


def _check_genus(g: int) -> None:
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")


def _check_values(g: int, n: int, genus_zero: str = "") -> None:
    """Refuse g < 0, g = 0 when ``genus_zero`` says why, then n < 1."""
    _check_genus(g)
    if g == 0 and genus_zero:
        raise ValueError(genus_zero)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def _check(g: int, n: int, genus_zero: str = "", **more: object) -> None:
    """Refuse non-ints, then what ``_check_values`` refuses."""
    _require_int(("g", "n", *more), (g, n, *more.values()))
    _check_values(g, n, genus_zero)


def _closed_half(g: int, n: int) -> list[int]:
    """B_0..B_n of Sym^m(C) for all m >= n, genus g >= 1: B_r = B_{r-2} + C(2g, r)."""
    half = [binom(2 * g, r) for r in range(n + 1)]
    for r in range(2, n + 1):
        half[r] += half[r - 2]
    return half


def betti_closed(g: int, n: int, r: int) -> int:
    """r-th Betti number of Sym^n(C) for a genus-g curve, g >= 1, closed form.

    For r <= n this is sum_{j >= 0} binom(2g, r - 2j), the last entry of
    ``_closed_half(g, r)``; for r > n it is B_{2n-r} by duality.
    """
    _check(g, n, "betti_closed is stated for genus >= 1; use poincare_genus_zero", r=r)
    if not 0 <= r <= 2 * n:
        raise ValueError(f"degree r must lie in [0, {2 * n}], got {r}")
    return _closed_half(g, min(r, 2 * n - r))[-1]


def _series_rows(g: int, n: int) -> Iterator[list[int]]:
    """The t^0..t^n coefficients of (1 + tx)^{2g} / ((1 - t)(1 - tx^2)), dense in x.

    Yields a new list per t^k, of length 2k + 1.  The numerator's term at t^k
    is C(2g, k) x^k, by the exact ratio C(2g, k) = C(2g, k - 1) * (2g - k + 1) / k.
    Dividing by (1 - t) is s_k = C(2g, k) x^k + s_{k-1}, so s_k lists the
    terms up to k; dividing by (1 - tx^2) is r_k = s_k + x^2 * r_{k-1}, whose
    degrees above k are r_{k-1}'s from k - 1 on.  Only s_{k-1} and r_{k-1}
    are held: O(n) cells at a time whatever g is.
    """
    s, r, c = [], [], 1
    for k in range(n + 1):
        s.append(c)
        c = c * (2 * g - k) // (k + 1)
        r = [*map(add, s, [0, 0, *r]), *r[k - 1 :]]  # r_{-1} = [], so r_0 = s_0
        yield r


def _poincare_rows(g: int, ns: range) -> Iterator[PoincarePolynomial]:
    """``poincare_polynomial(g, n)`` for each n in ``ns``, from one expansion.

    Callers validate g and pass a nonempty step-1 ``ns``.  For g >= 1 each row
    is checked as it is read: it must equal the closed form and sum to
    ``total_dim_cohomology``, or a RuntimeError says so.
    """
    if g == 0:
        yield from map(_genus_zero, ns)
        return
    half = _closed_half(g, ns[-1])
    for n, row in zip(ns, islice(_series_rows(g, ns[-1]), ns[0], None)):
        if row != half[: n + 1] + half[n - 1 :: -1]:
            raise RuntimeError(f"series/closed-form disagreement at g={g}, n={n}")
        if sum(row) != _total_dim(g, n):
            raise RuntimeError(f"Betti sum != dimension formula at g={g}, n={n}")
        yield PoincarePolynomial(betti=row, n=n)


def poincare_via_series(g: int, n: int) -> PoincarePolynomial:
    """Poincare polynomial of Sym^n(C), genus g >= 1, by series expansion.

    Expands (1 + tx)^{2g} / ((1 - t)(1 - tx^2)) to t^n and reads off the t^n
    coefficient, checked against the closed form and the sum formula.
    """
    _check(g, n, "the generating series is stated for genus >= 1; "
           "use poincare_genus_zero")
    return next(_poincare_rows(g, range(n, n + 1)))


def _genus_zero(n: int) -> PoincarePolynomial:
    """``poincare_genus_zero`` for an int n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return PoincarePolynomial(betti=(1, 0) * n + (1,), n=n)


def poincare_genus_zero(n: int) -> PoincarePolynomial:
    """Poincare polynomial of Sym^n(P^1) = P^n: one class in each even degree."""
    _require_int("n", (n,))
    return _genus_zero(n)


def poincare_polynomial(g: int, n: int) -> PoincarePolynomial:
    """Route to the right formula by genus (series for g >= 1, P^n rule at 0)."""
    _require_int(("g", "n"), (g, n))
    if g == 0:
        return _genus_zero(n)
    _check_values(g, n)
    return next(_poincare_rows(g, range(n, n + 1)))


def _total_dim(g: int, n: int) -> int:
    """``total_dim_cohomology`` for a checked (g, n), each C(2g, i) from the last."""
    total, c = 0, 1
    for i in range(min(n, 2 * g) + 1):
        total += c * (n + 1 - i)
        c = c * (2 * g - i) // (i + 1)
    return total


def total_dim_cohomology(g: int, n: int) -> int:
    """dim H*(Sym^n C, C) = sum_{i=0}^{min(n,2g)} binom(2g, i) * (n+1-i)."""
    _check(g, n)
    return _total_dim(g, n)


def dim_sym_of_cohomology(g: int, n: int) -> int:
    """dim Sym^n(H*(C, C)) = binom(2g + n + 1, n), H*(C) ungraded of dim 2g+2."""
    _check(g, n)
    return binom(2 * g + n + 1, n)


def _compare(g: int, n: int, total: int) -> DimensionComparison:
    """``compare_dimensions`` for a checked (g, n) with dim H*(Sym^n C) = ``total``."""
    sym = binom(2 * g + n + 1, n)
    if total == sym:
        rel = DimRelation.EQUAL
    elif total < sym:
        rel = DimRelation.STRICTLY_LESS
    else:
        rel = DimRelation.STRICTLY_GREATER
    return DimensionComparison(g, n, total, sym, rel)


def compare_dimensions(g: int, n: int) -> DimensionComparison:
    """Compare dim H*(Sym^n C) with dim Sym^n(H*(C)) for any n >= 1."""
    _check(g, n)
    return _compare(g, n, _total_dim(g, n))


def dimension_table(
    genera: range, ns: range
) -> Iterator[tuple[PoincarePolynomial, DimensionComparison]]:
    """Each cell (g, n) of two step-1 ranges, g then n: the checked Poincare
    polynomial of Sym^n(C) and its dimension comparison.

    One series expansion per genus, to the largest n; each comparison takes
    the Betti sum of its row, which the row's check matched against the
    dimension formula.  The ranges are checked when called; the cells are
    computed as they are read.
    """
    for r, what, least in ((genera, "genus", 0), (ns, "n", 1)):
        if not r:
            raise ValueError(f"empty {what} range {r}")
        if r.step != 1:
            raise ValueError(f"{what} range {r} must have step 1")
        if r[0] < least:
            raise ValueError(f"{what} must be >= {least}, got {r[0]}")
    return (
        (pp, _compare(g, pp.n, pp.total())) for g in genera for pp in _poincare_rows(g, ns)
    )


def genus_obstruction_report(g: int, n: int) -> DimensionComparison:
    """Compare dim H*(Sym^n C) with dim Sym^n(H*(C)) for n >= 2.

    At genus 0 the two agree (both n+1) -- the coincidence behind the sl(2)
    classification of products of projective spaces.  For g >= 1 the left side
    is strictly smaller, which is exactly why that method has no higher-genus
    analogue.  The relation is computed by comparison, not asserted.
    """
    _require_int(("g", "n"), (g, n))
    _check_genus(g)
    if n < 2:
        raise ValueError(
            f"comparison needs n >= 2 (both sides coincide at n = 1), got {n}"
        )
    return _compare(g, n, _total_dim(g, n))
