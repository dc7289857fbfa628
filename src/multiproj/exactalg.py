"""Exact arithmetic substrate: big integers and Laurent polynomials.

Everything in this package is computed over Z (or Q for matrices); there is no
floating point anywhere.  One value type lives here:

* :class:`LaurentPoly` -- a Laurent polynomial in one formal variable ``q``
  with integer coefficients, stored sparsely as ``{exponent: coefficient}``
  of ints; anything else is refused.  Exponents may be negative.  The empty
  dict is the zero polynomial and zero coefficients are never stored, so
  equality of dicts is equality of polynomials.

Its values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.  Next to it are
``binom``, the package's checks of exact numbers (``_require_int``, the one
int check, and ``_exact``, the one int/``Fraction`` check, which imports
``fractions`` only for a value that is not an int) and its digit rule:
``_over_digits`` alone decides whether an int has more than a number of
digits, and ``_shown`` writes a size into a refusal, as ``over 10^4000``
past ``_DIGIT_LIMIT`` digits (Python's int-to-str conversion stops at 4300).
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Collection, Iterable, Iterator, Mapping
from itertools import repeat


def _is_int(v: object) -> bool:
    """Whether v is an exact int: an ``int``, and not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def _all_int(values: Collection[object]) -> bool:
    """Whether every one of ``values`` is an int; all exactly ``int`` is one look at types."""
    return set(map(type, values)) <= {int} or all(map(_is_int, values))


def _require_int(what: str | Iterable[str], values: Collection[object]) -> None:
    """Refuse the first of ``values`` that is not an int; a bool is not taken for one.

    It raises ``TypeError("{what} must be int, got {v!r}")``.  ``what`` names
    every value, or is an iterable of names, one per value, read only when a
    value is refused.  Values that are all exactly ``int`` pass after one look
    at their types.
    """
    if _all_int(values):
        return
    for name, v in zip(repeat(what) if isinstance(what, str) else what, values):
        if not _is_int(v):
            raise TypeError(f"{name} must be int, got {v!r}")


def _exact(v: object) -> int | Fraction:
    """v as an int when integral, else a Fraction; other types, bool too, are refused."""
    if _is_int(v):
        return v
    from fractions import Fraction  # loaded on first use: most callers pass ints

    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else Fraction(v)  # exact, for a subclass too
    raise TypeError(f"exact numbers must be int or Fraction, not {type(v).__name__}")


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    Arbitrary precision: C(2g+n+1, n) overflows 64 bits already around
    g = 20, n = 40, and the dimension comparisons need it exact.
    """
    if n < 0:
        raise ValueError(f"binom: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


_DIGIT_LIMIT = 4000


def _over_digits(v: int, digits: int) -> bool:
    """Whether v >= 0 has more than ``digits`` digits; v < 2^(3 digits) has not."""
    return v.bit_length() > 3 * digits and v >= 10**digits


def _shown(v: int) -> str:
    """v >= 0 as a refusal message prints it: past the digit limit, ``over 10^4000``."""
    return f"over 10^{_DIGIT_LIMIT}" if _over_digits(v, _DIGIT_LIMIT) else str(v)


class LaurentPoly:
    """Integer Laurent polynomial in ``q``, canonical sparse form.

    A non-int exponent or coefficient, a bool or 1.0 too, is a TypeError.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        _require_int("exponents", coeffs.keys())
        _require_int("coefficients", coeffs.values())
        self._coeffs = {exp: c for exp, c in coeffs.items() if c}

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs, descending by exponent."""
        for exp in sorted(self._coeffs, reverse=True):
            yield exp, self._coeffs[exp]

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient (zero polynomial: error)."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(self._coeffs)

    @property
    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient (zero polynomial: error)."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for ea, ca in self._coeffs.items():
            for eb, cb in other._coeffs.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(out)

    def __str__(self) -> str:
        """Canonical text form, descending exponents.

        Examples: ``q^3 + 2*q + 2*q^-1 + q^-3``, ``q^2 - q^-2``, ``0``.
        The exponent-0 term prints as a bare integer, exponent 1 as ``q``.
        """
        if not self._coeffs:
            return "0"
        pieces = []
        for exp, c in self.terms():
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "q" if exp == 1 else f"q^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"

    def __reduce__(self) -> tuple:
        """Pickle and copy rebuild through ``__init__``, whose checks run again."""
        return self.__class__, (dict(self._coeffs),)

    # Compiled on use, through re's own cache, so import compiles no pattern.
    _TERM_RE = (
        r"\s*(?P<sign>[+-])?\s*(?:"
        r"(?P<coeff>\d+)\s*\*?\s*q(?:\^(?P<cexp>-?\d+))?"  # 2*q^3, 2q, 2*q
        r"|q(?:\^(?P<exp>-?\d+))?"  # q^3, q^-1, q
        r"|(?P<const>\d+)"  # bare integer
        r")\s*"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form back into a polynomial.

        Round trip: ``LaurentPoly.parse(str(p)) == p`` for every ``p``.
        """
        term = re.compile(cls._TERM_RE).match
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = term(text, pos)
            if m is None:
                raise ValueError(
                    f"cannot parse Laurent polynomial near {text[pos:pos + 12]!r}"
                )
            if not first and m.group("sign") is None:
                raise ValueError(
                    f"missing '+'/'-' between terms near {text[pos:pos + 12]!r}"
                )
            sign = -1 if m.group("sign") == "-" else 1
            try:
                if m.group("const") is not None:
                    coeff, exp = int(m.group("const")), 0
                elif m.group("coeff") is not None:
                    coeff = int(m.group("coeff"))
                    exp = int(m.group("cexp") or 1)
                else:
                    coeff = 1
                    exp = int(m.group("exp") or 1)
            except ValueError:  # the term matched: a number past the int-from-text limit
                raise ValueError(
                    f"number of more than {sys.get_int_max_str_digits()} digits "
                    f"near {text[pos:pos + 12]!r}"
                ) from None
            out[exp] = out.get(exp, 0) + sign * coeff
            pos = m.end()
            first = False
        if first:
            raise ValueError("empty Laurent polynomial text")
        return cls(out)
