"""Exact arithmetic substrate: big integers, Laurent polynomials, truncated series.

Everything in this package is computed over Z (or Q for matrices); there is no
floating point anywhere.  Two value types live here:

* :class:`LaurentPoly` -- a Laurent polynomial in one formal variable ``q``
  with integer coefficients, stored sparsely as ``{exponent: coefficient}``.
  Exponents may be negative.  The empty dict is the zero polynomial and zero
  coefficients are never stored, so equality of dicts is equality of
  polynomials.

* :class:`TruncatedBiseries` -- a power series in ``t`` whose coefficients are
  integer polynomials in ``x``, truncated at a hard cap ``tcap`` on the
  t-degree.  The cap is always supplied explicitly by the caller; silent
  truncation is the classic series bug and we refuse to guess.

Values of both types are immutable after construction and every operation is a
pure function, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


def _exact(v: object) -> int | Fraction:
    """v as an int when integral, else a Fraction; other types, bool too, are refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
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


class LaurentPoly:
    """Integer Laurent polynomial in ``q``, canonical sparse form."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        canonical = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c != 0:
                    canonical[int(exp)] = c
        self._coeffs = canonical

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly":
        """The monomial ``coeff * q^exp``."""
        return cls({exp: coeff})

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

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

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at q = 1."""
        return sum(self._coeffs.values())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
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

    _TERM_RE = re.compile(
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
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = cls._TERM_RE.match(text, pos)
            if m is None:
                raise ValueError(
                    f"cannot parse Laurent polynomial near {text[pos:pos + 12]!r}"
                )
            if not first and m.group("sign") is None:
                raise ValueError(
                    f"missing '+'/'-' between terms near {text[pos:pos + 12]!r}"
                )
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("const") is not None:
                coeff, exp = int(m.group("const")), 0
            elif m.group("coeff") is not None:
                coeff = int(m.group("coeff"))
                exp = int(m.group("cexp") or 1)
            else:
                coeff = 1
                exp = int(m.group("exp") or 1)
            out[exp] = out.get(exp, 0) + sign * coeff
            pos = m.end()
            first = False
        if first:
            raise ValueError("empty Laurent polynomial text")
        return cls(out)


# Dense x-polynomials (tuples of int from degree 0, no trailing zeros) are the
# coefficients of TruncatedBiseries.

def _xtrim(coeffs: Sequence[int]) -> tuple[int, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


def _xadd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _xtrim(out)


def _xmul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _xtrim(out)


class TruncatedBiseries:
    """Power series in t with integer-polynomial-in-x coefficients, capped in t.

    All operations discard t-degrees above ``tcap``; the x-direction is exact
    (no cap needed: every quantity of interest has bounded x-degree per
    t-degree).
    """

    __slots__ = ("_tcap", "_coeffs")

    def __init__(self, tcap: int, coeffs: Sequence[Sequence[int]] = ()):
        if tcap < 0:
            raise ValueError(f"tcap must be nonnegative, got {tcap}")
        if len(coeffs) > tcap + 1:
            raise ValueError("more t-coefficients than tcap allows")
        rows = [_xtrim(c) for c in coeffs]
        rows.extend(() for _ in range(tcap + 1 - len(rows)))
        self._tcap = tcap
        self._coeffs = tuple(rows)

    @classmethod
    def zero(cls, tcap: int) -> "TruncatedBiseries":
        return cls(tcap)

    @classmethod
    def one(cls, tcap: int) -> "TruncatedBiseries":
        return cls(tcap, ((1,),))

    @classmethod
    def term(cls, tcap: int, tdeg: int, xdeg: int, coeff: int = 1) -> "TruncatedBiseries":
        """The monomial ``coeff * t^tdeg * x^xdeg`` (dropped if tdeg > tcap)."""
        if tdeg < 0 or xdeg < 0:
            raise ValueError("t and x degrees must be nonnegative")
        s = cls(tcap)
        if tdeg <= tcap and coeff != 0:
            rows = list(s._coeffs)
            rows[tdeg] = (0,) * xdeg + (coeff,)
            s = cls(tcap, rows)
        return s

    @property
    def tcap(self) -> int:
        return self._tcap

    def coefficient(self, tdeg: int) -> tuple[int, ...]:
        """The x-polynomial at t^tdeg, dense from degree 0."""
        if not 0 <= tdeg <= self._tcap:
            raise ValueError(f"t-degree {tdeg} outside [0, {self._tcap}]")
        return self._coeffs[tdeg]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedBiseries):
            return NotImplemented
        return self._tcap == other._tcap and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._tcap, self._coeffs))

    def __add__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_cap(other)
        return TruncatedBiseries(
            self._tcap,
            [_xadd(a, b) for a, b in zip(self._coeffs, other._coeffs)],
        )

    def __sub__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_cap(other)
        return TruncatedBiseries(
            self._tcap,
            [
                _xadd(a, tuple(-c for c in b))
                for a, b in zip(self._coeffs, other._coeffs)
            ],
        )

    def __mul__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_cap(other)
        cap = self._tcap
        rows: list[tuple[int, ...]] = [()] * (cap + 1)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j in range(cap - i + 1):
                b = other._coeffs[j]
                if b:
                    rows[i + j] = _xadd(rows[i + j], _xmul(a, b))
        return TruncatedBiseries(cap, rows)

    def __pow__(self, exponent: int) -> "TruncatedBiseries":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = TruncatedBiseries.one(self._tcap)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        """Exact quotient by a series whose constant t-term is 1.

        Forward substitution s_k = a_k - sum_{j >= 1} b_j s_{k-j} over the
        nonzero t-terms b_j of the divisor: dividing by 1 - t x^k is one pass.
        """
        self._check_cap(other)
        if other._coeffs[0] != (1,):
            raise ValueError(f"divisor needs constant t-term 1, got {other._coeffs[0]}")
        rest = enumerate(other._coeffs[1:], start=1)
        negated = [(j, tuple(-c for c in b)) for j, b in rest if b]
        rows: list[tuple[int, ...]] = []
        for k, a in enumerate(self._coeffs):
            for j, b in negated:
                if j > k:
                    break
                a = _xadd(a, _xmul(b, rows[k - j]))
            rows.append(a)
        return TruncatedBiseries(self._tcap, rows)

    def _check_cap(self, other: "TruncatedBiseries") -> None:
        if self._tcap != other._tcap:
            raise ValueError(
                f"tcap mismatch ({self._tcap} vs {other._tcap}): "
                "operands of a series operation must share their truncation cap"
            )

    def __repr__(self) -> str:
        return f"TruncatedBiseries(tcap={self._tcap}, coeffs={self._coeffs!r})"


def geometric_sum(u: TruncatedBiseries) -> TruncatedBiseries:
    """Sum of the geometric series 1 + u + u^2 + ... up to the t-cap.

    This is the multiplicative inverse of (1 - u), computed as one exact
    division.  The constant t-term of ``u`` must vanish (ValueError
    otherwise), or the sum is not a power series in t.
    """
    one = TruncatedBiseries.one(u.tcap)
    return one / (one - u)
