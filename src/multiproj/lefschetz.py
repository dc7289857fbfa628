"""Explicit matrix realization of the sl(2,C)-action on H*(P^n, C).

Cup product with the Kaehler class, its adjoint, and the degree-weighting
operator turn the cohomology of complex projective space into an sl(2)-module:
Y acts as the Lefschetz operator (raising cohomological degree by 2, i.e.
lowering the weight by 2), X as its adjoint, and H weights H^{2p} by n - 2p.
Odd cohomology of P^n vanishes, so the basis e_0, ..., e_n indexes the even
degrees only.  H is the weight grading itself, so a module stores only X, Y
and the basis weights; H = diag(weights) is derived from them.

The normalization here fixes Y e_p = e_{p+1}; the commutation relation
[X, Y] = H together with X e_0 = 0 then forces X e_p = p(n - p + 1) e_{p-1}
(the adjoint under any Kaehler metric differs from this only by a rescaling of
the basis, which the bracket relations cannot see).

Matrix entries are exact: Python ints, with a Fraction only for a value that
is not integral, so the modules built here never leave the integers.  Bracket
verification, character extraction, Kuenneth tensor products and the
irreducibility test (kernel of X plus the Y-orbit of a highest-weight vector)
are all exact; the ranks of X's weight blocks come from one sparse
primitive-row elimination over the integers, stopped at each block's full
rank.  The brackets are checked one row at a time, so no matrix product is
ever formed, and a tensor product is built in one pass over all its factors.
``lefschetz_check`` runs every check on the cohomology module of a product of
projective spaces and returns the verdict as a ``LefschetzReport``.

``build_cohomology_module``, ``tensor_modules`` and ``lefschetz_check`` refuse
a module of dimension over ``_MODULE_DIM_LIMIT`` = 200000 (for a product of
projective spaces, the product of the n_i + 1) with ``ValueError``, before
any of its rows or factors is built; a module made from matrices the caller
built is not refused.  The limit bounds memory.  The module is built in one
pass and its brackets checked one row at a time, so its own X and Y set the
peak: 1.0 to 1.4 KB of RSS per basis vector for six to seventeen factors, in
any order (CPython 3.11: 122 MB at 6^6, 190 MB at 1^17, 243 MB at 4^5 1^6,
dimension 200000, the limit, which stays: a ceiling near 0.25 GB is worth
keeping).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain, product, repeat
from operator import mul

from ._record import Record
from .exactalg import LaurentPoly, _exact, _require_int, _shown
from .sl2rep import Character, tensor_irreps_character


class RatMatrix:
    """Sparse exact matrix storage, immutable by convention.

    An integral entry is stored as an int (a Fraction with denominator 1 as
    its numerator); only a non-integral value stays a Fraction.  Floats,
    bools and strings are refused as entries, dimensions or indices.  Apart
    from ``_apply`` there is no arithmetic: the whole-matrix sums, products
    and Kronecker products live in the tests, as the oracle of the
    row-by-row ``verify_brackets`` and ``tensor_modules``.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], int | Fraction] | None = None,
    ):
        _require_int(("nrows", "ncols"), (nrows, ncols))
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows: list[dict[int, int | Fraction]] = [{} for _ in range(nrows)]
        if entries:
            _require_int("matrix indices", tuple(chain.from_iterable(entries)))
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
                v = _exact(v)
                if v:
                    rows[i][j] = v
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def _from_rows(cls, ncols: int, rows: list[dict]) -> "RatMatrix":
        """A matrix on rows that already hold exact nonzero entries in range."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._rows = len(rows), ncols, rows
        return m

    @classmethod
    def diagonal(cls, values: Sequence[int | Fraction]) -> "RatMatrix":
        n = len(values)
        return cls(n, n, {(i, i): v for i, v in enumerate(values)})

    def row_items(self, i: int) -> list[tuple[int, int | Fraction]]:
        return sorted(self._rows[i].items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def _apply(self, rows: Iterable[int], vec: Mapping) -> dict:
        """The nonzero entries of self @ vec at the given row indices."""
        out = {}
        for i in rows:
            s = sum(a * vec[j] for j, a in self._rows[i].items() if j in vec)
            if s:
                out[i] = s
        return out

    def __repr__(self) -> str:
        nnz = sum(len(r) for r in self._rows)
        return f"<RatMatrix {self.nrows}x{self.ncols}, {nnz} nonzero>"

    def __reduce__(self) -> tuple:
        """Pickle and copy rebuild through ``__init__``, whose checks run again."""
        entries = {(i, j): v for i, row in enumerate(self._rows) for j, v in row.items()}
        return self.__class__, (self.nrows, self.ncols, entries)


def _reduce_row(by_lead: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Reduce one row (column -> nonzero int, the caller's own copy) in place.

    Leading column first, row := a*row - b*pivot_row, with a, b the two
    leading entries over their gcd; a nonzero remainder, divided by its
    content, is a pivot row.  The content is divided out only there: a row
    scaled by c > 0 scales every later step by a positive factor, so the same
    leads come up and the pivot rows are the same primitive rows.
    """
    get = row.get
    while row:
        lead = min(row)
        pivot_row = by_lead.get(lead)
        if pivot_row is None:
            g = math.gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            by_lead[lead] = row
            return
        g = math.gcd(pivot_row[lead], row[lead])
        a, b = pivot_row[lead] // g, row[lead] // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in pivot_row.items():
            s = get(c, 0) - b * v
            if s:
                row[c] = s
            else:
                del row[c]


class Sl2MatrixModule(Record):
    """A concrete sl(2,C)-module: exact matrices X and Y on a weight basis.

    H acts on each basis vector by its weight, so it is not stored: ``H`` is
    diag(basis_weights) and ``dim`` the number of weights, both derived.  X
    and Y must shift the integer weights by +2 and -2, as enforced here.  The
    bracket relations themselves are deliberately NOT enforced, so that
    broken modules can be built and fed to :func:`verify_brackets` (whose
    failures are data).
    """

    __slots__ = ("X", "Y", "basis_weights")

    def __init__(self, X: RatMatrix, Y: RatMatrix, basis_weights: Iterable[int]):
        w = tuple(basis_weights)  # checked, then stored: a list is not kept by reference
        d = len(w)
        if not d:
            raise ValueError("a module needs at least one basis weight")
        _require_int("basis weights", w)
        for name, op, shift in (("X", X, 2), ("Y", Y, -2)):
            if op.nrows != d or op.ncols != d:
                raise ValueError(
                    f"{name} is {op.nrows}x{op.ncols}, not {d}x{d} like the weights"
                )
            for i, row in enumerate(op._rows):
                target = w[i] - shift
                for j in row:
                    if w[j] != target:
                        raise ValueError(
                            f"{name}[{i},{j}] nonzero but weights "
                            f"{w[i]} != {w[j]} {shift:+d}"
                        )
        super().__init__(X, Y, w)

    @property
    def dim(self) -> int:
        return len(self.basis_weights)

    @property
    def H(self) -> RatMatrix:
        """The weight operator diag(basis_weights), built on each access."""
        return RatMatrix.diagonal(self.basis_weights)


_MODULE_DIM_LIMIT = 200_000


def _check_dim(dim: int) -> None:
    """Refuse a module of dimension over the guard, before any of it is built."""
    if dim > _MODULE_DIM_LIMIT:
        raise ValueError(
            f"module of dimension {_shown(dim)} exceeds the "
            f"{_MODULE_DIM_LIMIT}-dimension guard"
        )


def _cohomology_dim(n: int) -> int:
    """dim H*(P^n) = n + 1, for an int n >= 0."""
    _require_int("projective space dimension", (n,))
    if n < 0:
        raise ValueError(f"projective space dimension must be nonnegative, got {n}")
    return n + 1


def build_cohomology_module(n: int) -> Sl2MatrixModule:
    """The sl(2)-module H*(P^n, C) on the basis e_p = generator of H^{2p}.

    H e_p = (n - 2p) e_p, Y e_p = e_{p+1} (cup with the Kaehler class),
    X e_p = p(n - p + 1) e_{p-1}.
    """
    d = _cohomology_dim(n)
    _check_dim(d)
    weights = tuple(n - 2 * p for p in range(d))
    y = RatMatrix(d, d, {(p + 1, p): 1 for p in range(n)})
    x = RatMatrix(d, d, {(p - 1, p): p * (n - p + 1) for p in range(1, n + 1)})
    return Sl2MatrixModule(X=x, Y=y, basis_weights=weights)


class RelationCheck(Record):
    """Exact pass/fail for one bracket relation."""

    __slots__ = ("relation", "passed", "max_abs_discrepancy_numerator")

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "pass": self.passed,
            "max_abs_discrepancy_numerator": self.max_abs_discrepancy_numerator,
        }


class BracketReport(Record):
    __slots__ = ("checks",)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_brackets(m: Sl2MatrixModule) -> BracketReport:
    """Check [X,Y]=H, [H,X]=2X, [H,Y]=-2Y as exact matrix identities.

    Each check reports the numerator of its largest |entry| of lhs - rhs, one
    row at a time.  Row i of XY - YX - H is X's row i times Y's rows, minus
    Y's row i times X's rows, minus H_ii at column i, summed into one dense
    accumulator that is reused for every row: the same X and Y entries are
    walked again to read its largest |entry| and reset the touched slots to
    0.  H is diag(basis_weights), so row i of [H,X] - 2X is
    (w_i - w_k - 2) X_ik, and that of [H,Y] + 2Y is (w_i - w_k + 2) Y_ik.
    """
    w = m.basis_weights
    x_rows, y_rows = m.X._rows, m.Y._rows
    xy = hx = hy = 0
    acc = [0] * m.dim
    for i, (x_row, y_row) in enumerate(zip(x_rows, y_rows)):
        acc[i] = -w[i]
        for k, a in x_row.items():
            if w[i] - w[k] != 2:
                hx = max(hx, abs((w[i] - w[k] - 2) * a))
            for j, b in y_rows[k].items():
                acc[j] += a * b
        for k, a in y_row.items():
            if w[i] - w[k] != -2:
                hy = max(hy, abs((w[i] - w[k] + 2) * a))
            for j, b in x_rows[k].items():
                acc[j] -= a * b
        xy = max(xy, abs(acc[i]))
        acc[i] = 0
        for row, ops in ((x_row, y_rows), (y_row, x_rows)):
            for k in row:
                for j in ops[k]:
                    if acc[j]:
                        xy = max(xy, abs(acc[j]))
                        acc[j] = 0
    gaps = (("XY-YX=H", xy), ("HX-XH=2X", hx), ("HY-YH=-2Y", hy))
    return BracketReport(
        tuple(RelationCheck(name, gap == 0, gap.numerator) for name, gap in gaps)
    )


def tensor_modules(first: Sl2MatrixModule, *rest: Sl2MatrixModule) -> Sl2MatrixModule:
    """Kuenneth tensor product of the factors, operators by the Leibniz rule.

    X and Y each become the sum over the factors of 1 (x) .. op .. (x) 1, and
    the weights add, so H does too and the brackets are kept.  One pass over
    the product basis (last factor fastest) joins, in factor order, each
    factor's row i_t with column j moved by (j - i_t) * (product of the later
    factors' dimensions): the leading factors' rows once per combination, the
    last factor's row by row.  No partial product is formed, and no two parts
    share a column (that needs a diagonal entry, which Sl2MatrixModule refuses).
    One factor is returned as it is; more, whose dimensions multiply past the
    guard, are refused before any row is built.
    """
    if not rest:
        return first
    factors = (first, *rest)
    _check_dim(math.prod(f.dim for f in factors))
    strides = [*accumulate(reversed([f.dim for f in rest]), mul, initial=1)][::-1]
    ops = []
    for name in ("X", "Y"):
        *lead, last = [
            [tuple([((j - i) * s, v) for j, v in row.items()])
             for i, row in enumerate(getattr(f, name)._rows)]
            for f, s in zip(factors, strides)
        ]
        rows = []
        r = 0
        for lead_row in map(sum, product(*lead), repeat(())):
            for shifts in last:
                rows.append({r + c: v for c, v in lead_row + shifts})
                r += 1
        ops.append(RatMatrix._from_rows(r, rows))
    *lead, last = (f.basis_weights for f in factors)
    weights = tuple([w + v for w in map(sum, product(*lead)) for v in last])
    return Sl2MatrixModule(*ops, weights)


def module_character(m: Sl2MatrixModule) -> Character:
    """Character read off the H-eigenvalue multiset, checked like any other."""
    return Character(LaurentPoly(Counter(m.basis_weights)))


def _weight_indices(m: Sl2MatrixModule) -> dict[int, list[int]]:
    spaces: dict[int, list[int]] = {}
    for i, w in enumerate(m.basis_weights):
        spaces.setdefault(w, []).append(i)
    return spaces


def _x_kernel_dims(m: Sl2MatrixModule, spaces: dict[int, list[int]]):
    """Kernel dimension of X on each weight space, from the top weight down.

    X's rows at the weight-(w+2) basis vectors, keyed by negated column, are
    its block on weight w; each leads at its largest column, in a tensor
    module at r plus the stride of r's first factor not at its lowest weight,
    so most rows lead at distinct columns and fill-in stays small.  A row
    holding a Fraction is scaled by the lcm of its denominators; none exists
    before ``fractions`` is loaded, so an all-int module never loads it.  A
    block takes no row once its rank equals its column count, which every
    block below weight 0 of a genuine sl(2)-module reaches.
    """
    Fraction = getattr(sys.modules.get("fractions"), "Fraction", None)
    for w in sorted(spaces, reverse=True):
        ncols, by_lead = len(spaces[w]), {}
        for r in spaces.get(w + 2, ()):
            if len(by_lead) == ncols:
                break
            row = {-j: v for j, v in m.X._rows[r].items()}
            if Fraction in map(type, row.values()):
                scale = math.lcm(*(v.denominator for v in row.values()))
                row = {c: int(v * scale) for c, v in row.items()}
            _reduce_row(by_lead, row)
        yield w, ncols - len(by_lead)


def highest_weight_multiplicities(m: Sl2MatrixModule) -> dict[int, int]:
    """Count independent highest-weight vectors (kernel of X) per weight.

    For a module satisfying the bracket relations these counts are the
    multiplicities of the Clebsch-Gordan decomposition.
    """
    return {w: dim for w, dim in _x_kernel_dims(m, _weight_indices(m)) if dim}


def is_irreducible(m: Sl2MatrixModule) -> bool:
    """Irreducibility test: one highest-weight line whose Y-orbit spans.

    X preserves the weight grading (weight w -> w + 2), so its kernel splits
    across the weight spaces and can be collected blockwise.  X kills the top
    weight space, so that space must be a line, and no lower weight may have
    a kernel; the scan aborts at the first one that does.
    """
    spaces = _weight_indices(m)
    kernels = _x_kernel_dims(m, spaces)
    w, top_dim = next(kernels)
    if top_dim > 1 or any(dim for _, dim in kernels):
        return False
    vec = {spaces[w][0]: 1}
    # Successive Y-images live in strictly decreasing weight eigenspaces, so
    # the nonzero ones are automatically linearly independent: the orbit spans
    # exactly when all dim of them are nonzero.  Y lowers the weight by
    # exactly 2, so each image is read off the rows of the next weight space.
    count = 0
    while vec:
        count += 1
        w -= 2
        vec = m.Y._apply(spaces.get(w, ()), vec)
    return count == m.dim


class LefschetzReport(Record):
    """The checks of the cohomology module of P^{n_1} x ... x P^{n_r}.

    ``brackets`` holds the three bracket relations, ``character`` the weight
    character, ``character_matches`` whether it equals the product of the
    factors' irreducible characters, and ``irreducible`` the rank test's
    answer, which only a single factor should give.  The module itself is
    not kept.
    """

    __slots__ = ("parts", "dim", "brackets", "character", "character_matches",
                 "irreducible")

    @property
    def expected_irreducible(self) -> bool:
        return len(self.parts) == 1

    @property
    def failed(self) -> tuple[str, ...]:
        """The names of the failed checks: the relations, then the character
        and irreducibility expectations."""
        passed = {c.relation: c.passed for c in self.brackets.checks}
        passed.update(character_matches=self.character_matches,
                      irreducible=self.irreducible == self.expected_irreducible)
        return tuple(name for name, good in passed.items() if not good)

    def to_json_dict(self) -> dict:
        return {
            "input": ",".join(map(str, self.parts)),
            "dim": self.dim,
            "checks": [c.to_json_dict() for c in self.brackets.checks],
            "character": str(self.character),
            "character_matches": self.character_matches,
            "irreducible": self.irreducible,
            "expected_irreducible": self.expected_irreducible,
            "ok": not self.failed,
        }


def lefschetz_check(parts: Iterable[int]) -> LefschetzReport:
    """Check the Kuenneth product of the modules H*(P^n), n in ``parts``.

    Its brackets, its character against ``tensor_irreps_character(parts)``,
    and its irreducibility, in that order; the module is dropped on return.
    A product past the guard is refused before any factor is built.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("lefschetz_check needs at least one factor")
    _check_dim(math.prod(map(_cohomology_dim, parts)))
    m = tensor_modules(*map(build_cohomology_module, parts))
    brackets = verify_brackets(m)
    char = module_character(m)
    matches = char == tensor_irreps_character(parts)
    return LefschetzReport(parts, m.dim, brackets, char, matches, is_irreducible(m))
