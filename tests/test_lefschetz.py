"""Matrix modules: construction, brackets, tensor products, irreducibility."""

import cProfile
import json
import math
import pstats
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, product
from pathlib import Path

import pytest

from multiproj import lefschetz
from multiproj.lefschetz import (
    BracketReport,
    RatMatrix,
    RelationCheck,
    _reduce_row,
    _weight_indices,
    _x_kernel_dims,
    Sl2MatrixModule,
    build_cohomology_module,
    highest_weight_multiplicities,
    is_irreducible,
    lefschetz_check,
    module_character,
    tensor_modules,
    verify_brackets,
)
from multiproj.sl2rep import (
    clebsch_gordan_decompose,
    irrep_character,
    partitions,
    tensor_character,
)


def tensor_of(parts):
    return tensor_modules(*map(build_cohomology_module, parts))


# The whole-matrix algebra RatMatrix had before verify_brackets and
# tensor_modules worked one row at a time; it serves as their oracle.


def _matrix(nrows, ncols, rows):
    """A RatMatrix from dict rows, through the validating constructor."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return RatMatrix(nrows, ncols, entries)


def _rows(a):
    return [dict(a.row_items(i)) for i in range(a.nrows)]


def entry(a, i, j):
    return a._rows[i].get(j, 0)


def is_zero(a):
    return not any(a._rows)


def apply(a, vec):
    """Sparse matrix-vector product (vec maps index -> coefficient)."""
    return a._apply(range(a.nrows), vec)


def identity(n):
    return RatMatrix(n, n, {(i, i): 1 for i in range(n)})


def add(a, b):
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise ValueError(
            f"shape mismatch: {a.nrows}x{a.ncols} vs {b.nrows}x{b.ncols}"
        )
    rows = _rows(a)
    for row, other in zip(rows, _rows(b)):
        for j, v in other.items():
            row[j] = row.get(j, 0) + v
    return _matrix(a.nrows, a.ncols, rows)


def scale(a, factor):
    return _matrix(
        a.nrows, a.ncols, [{j: factor * v for j, v in r.items()} for r in _rows(a)]
    )


def sub(a, b):
    return add(a, scale(b, -1))


def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    b_rows = _rows(b)
    rows = []
    for a_row in _rows(a):
        acc = {}
        for k, x in a_row.items():
            for j, y in b_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        rows.append(acc)
    return _matrix(a.nrows, b.ncols, rows)


def kron(a, b):
    """Kronecker product; index (i, j) of the factors maps to i*b_dim + j."""
    entries = {
        (i * b.nrows + k, j * b.ncols + l): x * y
        for i in range(a.nrows)
        for j, x in a.row_items(i)
        for k in range(b.nrows)
        for l, y in b.row_items(k)
    }
    return RatMatrix(a.nrows * b.nrows, a.ncols * b.ncols, entries)


def max_abs_entry(a):
    return max((abs(v) for r in _rows(a) for v in r.values()), default=0)


def product_brackets(m):
    """verify_brackets by six whole-matrix products."""
    cases = (
        ("XY-YX=H", sub(matmul(m.X, m.Y), matmul(m.Y, m.X)), m.H),
        ("HX-XH=2X", sub(matmul(m.H, m.X), matmul(m.X, m.H)), scale(m.X, 2)),
        ("HY-YH=-2Y", sub(matmul(m.H, m.Y), matmul(m.Y, m.H)), scale(m.Y, -2)),
    )
    checks = []
    for name, lhs, rhs in cases:
        gap = max_abs_entry(sub(lhs, rhs))
        checks.append(RelationCheck(name, gap == 0, gap.numerator))
    return BracketReport(tuple(checks))


def kron_tensor(a, b):
    """tensor_modules by identity matrices, Kronecker products and sums."""
    ia, ib = identity(a.dim), identity(b.dim)
    weights = tuple(wa + wb for wa in a.basis_weights for wb in b.basis_weights)
    return Sl2MatrixModule(
        X=add(kron(a.X, ib), kron(ia, b.X)),
        Y=add(kron(a.Y, ib), kron(ia, b.Y)),
        basis_weights=weights,
    )


def with_x(m, factor):
    """m with X scaled by factor (0 zeroes it); the other operators kept."""
    x = {(i, j): factor * v for i in range(m.dim) for j, v in m.X.row_items(i)}
    return Sl2MatrixModule(RatMatrix(m.dim, m.dim, x), m.Y, m.basis_weights)


def sparse_echelon(rows, reduce_row=_reduce_row):
    """Pivot columns and echelon rows of sparse integer rows, by reduce_row.

    Each row is reduced on a copy without zeros; the echelon rows have the
    input's kernel, and the rank is the number of pivots.
    """
    by_lead = {}
    for row in rows:
        reduce_row(by_lead, {c: v for c, v in row.items() if v})
    pivots = sorted(by_lead)
    return pivots, [by_lead[c] for c in pivots]


def checked_pivots(rows):
    """Pivot columns of rows; _reduce_row's echelon must be the oracle's."""
    pivots, echelon = sparse_echelon(rows)
    assert (pivots, echelon) == sparse_echelon(rows, reduce_row_each_step)
    assert all(math.gcd(*row.values()) == 1 for row in echelon)
    return pivots


# The eliminators the package used before sparse primitive-row elimination
# replaced them, and the elimination step as it was before the content was
# cleared only at a new pivot; they serve as oracles for rank and kernel.


def reduce_row_each_step(by_lead, row):
    """_reduce_row dividing the row by its content at every step."""
    while row:
        g = math.gcd(*row.values())
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        lead = min(row)
        pivot_row = by_lead.get(lead)
        if pivot_row is None:
            by_lead[lead] = row
            return
        g = math.gcd(pivot_row[lead], row[lead])
        a, b = pivot_row[lead] // g, row[lead] // g
        if a != 1:
            for c in row:
                row[c] *= a
        for c, v in pivot_row.items():
            s = row.get(c, 0) - b * v
            if s:
                row[c] = s
            else:
                del row[c]


def dense_echelon(
    rows: list[list[int]], ncols: int
) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and echelon rows of an integer matrix.

    Forward-only fraction-free (Bareiss) elimination: every division is exact,
    so the entries stay integers, and the echelon rows have the kernel of the
    input.  The rank is the number of pivots.
    """
    rows = list(rows)  # rows are replaced below, never changed in place
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        zeros, tail = [0] * (col + 1), rows[rank][col + 1 :]
        for i in range(rank + 1, len(rows)):
            f, ri = rows[i][col], rows[i][col + 1 :]
            rows[i] = zeros + [(p * a - f * b) // prev for a, b in zip(ri, tail)]
        prev = p
        pivots.append(col)
    return pivots, rows[: len(pivots)]


def dense_kernel_dims(m):
    """Kernel dimension of X on each weight space, each block by dense_echelon.

    The block of weight w has a row per weight-(w+2) basis vector and a column
    per weight-w one, each row cleared of denominators.
    """
    spaces = _weight_indices(m)
    dims = {}
    for w, cols in spaces.items():
        block = []
        for r in spaces.get(w + 2, ()):
            row = [Fraction(entry(m.X, r, c)) for c in cols]
            scale = math.lcm(*(v.denominator for v in row))
            block.append([int(v * scale) for v in row])
        dims[w] = len(cols) - len(dense_echelon(block, len(cols))[0])
    return dims


def dense_is_irreducible(m):
    """is_irreducible from dense_kernel_dims and whole-matrix Y-images."""
    dims = dense_kernel_dims(m)
    top = max(dims)
    if [w for w, d in dims.items() if d] != [top] or dims[top] != 1:
        return False
    vec, count = {m.basis_weights.index(top): 1}, 0
    while vec:
        vec, count = apply(m.Y, vec), count + 1
    return count == m.dim


def _rank(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    m = len(rows)
    rank = 0
    prev = 1
    col = 0
    while rank < m and col < ncols:
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (p * ri[j] - f * pivot_row[j]) // prev
            ri[col] = 0
        prev = p
        rank += 1
        col += 1
    return rank


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, via reduced row echelon form over Q."""
    rows = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][free]
        basis.append(vec)
    return basis


class TestRatMatrix:
    # The arithmetic tests exercise the oracle functions above.
    def test_identity_matmul(self):
        a = RatMatrix(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 0): 3})
        assert matmul(identity(2), a) == a
        assert matmul(a, identity(2)) == a

    def test_matmul(self):
        a = RatMatrix(2, 2, {(0, 1): 2, (1, 0): 1})
        b = RatMatrix(2, 2, {(0, 0): 5, (1, 1): 7})
        assert matmul(a, b) == RatMatrix(2, 2, {(0, 1): 14, (1, 0): 5})

    def test_kron_index_order(self):
        # (i, j) of the factors -> i * other_dim + j, row-major
        a = RatMatrix(2, 2, {(0, 1): 1})
        k = kron(a, identity(2))
        assert entry(k, 0, 2) == 1 and entry(k, 1, 3) == 1
        assert max_abs_entry(k) == 1

    def test_add_cancels(self):
        a = RatMatrix(1, 1, {(0, 0): Fraction(1, 3)})
        assert is_zero(sub(a, a))
        assert max_abs_entry(sub(a, a)) == 0

    def test_apply(self):
        a = RatMatrix(2, 2, {(0, 1): 2, (1, 0): 3})
        assert apply(a, {1: Fraction(5)}) == {0: Fraction(10)}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(RatMatrix(2, 3), RatMatrix(2, 3))
        with pytest.raises(ValueError):
            add(RatMatrix(2, 3), RatMatrix(3, 2))

    def test_integral_entries_are_ints(self):
        a = RatMatrix(1, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
        assert type(entry(a, 0, 0)) is int and entry(a, 0, 0) == 2
        assert entry(a, 0, 1) == Fraction(1, 2)
        assert RatMatrix(1, 1, {(0, 0): Fraction(0)})._rows == [{}]  # no zero stored
        assert scale(a, Fraction(6, 3)).row_items(0) == [(0, 4), (1, 1)]
        assert RatMatrix(1, 1, {(0, 0): 1}) == RatMatrix(1, 1, {(0, 0): Fraction(1)})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RatMatrix(1, 1, {(0, 0): 0.1}),
            lambda: RatMatrix(1, 1, {(0, 0): "1/3"}),
        ],
        ids=["float-entry", "string-entry"],
    )
    def test_inexact_values_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_bool_entry_rejected(self):
        with pytest.raises(
            TypeError, match="^exact numbers must be int or Fraction, not bool$"
        ):
            RatMatrix(1, 1, {(0, 0): True})


class TestBuildModule:
    def test_n0_is_zero_module(self):
        m = build_cohomology_module(0)
        assert m.dim == 1
        assert is_zero(m.X) and is_zero(m.Y) and is_zero(m.H)

    def test_n1(self):
        m = build_cohomology_module(1)
        assert m.basis_weights == (1, -1)
        assert entry(m.H, 0, 0) == 1 and entry(m.H, 1, 1) == -1
        assert entry(m.Y, 1, 0) == 1
        assert entry(m.X, 0, 1) == 1  # mu_1 = 1*(1-1+1)

    def test_n2(self):
        m = build_cohomology_module(2)
        assert m.basis_weights == (2, 0, -2)
        assert entry(m.X, 0, 1) == 2  # mu_1 = 1*(2-1+1)
        assert entry(m.X, 1, 2) == 2  # mu_2 = 2*(2-2+1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_cohomology_module(-1)


class TestStructuralValidation:
    def test_fields_are_x_y_and_weights(self):
        # H and dim are read off the weights, never passed in
        assert Sl2MatrixModule.__slots__ == ("X", "Y", "basis_weights")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_h_and_dim_derived_from_weights(self, n):
        for parts in partitions(n):
            m = tensor_of(parts)
            assert m.H == RatMatrix.diagonal(m.basis_weights)
            assert m.dim == len(m.basis_weights)

    @pytest.mark.parametrize(
        "x,y,weights,message",
        [
            (RatMatrix(0, 0), RatMatrix(0, 0), (), "basis weight"),
            (RatMatrix(2, 3), RatMatrix(2, 2), (1, -1), "X is 2x3"),
            (RatMatrix(3, 3), RatMatrix(2, 2), (1, -1), "X is 3x3"),
            (RatMatrix(2, 2), RatMatrix(2, 1), (1, -1), "Y is 2x1"),
            # Y must lower the weight by 2; here it raises it
            (RatMatrix(2, 2), RatMatrix(2, 2, {(0, 1): 1}), (1, -1), r"Y\[0,1\]"),
            (RatMatrix(2, 2), RatMatrix(2, 2, {(1, 1): 3}), (1, -1), r"Y\[1,1\]"),
        ],
        ids=["no-weights", "x-cols", "x-rows", "y-cols", "y-raises", "y-diagonal"],
    )
    def test_malformed_modules_rejected(self, x, y, weights, message):
        with pytest.raises(ValueError, match=message) as info:
            Sl2MatrixModule(X=x, Y=y, basis_weights=weights)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("weights", [(1.0, -1.0), (1, Fraction(-1))])
    def test_inexact_weights_rejected(self, weights):
        z = RatMatrix(2, 2)
        with pytest.raises(TypeError, match=r"^basis weights must be int, got .+$"):
            Sl2MatrixModule(X=z, Y=z, basis_weights=weights)

    def test_bool_weights_rejected(self):
        z = RatMatrix(2, 2)
        with pytest.raises(TypeError, match=r"^basis weights must be int, got True$"):
            Sl2MatrixModule(X=z, Y=z, basis_weights=(True, -1))

    def test_wrong_grading_rejected(self):
        # X must raise weight by 2; here it maps weight 1 to weight 1
        bad_x = RatMatrix(2, 2, {(0, 0): 1})
        z = RatMatrix(2, 2)
        message = r"^X\[0,0\] nonzero but weights 1 != 1 \+2$"
        with pytest.raises(ValueError, match=message):
            Sl2MatrixModule(X=bad_x, Y=z, basis_weights=(1, -1))


class TestBrackets:
    def test_n7_all_pass(self):
        report = verify_brackets(build_cohomology_module(7))
        assert report.all_pass
        assert [c.relation for c in report.checks] == [
            "XY-YX=H",
            "HX-XH=2X",
            "HY-YH=-2Y",
        ]
        assert all(c.max_abs_discrepancy_numerator == 0 for c in report.checks)

    def test_n0_all_pass(self):
        assert verify_brackets(build_cohomology_module(0)).all_pass

    def test_zeroed_x_breaks_xy_relation(self):
        good = build_cohomology_module(3)
        broken = with_x(good, 0)
        report = verify_brackets(broken)
        assert report == product_brackets(broken)
        by_name = {c.relation: c for c in report.checks}
        assert not by_name["XY-YX=H"].passed
        # XY - YX = 0, so the gap is H itself: max |weight| = 3
        assert by_name["XY-YX=H"].max_abs_discrepancy_numerator == 3
        assert by_name["HX-XH=2X"].passed  # 0 = 0 still holds
        assert not report.all_pass

    @pytest.mark.parametrize("n", range(0, 16))
    def test_single_factors(self, n):
        assert verify_brackets(build_cohomology_module(n)).all_pass

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tensors(self, n):
        for parts in partitions(n):
            m = tensor_of(parts)
            report = verify_brackets(m)
            assert report.all_pass
            assert report == product_brackets(m)

    @pytest.mark.parametrize("factor", [0, Fraction(1, 2), Fraction(2, 3)])
    @pytest.mark.parametrize("parts", [(3,), (2, 1), (1, 1, 1), (4, 2)])
    def test_broken_modules_match_products(self, parts, factor):
        m = with_x(tensor_of(parts), factor)
        report = verify_brackets(m)
        assert report == product_brackets(m)
        assert not report.checks[0].passed
        assert report.checks[1].passed and report.checks[2].passed
        if factor == 0:
            assert report.checks[0].max_abs_discrepancy_numerator == sum(parts)

    def test_random_modules_match_products(self):
        # X and Y respect a random weight grading; entries in -3..3, some of
        # them Fractions, so [X, Y] = H almost never holds
        rng = random.Random(20261018)

        def entry():
            v = rng.randint(-3, 3)
            return Fraction(v, rng.randint(2, 3)) if rng.random() < 0.3 else v

        failing = 0
        for _ in range(300):
            d = rng.randint(1, 9)
            w = [rng.randint(-4, 4) for _ in range(d)]
            pairs = list(product(range(d), repeat=2))
            x = {(i, j): entry() for i, j in pairs if w[i] == w[j] + 2}
            y = {(i, j): entry() for i, j in pairs if w[i] == w[j] - 2}
            m = Sl2MatrixModule(
                X=RatMatrix(d, d, x), Y=RatMatrix(d, d, y), basis_weights=tuple(w)
            )
            report = verify_brackets(m)
            assert report == product_brackets(m)
            failing += not report.all_pass
        assert failing > 250

    def test_off_grading_entries_match_products(self):
        # entries written past the weight check give [H,X] and [H,Y] gaps,
        # which the row loop finds on the same visit as the [X,Y] gap
        m = tensor_of((2, 1))
        m.X._rows[0][0] = Fraction(3, 2)
        m.Y._rows[1][4] = -5
        report = verify_brackets(m)
        assert report == product_brackets(m)
        gaps = [c.max_abs_discrepancy_numerator for c in report.checks]
        assert gaps[1:] == [3, 20]

    def test_no_product_held_in_memory(self):
        # the check keeps one row at a time, not a product matrix
        tracemalloc.start()
        try:
            m = tensor_of((4, 4, 4, 4))
            module_size, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            verify_brackets(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - module_size < module_size / 10


class TestTensor:
    def test_weights_add(self):
        t = tensor_of((1, 1))
        assert t.dim == 4
        assert t.basis_weights == (2, 0, 0, -2)

    def test_two_one_weights(self):
        assert tensor_of((2, 1)).basis_weights == (3, 1, 1, -1, -1, -3)

    def test_unit(self):
        m = build_cohomology_module(4)
        t = tensor_modules(m, build_cohomology_module(0))
        assert t.basis_weights == m.basis_weights
        assert t.X == m.X and t.Y == m.Y and t.H == m.H

    def test_matches_kron_of_two_factors(self):
        for p, q in product(range(7), repeat=2):
            a, b = build_cohomology_module(p), build_cohomology_module(q)
            assert tensor_modules(a, b) == kron_tensor(a, b)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_kron_of_tensors(self, n):
        for parts, k in product(partitions(n), range(4)):
            a, b = tensor_of(parts), build_cohomology_module(k)
            assert tensor_modules(a, b) == kron_tensor(a, b)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_factors_match_kron_chain(self, n):
        # every partition of n, with up to two P^0 factors mixed in; the one
        # pass also keeps each row's entries in the pairwise chain's order
        for parts, zeros in product(partitions(n), range(3)):
            size = len(parts) + zeros
            for at in combinations(range(size), zeros):
                rest = iter(parts)
                ks = [0 if t in at else next(rest) for t in range(size)]
                if not ks:
                    continue
                factors = [build_cohomology_module(k) for k in ks]
                t = tensor_modules(*factors)
                assert t == reduce(kron_tensor, factors), ks
                pairwise = reduce(tensor_modules, factors)
                for op, by_pairs in ((t.X, pairwise.X), (t.Y, pairwise.Y)):
                    items = [list(row.items()) for row in op._rows]
                    assert items == [list(row.items()) for row in by_pairs._rows], ks

    @pytest.mark.parametrize("factor", [0, 1, Fraction(1, 2), Fraction(2, 3)])
    @pytest.mark.parametrize("parts", [(3,), (5,), (2, 1), (1, 1, 1), (4, 2), (3, 3)])
    def test_broken_factors_match_kron_chain(self, parts, factor):
        factors = [
            with_x(tensor_of(parts), factor),
            build_cohomology_module(2),
            with_x(build_cohomology_module(1), factor),
        ]
        assert tensor_modules(*factors) == reduce(kron_tensor, factors)

    @pytest.mark.parametrize("factor", [1, 0, Fraction(1, 2)])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_one_factor_is_itself(self, n, factor):
        m = with_x(build_cohomology_module(n), factor)
        assert tensor_modules(m) == m

    def test_no_factor_refused(self):
        with pytest.raises(TypeError):
            tensor_modules()

    def test_no_intermediate_product_held(self):
        # the pairwise chain holds the 2048-dimensional product beside the
        # 4096-dimensional one; the one pass holds only its own rows
        factors = [build_cohomology_module(1)] * 12
        tracemalloc.start()
        try:
            m = tensor_modules(*factors)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.dim == 4096
        assert peak - size < size / 4


class TestModuleCharacter:
    @pytest.mark.parametrize("n", range(0, 51))
    def test_matches_irrep_character(self, n):
        m = build_cohomology_module(n)
        assert m.dim == n + 1
        assert module_character(m) == irrep_character(n)

    def test_tensor_character(self):
        c = module_character(tensor_of((1, 1)))
        assert c == tensor_character([irrep_character(1)] * 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tensor_matches_character_product(self, n):
        for parts in partitions(n):
            expected = tensor_character([irrep_character(k) for k in parts])
            assert module_character(tensor_of(parts)) == expected

    @pytest.mark.parametrize("weights", [(1,), (2, 0), (2, 0, -2, -2)])
    def test_asymmetric_weights_rejected(self, weights):
        z = RatMatrix(len(weights), len(weights))
        m = Sl2MatrixModule(X=z, Y=z, basis_weights=weights)
        with pytest.raises(ValueError, match=r"^not a character: .+$"):
            module_character(m)


class TestHighestWeight:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_irreducible_has_single_top_vector(self, n):
        assert highest_weight_multiplicities(build_cohomology_module(n)) == {n: 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_clebsch_gordan(self, n):
        # kernel-of-X dimensions per weight == CG multiplicities, computed by
        # two unrelated methods (matrix rank vs weight-count differences)
        for parts in partitions(n):
            module = tensor_of(parts)
            cg = clebsch_gordan_decompose(module_character(module))
            assert highest_weight_multiplicities(module) == dict(cg.counts())


# The library twin of tests/test_cli.py::test_large_input_finishes, under the
# same 10 s subprocess timeout (about 13 s with the dense Bareiss eliminator).
LARGE_TENSOR = """
from multiproj.lefschetz import (
    build_cohomology_module, highest_weight_multiplicities, module_character,
    tensor_modules,
)
from multiproj.sl2rep import clebsch_gordan_decompose
m = tensor_modules(*map(build_cohomology_module, (4, 4, 4, 4, 4)))
cg = clebsch_gordan_decompose(module_character(m))
assert highest_weight_multiplicities(m) == dict(cg.counts())
print(m.dim)
"""


def test_large_tensor_multiplicities_finish():
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_TENSOR],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3125\n"


# Together these take 15-17 s with the blocks' columns in ascending basis
# order, and about 2 s in descending order (see _x_kernel_dims).
LARGER_TENSORS = """
from multiproj.lefschetz import (
    build_cohomology_module, highest_weight_multiplicities, module_character,
    tensor_modules,
)
from multiproj.sl2rep import clebsch_gordan_decompose
for parts in ((6, 6, 6, 6, 6), (4, 4, 4, 4, 4, 4)):
    m = tensor_modules(*map(build_cohomology_module, parts))
    cg = clebsch_gordan_decompose(module_character(m))
    assert highest_weight_multiplicities(m) == dict(cg.counts()), parts
    print(m.dim)
"""


def test_larger_tensor_multiplicities_finish():
    proc = subprocess.run(
        [sys.executable, "-c", LARGER_TENSORS],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "16807\n15625\n"


def random_integer_rows(rng, nrows, ncols):
    """Rows with entries in -3..3, some forced zero or combinations of others."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(ncols)])
    rng.shuffle(rows)
    return rows


class TestEliminator:
    def test_agrees_with_oracles_on_random_matrices(self):
        rng = random.Random(20261018)
        deficient = 0
        for _ in range(3000):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = random_integer_rows(rng, nrows, ncols)
            pivots = checked_pivots([dict(enumerate(r)) for r in rows])
            rank = _rank(rows, ncols)
            assert len(pivots) == rank == len(dense_echelon(rows, ncols)[0])
            deficient += rank < min(nrows, ncols)
            basis = _nullspace([[Fraction(v) for v in r] for r in rows], ncols)
            assert ncols - rank == len(basis)
        assert deficient > 500  # zero and dependent rows really occur

    def test_agrees_on_module_blocks(self):
        # every X weight block of the tensor modules with 3-4 factors, parts 2..4;
        # the oracle step eliminates each whole block, rows keyed as in the scan
        blocks = 0
        for parts in [t for r in (3, 4) for t in product(range(2, 5), repeat=r)]:
            m = tensor_of(parts)
            spaces = _weight_indices(m)
            scan = dict(_x_kernel_dims(m, spaces))
            assert scan == dense_kernel_dims(m)
            for w, cols in spaces.items():
                rows = spaces.get(w + 2, ())
                block = [{-j: v for j, v in m.X._rows[r].items()} for r in rows]
                assert len(cols) - len(checked_pivots(block)) == scan[w]
            blocks += len(scan)
        assert blocks > 1000

    def test_full_rank_stop_agrees_with_dense_blocks(self):
        # random integer modules whose weight spaces grow strictly towards
        # weight 0, so each negative-weight block has more rows than columns;
        # the blocks come from random_integer_rows, so many are rank-deficient
        rng = random.Random(20261019)
        deficient = 0
        for _ in range(400):
            top = rng.randint(2, 5)
            sizes = list(accumulate(rng.randint(1, 2) for _ in range(top // 2 + 1)))
            weights = tuple(
                w
                for w in range(top, -top - 1, -2)
                for _ in range(sizes[(top - abs(w)) // 2])
            )
            spaces = {}
            for i, w in enumerate(weights):
                spaces.setdefault(w, []).append(i)
            x = {}
            for w, cols in spaces.items():
                rows = spaces.get(w + 2, [])
                block = random_integer_rows(rng, len(rows), len(cols))
                for r, values in zip(rows, block):
                    x.update({(r, c): v for c, v in zip(cols, values)})
            d = len(weights)
            y = {(i + 1, i): 1 for i in range(d - 1) if weights[i + 1] == weights[i] - 2}
            m = Sl2MatrixModule(RatMatrix(d, d, x), RatMatrix(d, d, y), weights)
            dims = dense_kernel_dims(m)
            assert dict(_x_kernel_dims(m, spaces)) == dims
            assert highest_weight_multiplicities(m) == {
                w: k for w, k in dims.items() if k
            }
            assert is_irreducible(m) == dense_is_irreducible(m)
            deficient += any(k for w, k in dims.items() if w < 0)
        assert deficient > 100

    @pytest.mark.parametrize("factor", [0, 1, Fraction(1, 2), Fraction(2, 3)])
    @pytest.mark.parametrize("parts", [(3,), (5,), (2, 1), (1, 1, 1), (4, 2), (3, 3)])
    def test_full_rank_stop_on_broken_and_fraction_modules(self, parts, factor):
        m = with_x(tensor_of(parts), factor)
        dims = dense_kernel_dims(m)
        assert dict(_x_kernel_dims(m, _weight_indices(m))) == dims
        assert highest_weight_multiplicities(m) == {w: k for w, k in dims.items() if k}
        assert is_irreducible(m) == dense_is_irreducible(m)

    @pytest.mark.parametrize(
        "m",
        [
            with_x(build_cohomology_module(3), 0),
            Sl2MatrixModule(
                X=build_cohomology_module(3).X,
                Y=RatMatrix(4, 4, {(1, 0): 1, (3, 2): 1}),
                basis_weights=(3, 1, -1, -3),
            ),
            Sl2MatrixModule(
                X=RatMatrix(4, 4, {(0, 2): 1, (1, 3): 1}),
                Y=RatMatrix(4, 4, {(2, 0): 1, (3, 1): 1}),
                basis_weights=(1, 1, -1, -1),
            ),
        ],
        ids=["zero-x", "short-y-orbit", "two-top-vectors"],
    )
    def test_full_rank_stop_on_reducible_modules(self, m):
        dims = dense_kernel_dims(m)
        assert highest_weight_multiplicities(m) == {w: k for w, k in dims.items() if k}
        assert not is_irreducible(m)
        assert not dense_is_irreducible(m)

    def test_input_rows_unchanged(self):
        rows = [{0: 2, 1: 4, 3: 0}, {0: 3, 2: 1}, {0: 6, 1: 12, 3: 0}, {}]
        before = [dict(r) for r in rows]
        pivots, echelon = sparse_echelon(rows)
        assert rows == before
        assert pivots == [0, 1]
        assert all(r is not e for r in rows for e in echelon)

    @pytest.mark.parametrize(
        "parts,factor",
        [((2, 1), Fraction(1, 2)), ((5,), Fraction(1, 2)), ((1, 1), Fraction(2, 3))],
    )
    def test_non_integral_module(self, parts, factor):
        # scaling X keeps its kernel; the rows are cleared of denominators
        m = tensor_of(parts)
        scaled = with_x(m, factor)
        entries = [v for i in range(m.dim) for _, v in scaled.X.row_items(i)]
        assert any(type(v) is Fraction for v in entries)
        assert highest_weight_multiplicities(scaled) == (
            highest_weight_multiplicities(m)
        )
        assert is_irreducible(scaled) == (len(parts) == 1)

    def test_multiplicities_sort_no_rows(self):
        # building and eliminating read each row's dict as it is stored
        profile = cProfile.Profile()
        m = profile.runcall(tensor_of, (2, 3, 4, 5))
        profile.runcall(highest_weight_multiplicities, m)
        called = pstats.Stats(profile).stats
        assert not [f for f in called if f[2] == "row_items"]

    def test_full_rank_stop_skips_rows(self):
        # the stop leaves 129 of X's 1295 nonzero rows unreduced on (5,5,5,5);
        # math.gcd runs once per elimination step and once per new pivot
        m = tensor_of((5, 5, 5, 5))
        profile = cProfile.Profile()
        profile.runcall(highest_weight_multiplicities, m)
        called = pstats.Stats(profile).stats
        steps = [v[1] for f, v in called.items() if f[2] == "_reduce_row"]
        gcds = [v[1] for f, v in called.items() if f[2].endswith("math.gcd>")]
        assert sum(1 for i in range(m.dim) if m.X.row_items(i)) == 1295
        assert steps == [1166]
        assert gcds == [3545 + 1150]

    def test_integer_modules_create_no_fraction(self):
        m = tensor_of((3, 2, 1))
        profile = cProfile.Profile()
        profile.runcall(verify_brackets, m)
        profile.runcall(highest_weight_multiplicities, m)
        profile.runcall(is_irreducible, m)
        profile.runcall(is_irreducible, build_cohomology_module(40))
        called = pstats.Stats(profile).stats
        assert not [f for f in called if f[0].endswith("fractions.py")]


class TestIrreducibility:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 50])
    def test_projective_modules_irreducible(self, n):
        assert is_irreducible(build_cohomology_module(n))

    def test_tensor_reducible(self):
        assert not is_irreducible(tensor_of((1, 1)))

    def test_two_top_vectors_reducible(self):
        # P^1 + P^1: the top weight space is a plane, so no single line spans
        x = RatMatrix(4, 4, {(0, 2): 1, (1, 3): 1})
        y = RatMatrix(4, 4, {(2, 0): 1, (3, 1): 1})
        m = Sl2MatrixModule(X=x, Y=y, basis_weights=(1, 1, -1, -1))
        assert highest_weight_multiplicities(m) == {1: 2}
        assert not is_irreducible(m)

    def test_short_y_orbit_reducible(self):
        # P^3 with Y e_1 = 0: one top line, X unchanged, but the orbit stops
        m = build_cohomology_module(3)
        y = RatMatrix(4, 4, {(1, 0): 1, (3, 2): 1})
        broken = Sl2MatrixModule(m.X, y, m.basis_weights)
        assert highest_weight_multiplicities(broken) == {3: 1}
        assert not is_irreducible(broken)

    def test_x_kernel_below_top_reducible(self):
        # X = 0 kills every weight space, though the Y-orbit of the top spans
        m = with_x(build_cohomology_module(3), 0)
        assert highest_weight_multiplicities(m) == {3: 1, 1: 1, -1: 1, -3: 1}
        assert not is_irreducible(m)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_proper_tensors_reducible(self, n):
        for parts in partitions(n):
            if len(parts) >= 2:
                assert not is_irreducible(tensor_of(parts))


class TestHardLefschetz:
    @pytest.mark.parametrize("n", range(0, 21))
    def test_y_power_is_bijection_between_mirror_weights(self, n):
        m = build_cohomology_module(n)
        for k in range(n % 2, n + 1, 2):
            src = m.basis_weights.index(k)
            dst = m.basis_weights.index(-k)
            vec = {src: 1}
            for _ in range(k):
                vec = apply(m.Y, vec)
            # both weight spaces are lines, so bijection == nonzero image
            assert vec.get(dst, 0) != 0


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


class TestLefschetzCheck:
    @pytest.mark.parametrize(
        "parts",
        [(n,) for n in range(9)] + [p for n in range(1, 7) for p in partitions(n)],
        ids=str,
    )
    def test_every_check_passes(self, parts):
        report = lefschetz_check(parts)
        assert report.failed == ()
        assert report.irreducible is (len(parts) == 1)
        assert report.dim == math.prod(k + 1 for k in parts)
        assert report.brackets == verify_brackets(tensor_of(parts))

    @pytest.mark.parametrize("argv,parts", [
        (["lefschetz-check", "25", "--format", "json"], (25,)),
        (["lefschetz-check", "--partition", "2,1", "--format", "json"], (2, 1)),
    ], ids=["25", "2,1"])
    def test_json_is_the_golden_document(self, argv, parts):
        case = next(c for c in json.loads(GOLDEN.read_text())["cases"] if c["argv"] == argv)
        assert lefschetz_check(parts).to_json_dict() == json.loads(case["stdout"])

    def test_an_unexpected_reduction_fails_only_irreducible(self, monkeypatch):
        monkeypatch.setattr(lefschetz, "is_irreducible", lambda module: False)
        report = lefschetz_check((3,))
        assert report.failed == ("irreducible",)
        assert report.to_json_dict()["ok"] is False

    def test_failed_names_the_checks_in_order(self, monkeypatch):
        broken = BracketReport(tuple(
            RelationCheck(c.relation, False, 1) for c in verify_brackets(tensor_of((1,))).checks
        ))
        monkeypatch.setattr(lefschetz, "verify_brackets", lambda module: broken)
        monkeypatch.setattr(lefschetz, "tensor_irreps_character", lambda parts: None)
        monkeypatch.setattr(lefschetz, "is_irreducible", lambda module: True)
        assert lefschetz_check((2, 1)).failed == (
            "XY-YX=H", "HX-XH=2X", "HY-YH=-2Y", "character_matches", "irreducible"
        )

    def test_refuses_no_factors(self):
        with pytest.raises(ValueError, match="at least one factor"):
            lefschetz_check(())


def traced_refusal(build, *args):
    """The refusal of ``build(*args)`` and the peak traced memory it took."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(info.value), peak


# Every entry point that builds a module refuses one of dimension over 200000
# before any row or factor of it is built, in the command line's words.
class TestDimensionGuard:
    def test_single_factor_at_the_guard_builds(self):
        assert build_cohomology_module(199999).dim == 200_000

    def test_single_factor_past_the_guard_refused(self):
        message, peak = traced_refusal(build_cohomology_module, 200_000)
        assert message == "module of dimension 200001 exceeds the 200000-dimension guard"
        assert peak < 64_000  # the 200001 weights alone would take 6 MB

    def test_product_past_the_guard_refused_before_any_row(self):
        message, peak = traced_refusal(tensor_modules, *[build_cohomology_module(1)] * 18)
        assert message == "module of dimension 262144 exceeds the 200000-dimension guard"
        assert peak < 64_000  # 2^18 rows would take tens of MB

    def test_product_at_the_guard_builds(self, monkeypatch):
        monkeypatch.setattr(lefschetz, "_MODULE_DIM_LIMIT", 8)
        assert tensor_modules(*[build_cohomology_module(1)] * 3).dim == 8
        monkeypatch.setattr(lefschetz, "_MODULE_DIM_LIMIT", 7)
        with pytest.raises(ValueError, match="^module of dimension 8 exceeds the 7-dimension"):
            tensor_modules(*[build_cohomology_module(1)] * 3)

    def test_one_factor_is_not_refused(self, monkeypatch):
        m = build_cohomology_module(3)
        monkeypatch.setattr(lefschetz, "_MODULE_DIM_LIMIT", 1)
        assert tensor_modules(m) is m

    def test_check_refuses_a_huge_product_before_any_factor(self, monkeypatch):
        monkeypatch.setattr(lefschetz, "build_cohomology_module", None)  # never called
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            lefschetz_check((1,) * 15000)  # dimension 2^15000, of 4516 digits
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "module of dimension over 10^4000 exceeds the 200000-dimension guard"
        )

    def test_check_asks_each_part_before_the_guard(self):
        with pytest.raises(TypeError, match="projective space dimension must be int"):
            lefschetz_check((1, "2"))
        with pytest.raises(ValueError, match="must be nonnegative, got -2"):
            lefschetz_check((-2, -300_000))
