"""Symmetric-product cohomology: closed form vs series, dimension comparisons."""

import tracemalloc
from fractions import Fraction
from operator import add

import pytest

from multiproj import cli, symcurve
from multiproj.exactalg import binom
from multiproj.symcurve import (
    DimRelation,
    PoincarePolynomial,
    _poincare_rows,
    _series_rows,
    betti_closed,
    compare_dimensions,
    dim_sym_of_cohomology,
    genus_obstruction_report,
    poincare_genus_zero,
    poincare_polynomial,
    poincare_via_series,
    total_dim_cohomology,
)


class TestPoincarePolynomial:
    def test_validates_length(self):
        with pytest.raises(ValueError):
            PoincarePolynomial(betti=(1, 2), n=1)

    def test_validates_duality(self):
        with pytest.raises(ValueError, match="duality"):
            PoincarePolynomial(betti=(1, 2, 3), n=1)

    def test_validates_b0(self):
        with pytest.raises(ValueError):
            PoincarePolynomial(betti=(2, 0, 2), n=1)

    def test_duality_message_names_the_first_pair(self):
        # B_0 and B_4 agree; B_1 = 2 against B_3 = 1 is the first mismatch
        with pytest.raises(ValueError) as info:
            PoincarePolynomial(betti=(1, 2, 3, 1, 1), n=2)
        assert str(info.value) == "duality violated: B_1 = 2 but B_3 = 1"

    def test_nonnegativity_checked_before_b0_and_duality(self):
        with pytest.raises(ValueError) as info:
            PoincarePolynomial(betti=(2, -1, 3), n=1)
        assert str(info.value) == "Betti numbers must be nonnegative"

    def test_str(self):
        assert str(PoincarePolynomial(betti=(1, 2, 2, 2, 1), n=2)) == (
            "1 + 2x + 2x^2 + 2x^3 + x^4"
        )
        assert str(PoincarePolynomial(betti=(1, 0, 1, 0, 1), n=2)) == "1 + x^2 + x^4"
        assert str(poincare_via_series(1, 2)) == "1 + 2x + 2x^2 + 2x^3 + x^4"
        assert str(poincare_genus_zero(2)) == "1 + x^2 + x^4"
        assert str(PoincarePolynomial((1, 1, 1), 1)) == "1 + x + x^2"

    def test_total(self):
        assert PoincarePolynomial(betti=(1, 2, 2, 2, 1), n=2).total() == 8

    @pytest.mark.parametrize(
        "betti,n,message",
        [
            ((1, 2, 1), True, "n must be int, got True"),
            ((1, 2.0, 1), 1, "B_1 must be int, got 2.0"),
            ((1, True, 1), 1, "B_1 must be int, got True"),
            ((1, Fraction(2), 1), 1, "B_1 must be int, got Fraction(2, 1)"),
        ],
        ids=["n-bool", "float", "bool", "fraction"],
    )
    def test_refuses_non_int(self, betti, n, message):
        # each value equals an int, so unchecked it would pass every other rule
        with pytest.raises(TypeError) as info:
            PoincarePolynomial(betti=betti, n=n)
        assert str(info.value) == message

    def test_stores_a_tuple(self):
        pp = PoincarePolynomial(betti=[1, 2, 1], n=1)
        assert pp.betti == (1, 2, 1)
        assert hash(pp) == hash(PoincarePolynomial(betti=(1, 2, 1), n=1))


class TestBettiClosed:
    def test_known_values(self):
        assert betti_closed(1, 2, 2) == 2  # C(2,2) + C(2,0)
        assert betti_closed(2, 3, 3) == 8  # C(4,3) + C(4,1)

    @pytest.mark.parametrize("g,n", [(1, 1), (2, 3), (5, 7)])
    def test_b0_is_one(self, g, n):
        assert betti_closed(g, n, 0) == 1

    def test_duality_clause(self):
        assert betti_closed(2, 3, 5) == betti_closed(2, 3, 1)
        assert betti_closed(3, 4, 8) == 1

    def test_genus_zero_redirects(self):
        with pytest.raises(ValueError, match="poincare_genus_zero"):
            betti_closed(0, 3, 1)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            betti_closed(1, 2, 5)
        with pytest.raises(ValueError):
            betti_closed(1, 2, -1)


class TestSeries:
    def test_g1_n2(self):
        assert poincare_via_series(1, 2).betti == (1, 2, 2, 2, 1)

    def test_g1_n1(self):
        assert poincare_via_series(1, 1).betti == (1, 2, 1)

    def test_g2_n2_total(self):
        assert poincare_via_series(2, 2).total() == 17

    def test_genus_zero_redirects(self):
        with pytest.raises(ValueError, match="genus"):
            poincare_via_series(0, 3)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_matches_closed_form(self, g):
        # the acceptance gate runs the full g <= 5, n <= 30 grid
        for n in range(1, 16):
            pp = poincare_via_series(g, n)
            assert pp.betti == tuple(
                betti_closed(g, n, r) for r in range(2 * n + 1)
            )

    @pytest.mark.parametrize("g", range(1, 6))
    def test_sum_matches_dimension_formula(self, g):
        for n in range(1, 31):
            assert poincare_via_series(g, n).total() == total_dim_cohomology(g, n)

    def test_genus_zero_agreement_bonus(self):
        # the series is only *stated* for g >= 1, but at g = 0 it degenerates
        # to 1/((1-t)(1-tx^2)) and still reproduces the projective-space rule;
        # read from the expansion itself since the library refuses g = 0
        rows = list(_series_rows(0, 59))
        for n in range(1, 60):
            assert tuple(rows[n]) == poincare_genus_zero(n).betti

    def test_top_coefficient_checked(self, monkeypatch):
        # x^{2n} t^n has coefficient 1 (from (tx^2)^n); the closed-form check
        # of the whole row catches a 0 there
        def zero_top(g, n):
            rows = list(_series_rows(g, n))
            rows[n][-1] = 0
            yield from rows

        monkeypatch.setattr(symcurve, "_series_rows", zero_top)
        with pytest.raises(RuntimeError, match="disagreement at g=1, n=2$"):
            poincare_via_series(1, 2)


def closed_row(g, n):
    return [betti_closed(g, n, r) for r in range(2 * n + 1)]


def factor_by_factor_rows(g, n):
    """Oracle: the series expanded one factor at a time on one table.

    Times (1 + tx) is one pass per factor, 2g in all, adding x * s_{k-1} to s_k
    for k descending up to the t-power reached so far; then the two forward
    division passes.  O(min(2g, n)^3 + max(0, 2g - n) * n^2) cells.
    """
    rows = [[0] * (2 * k + 1) for k in range(n + 1)]
    rows[0][0] = 1
    passes = [(1, range(min(p, n), 0, -1)) for p in range(1, 2 * g + 1)]
    passes += [(0, range(1, n + 1)), (2, range(1, n + 1))]
    for shift, ks in passes:
        for k in ks:
            prev, row = rows[k - 1], rows[k]
            end = shift + len(prev)
            row[shift:end] = map(add, row[shift:end], prev)
    return rows


class TestSeriesRow:
    @pytest.mark.parametrize("g", range(11))
    def test_equals_factor_by_factor_oracle(self, g):
        # a table to t^n is the first n + 1 rows of the table to t^120
        oracle = factor_by_factor_rows(g, 120)
        for n in range(1, 121):
            assert list(_series_rows(g, n)) == oracle[: n + 1], (g, n)

    @pytest.mark.parametrize("g,n", [(20, 300), (1, 2000), (50, 50), (50, 1)])
    def test_equals_factor_by_factor_oracle_outside_the_domain(self, g, n):
        assert list(_series_rows(g, n)) == factor_by_factor_rows(g, n)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_matches_closed_form_on_compute_domain(self, g):
        rows = list(_series_rows(g, 120))
        for k in range(1, 121):
            assert rows[k] == closed_row(g, k), (g, k)

    @pytest.mark.parametrize("g,n", [(20, 300), (1, 2000), (50, 50), (50, 1)])
    def test_exact_outside_the_domain(self, g, n):
        row = list(_series_rows(g, n))[n]
        assert row == closed_row(g, n)
        assert sum(row) == total_dim_cohomology(g, n)

    def test_holds_two_rows_not_the_table(self):
        # the table to t^2000 is about 4M cells (over 30 MB); the quotient
        # rows held at t^2000 are about 6000
        tracemalloc.start()
        try:
            poincare_polynomial(1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak


class TestPoincareRows:
    @pytest.mark.parametrize("g", range(6))
    @pytest.mark.parametrize(
        "ns", [range(1, 31), range(1, 2), range(7, 8), range(5, 13)],
        ids=["1..30", "1", "7", "5..12"],
    )
    def test_equals_poincare_polynomial(self, g, ns):
        assert list(_poincare_rows(g, ns)) == [poincare_polynomial(g, n) for n in ns]

    def test_inner_row_checked(self, monkeypatch):
        def bump_row_3(g, n):
            rows = list(_series_rows(g, n))
            rows[3][2] += 1
            yield from rows

        monkeypatch.setattr(symcurve, "_series_rows", bump_row_3)
        with pytest.raises(
            RuntimeError, match="^series/closed-form disagreement at g=2, n=3$"
        ):
            list(_poincare_rows(2, range(1, 6)))

    def test_sum_checked(self, monkeypatch):
        total_dim = symcurve._total_dim
        monkeypatch.setattr(symcurve, "_total_dim", lambda g, n: total_dim(g, n) + 1)
        with pytest.raises(
            RuntimeError, match="^Betti sum != dimension formula at g=2, n=4$"
        ):
            poincare_via_series(2, 4)

    def test_table_expands_once_per_genus(self, monkeypatch):
        calls = []

        def counted(g, n):
            calls.append((g, n))
            return _series_rows(g, n)

        monkeypatch.setattr(symcurve, "_series_rows", counted)
        assert cli.main(["table", "--genus", "1..3", "--n", "2..6", "--quiet"]) == 0
        assert calls == [(1, 6), (2, 6), (3, 6)]

    def test_table_sums_each_cell_once(self, monkeypatch):
        # the sum check evaluates the dimension formula; the comparison reuses it
        calls, total_dim = [], symcurve._total_dim

        def counted(g, n):
            calls.append((g, n))
            return total_dim(g, n)

        monkeypatch.setattr(symcurve, "_total_dim", counted)
        assert cli.main(["table", "--genus", "0..2", "--n", "2..4", "--quiet"]) == 0
        assert calls == [(g, n) for g in (1, 2) for n in (2, 3, 4)]


class TestGenusZero:
    def test_small(self):
        assert poincare_genus_zero(1).betti == (1, 0, 1)
        assert poincare_genus_zero(2).betti == (1, 0, 1, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_total_is_n_plus_one(self, n):
        assert poincare_genus_zero(n).total() == n + 1


def total_dim_by_binom(g, n):
    """The dimension formula with each binomial from scratch: the oracle."""
    return sum(binom(2 * g, i) * (n + 1 - i) for i in range(min(n, 2 * g) + 1))


class TestDimensions:
    def test_total_dim_matches_binomial_sum(self):
        pairs = [(g, n) for g in range(41) for n in range(1, 121)] + [(300, 500)]
        for g, n in pairs:
            assert total_dim_cohomology(g, n) == total_dim_by_binom(g, n), (g, n)

    @pytest.mark.parametrize(
        "g,n,expected",
        [(1, 2, 8), (2, 5, 64), (0, 3, 4), (0, 9, 10), (2, 3, 32), (1, 3, 12)],
    )
    def test_total_dim(self, g, n, expected):
        assert total_dim_cohomology(g, n) == expected

    @pytest.mark.parametrize(
        "g,n,expected",
        [(1, 3, 20), (2, 3, 56), (0, 5, 6), (1, 2, 10), (2, 2, 21), (2, 5, 252)],
    )
    def test_sym_dim(self, g, n, expected):
        assert dim_sym_of_cohomology(g, n) == expected


class TestObstruction:
    def test_g2_n2(self):
        report = genus_obstruction_report(2, 2)
        assert (report.total_dim, report.sym_dim) == (17, 21)
        assert report.relation is DimRelation.STRICTLY_LESS

    def test_g1_n3(self):
        report = genus_obstruction_report(1, 3)
        assert (report.total_dim, report.sym_dim) == (12, 20)
        assert report.relation is DimRelation.STRICTLY_LESS

    def test_genus_zero_equal(self):
        report = genus_obstruction_report(0, 7)
        assert (report.total_dim, report.sym_dim) == (8, 8)
        assert report.relation is DimRelation.EQUAL

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            genus_obstruction_report(2, 1)

    def test_strictness_grid(self):
        for g in range(1, 6):
            for n in range(2, 16):
                assert total_dim_cohomology(g, n) < dim_sym_of_cohomology(g, n)


class TestRouter:
    def test_routes_genus_zero(self):
        assert poincare_polynomial(0, 4) == poincare_genus_zero(4)

    def test_routes_positive_genus(self):
        assert poincare_polynomial(3, 5) == poincare_via_series(3, 5)


GOOD_ARGS = {"g": 2, "n": 3, "r": 1}


@pytest.mark.parametrize("bad", [True, False, 2.0], ids=["true", "false", "float"])
@pytest.mark.parametrize(
    "fn,params",
    [
        (betti_closed, "gnr"),
        (poincare_via_series, "gn"),
        (poincare_genus_zero, "n"),
        (poincare_polynomial, "gn"),
        (total_dim_cohomology, "gn"),
        (dim_sym_of_cohomology, "gn"),
        (compare_dimensions, "gn"),
        (genus_obstruction_report, "gn"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_refuses_non_int_arguments(fn, params, bad):
    # True == 1, False == 0 and 2.0 == 2, so unchecked each would pass as an int
    for i, name in enumerate(params):
        args = [GOOD_ARGS[p] for p in params]
        args[i] = bad
        with pytest.raises(TypeError, match=f"^{name} must be int, got {bad!r}$"):
            fn(*args)


@pytest.mark.parametrize(
    "fn,args",
    [
        (betti_closed, (2, 3, 1)),
        (poincare_via_series, (2, 3)),
        (poincare_genus_zero, (3,)),
        (poincare_polynomial, (2, 3)),
        (poincare_polynomial, (0, 3)),
        (total_dim_cohomology, (2, 3)),
        (dim_sym_of_cohomology, (2, 3)),
        (compare_dimensions, (2, 3)),
        (genus_obstruction_report, (2, 3)),
    ],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)),
)
def test_checks_arguments_once(monkeypatch, fn, args):
    calls, require_int = [], symcurve._require_int

    def counted(what, values):
        if tuple(values) == args:  # the arguments, not the Betti row of a result
            calls.append(what)
        require_int(what, values)

    monkeypatch.setattr(symcurve, "_require_int", counted)
    fn(*args)
    assert len(calls) == 1, calls
