import pytest
from hypothesis import given, strategies as st

from multiproj.exactalg import LaurentPoly, binom


def L(text):
    return LaurentPoly.parse(text)


class TestBinom:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 1, 2), (7, 2, 21), (10, 5, 252), (0, 0, 1), (5, 0, 1), (5, 5, 1)],
    )
    def test_values(self, n, k, expected):
        assert binom(n, k) == expected

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 1), (0, -5)])
    def test_out_of_range_is_zero(self, n, k):
        assert binom(n, k) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    def test_big(self):
        # needs arbitrary precision: C(81,40) does not fit in 64 bits
        assert binom(81, 40) == 81 * binom(80, 40) // 41


class TestLaurentPoly:
    def test_mul_examples(self):
        q = LaurentPoly.term(1, 1)
        qi = LaurentPoly.term(1, -1)
        assert (q + qi) * (q + qi) == L("q^2 + 2 + q^-2")
        assert (q - qi) * (q + qi) == L("q^2 - q^-2")

    def test_mul_identity(self):
        p = L("q^3 + 2*q + 2*q^-1 + q^-3")
        assert p * LaurentPoly.one() == p

    def test_zero_is_falsy_and_prints_0(self):
        z = LaurentPoly({2: 1}) - LaurentPoly({2: 1})
        assert not z
        assert z == LaurentPoly.zero()
        assert str(z) == "0"

    def test_canonical_no_zero_coeffs(self):
        p = LaurentPoly({0: 0, 3: 5, -1: 0})
        assert p == LaurentPoly({3: 5})

    def test_degree_valuation(self):
        p = L("q^3 + 2*q + 2*q^-1 + q^-3")
        assert p.degree == 3
        assert p.valuation == -3
        with pytest.raises(ValueError):
            LaurentPoly.zero().degree

    def test_evaluate_at_one(self):
        assert L("q^3 + 2*q + 2*q^-1 + q^-3").evaluate_at_one() == 6

    @pytest.mark.parametrize(
        "text",
        [
            "q^3 + 2*q + 2*q^-1 + q^-3",
            "q^2 - q^-2",
            "1",
            "0",
            "q",
            "- q + 3",
            "5*q^-4",
        ],
    )
    def test_parse_accepts(self, text):
        L(text)  # must not raise

    @pytest.mark.parametrize("text", ["", "q^", "2**q", "q + + 1", "q 1", "x^2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            L(text)

    def test_str_forms(self):
        assert str(L("q")) == "q"
        assert str(L("2*q^-1")) == "2*q^-1"
        assert str(LaurentPoly({0: -3, 2: 1})) == "q^2 - 3"
        assert str(LaurentPoly({0: 7})) == "7"


coeffs = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)
polys = coeffs.map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == LaurentPoly.zero()


@given(polys)
def test_str_parse_round_trip(p):
    assert LaurentPoly.parse(str(p)) == p
