import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multiproj.exactalg import LaurentPoly, _all_int, binom
from multiproj.lefschetz import RatMatrix, build_cohomology_module
from multiproj.sl2rep import (
    Character,
    factor_tensor_of_irreps,
    irrep_character,
    partitions,
    tensor_irreps_character,
)


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
        q = LaurentPoly({1: 1})
        qi = LaurentPoly({-1: 1})
        assert (q + qi) * (q + qi) == L("q^2 + 2 + q^-2")
        assert LaurentPoly({1: 1, -1: -1}) * (q + qi) == L("q^2 - q^-2")

    def test_mul_identity(self):
        p = L("q^3 + 2*q + 2*q^-1 + q^-3")
        assert p * LaurentPoly({0: 1}) == p

    def test_zero_is_falsy_and_prints_0(self):
        z = LaurentPoly({2: 1}) + LaurentPoly({2: -1})
        assert not z
        assert z == LaurentPoly()
        assert str(z) == "0"

    def test_canonical_no_zero_coeffs(self):
        p = LaurentPoly({0: 0, 3: 5, -1: 0})
        assert p == LaurentPoly({3: 5})

    def test_degree_valuation(self):
        p = L("q^3 + 2*q + 2*q^-1 + q^-3")
        assert p.degree == 3
        assert p.valuation == -3
        with pytest.raises(ValueError):
            LaurentPoly().degree

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

    # A number past Python's digit limit for integer text is refused by name.
    @pytest.mark.parametrize(
        "text,near",
        [
            ("9" * 5000, "9" * 12),
            ("q^" + "9" * 5000, "q^" + "9" * 10),
            ("q^-" + "9" * 5000, "q^-" + "9" * 9),
            ("9" * 5000 + "*q", "9" * 12),
            ("2*q^" + "9" * 5000, "2*q^" + "9" * 8),
            ("1 + q^" + "9" * 5000, "+ q^" + "9" * 8),
        ],
        ids=["constant", "exponent", "negative-exponent", "coefficient",
             "exponent-of-term", "second-term"],
    )
    def test_parse_names_the_digit_limit(self, text, near):
        with pytest.raises(ValueError) as info:
            L(text)
        limit = sys.get_int_max_str_digits()
        assert str(info.value) == f"number of more than {limit} digits near {near!r}"

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: LaurentPoly({1.5: 1}), "exponents must be int, got 1.5"),
            (lambda: LaurentPoly({"3": 1}), "exponents must be int, got '3'"),
            (lambda: LaurentPoly({True: 1}), "exponents must be int, got True"),
            (lambda: LaurentPoly({2.7: 1}), "exponents must be int, got 2.7"),
            (lambda: LaurentPoly({0: 1.0}), "coefficients must be int, got 1.0"),
            (lambda: LaurentPoly({0: True}), "coefficients must be int, got True"),
            (lambda: Character(LaurentPoly({2: 1.0, 0: 1.0, -2: 1.0})),
             "coefficients must be int, got 1.0"),
            (lambda: factor_tensor_of_irreps(
                Character(LaurentPoly({2: 1.0, 0: 2.0, -2: 1.0}))),
             "coefficients must be int, got 1.0"),
        ],
        ids=["float-exp", "str-exp", "bool-exp", "term-exp", "float-coeff",
             "term-coeff", "character", "factor"],
    )
    def test_refuses_non_int(self, build, message):
        # each key or value equals an int, or int() would take it, so unchecked
        # it would pass as one: 1.5 rounds to q, 1.0 prints as 1.0
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

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
    assert a + LaurentPoly({e: -c for e, c in a.terms()}) == LaurentPoly()


@given(polys)
def test_str_parse_round_trip(p):
    assert LaurentPoly.parse(str(p)) == p


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call,what",
    [
        (irrep_character, "irreducible labels"),
        (lambda v: tensor_irreps_character([v]), "irreducible labels"),
        (lambda v: tensor_irreps_character([3, v]), "irreducible labels"),
        (lambda v: next(partitions(v)), "n"),
        (build_cohomology_module, "projective space dimension"),
        (lambda v: RatMatrix(v, 2), "nrows"),
        (lambda v: RatMatrix(2, v), "ncols"),
        (lambda v: RatMatrix(2, 2, {(v, 0): 1}), "matrix indices"),
    ],
    ids=["irrep", "tensor", "tensor-second", "partitions", "module", "nrows",
         "ncols", "index"],
)
def test_int_arguments_refuse_bool_and_float(call, what, bad):
    # True == 1 and 2.0 == 2, so unchecked each would pass as an int
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be int, got {bad!r}"


def test_checked_labels_may_come_from_an_iterator():
    assert tensor_irreps_character(iter([2, 1])) == tensor_irreps_character([2, 1])


class Count(int):
    pass


# One look at the types passes values that are all exactly int; any other
# type, an int subclass included, is judged value by value.
@pytest.mark.parametrize(
    "values,expected",
    [([], True), ([1, -2, 10**50], True), ((0,), True), ([1, Count(2)], True),
     ([1, True], False), ([False], False), ([1, Fraction(1)], False), (["1"], False)],
    ids=["empty", "ints", "tuple", "subclass", "bool", "only-bool", "fraction", "text"],
)
def test_all_int_refuses_bools(values, expected):
    assert _all_int(values) is expected
