"""End-to-end classification of multiprojective spaces and the Sym^2 map."""

import cProfile
import pstats
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multiproj.classifier import (
    Partition,
    ProjPoint,
    Reason,
    Verdict,
    classify,
    cohomology_character,
    parse_partition,
    poincare_of_multiprojective,
    sym2_p1_map,
)
from multiproj.exactalg import LaurentPoly
from multiproj.sl2rep import (
    Character,
    IrrepMultiset,
    _peel_q_integers,
    _validated,
    irrep_character,
    partitions,
    tensor_character,
    tensor_irreps_character,
)
from multiproj.symcurve import PoincarePolynomial, poincare_genus_zero


class TestParsePartition:
    def test_reorders(self):
        p = parse_partition("1,2,1")
        assert p.parts == (2, 1, 1)
        assert p.n == 4

    def test_single(self):
        assert parse_partition("5").parts == (5,)

    def test_spaces_ok(self):
        assert parse_partition("3 1").parts == (3, 1)
        assert parse_partition(" 2, 1 ").parts == (2, 1)

    @pytest.mark.parametrize("text", ["2,0", "-1", "0"])
    def test_nonpositive_rejected(self, text):
        with pytest.raises(ValueError, match=">= 1"):
            parse_partition(text)

    def test_bad_token_named(self):
        with pytest.raises(ValueError, match="'two'"):
            parse_partition("3,two")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_partition("  ")

    # int() refuses an integer past Python's digit limit for integer text, and
    # the message names that limit, not the token's form.
    @pytest.mark.parametrize(
        "token,reason",
        [
            ("9" * 5000, "an integer of more than {} digits"),
            ("+" + "9" * 5000, "an integer of more than {} digits"),
            ("1_" * 4400 + "1", "an integer of more than {} digits"),
            ("9" * 5000 + "x", "not an integer"),
            ("x" * 5000, "not an integer"),
        ],
        ids=["digits", "signed", "underscores", "digits-then-text", "text"],
    )
    def test_overlong_integer_refused_for_its_length(self, token, reason):
        with pytest.raises(ValueError) as info:
            parse_partition(f"2,{token}")
        message = f"invalid partition part {token!r}: "
        assert str(info.value) == message + reason.format(sys.get_int_max_str_digits())


class TestPartitionType:
    def test_canonicalizes(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)

    def test_str(self):
        assert str(Partition((2, 1))) == "2,1"

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(2.0, 1), ("2", 1), (Fraction(2), 1)])
    def test_rejects_non_int_parts(self, parts):
        with pytest.raises(TypeError, match=r"^partition parts must be int, got .+$"):
            Partition(parts)

    def test_rejects_bool_parts(self):
        with pytest.raises(TypeError, match=r"^partition parts must be int, got True$"):
            Partition((True, 2))

    def test_parts_may_come_from_an_iterator(self):
        # the parts are checked, then stored: an iterator is read once
        assert Partition(p for p in (1, 3, 2)) == Partition((1, 3, 2))
        with pytest.raises(ValueError, match="^a partition needs at least one part$"):
            Partition(p for p in ())


class TestCohomologyCharacter:
    @pytest.mark.parametrize(
        "parts,text",
        [
            ((1,), "q + q^-1"),
            ((1, 1), "q^2 + 2 + q^-2"),
            ((2, 1), "q^3 + 2*q + 2*q^-1 + q^-3"),
        ],
    )
    def test_examples(self, parts, text):
        expected = Character(LaurentPoly.parse(text))
        assert cohomology_character(Partition(parts)) == expected

    @pytest.mark.parametrize("parts", [(3,), (2, 2), (4, 2, 1)])
    def test_dimension_and_top(self, parts):
        c = cohomology_character(Partition(parts))
        expected_dim = 1
        for k in parts:
            expected_dim *= k + 1
        assert c.dimension == expected_dim
        assert c.top_degree == sum(parts)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dense_product_matches_sparse_product(self, n):
        # the sparse product of irreducible characters is the oracle
        for parts in partitions(n):
            sparse = tensor_character([irrep_character(k) for k in parts])
            assert cohomology_character(Partition(parts)) == sparse


class TestClassify:
    def test_distinct_characters(self):
        v = classify(parse_partition("2,1"), parse_partition("1,1,1"))
        assert v.verdict is Verdict.NON_ISOMORPHIC
        assert v.reason is Reason.DISTINCT_CHARACTERS
        assert str(v.character1) == "q^3 + 2*q + 2*q^-1 + q^-3"
        assert str(v.character2) == "q^3 + 3*q + 3*q^-1 + q^-3"
        # evidence round-trips to the inputs
        assert v.factorization1.labels == (2, 1)
        assert v.factorization2.labels == (1, 1, 1)

    def test_reordering_is_isomorphic(self):
        v = classify(parse_partition("1,2"), parse_partition("2,1"))
        assert v.verdict is Verdict.ISOMORPHIC
        assert v.reason is Reason.SAME_PARTITION
        assert v.character1 == v.character2

    def test_dimension_mismatch_short_circuits(self):
        v = classify(parse_partition("3"), parse_partition("2,2"))
        assert v.verdict is Verdict.NON_ISOMORPHIC
        assert v.reason is Reason.DIMENSION_MISMATCH
        assert v.character1 is None and v.factorization2 is None

    def test_json_dict(self):
        doc = classify(parse_partition("3"), parse_partition("2,2")).to_json_dict()
        assert doc == {
            "verdict": "NON_ISOMORPHIC",
            "reason": "DIMENSION_MISMATCH",
            "n1": 3,
            "n2": 4,
            "partition1": "3",
            "partition2": "2,2",
            "character1": None,
            "character2": None,
            "factorization1": None,
            "factorization2": None,
        }

    @pytest.mark.parametrize("n", range(1, 11))
    def test_complete_at_desk_scale(self, n):
        # distinct partitions of equal n are always told apart, and the
        # characters themselves are pairwise distinct
        plist = [Partition(p) for p in partitions(n)]
        chars = [cohomology_character(p) for p in plist]
        assert len(set(chars)) == len(chars)
        for i in range(len(plist)):
            for j in range(i + 1, len(plist)):
                v = classify(plist[i], plist[j])
                assert v.verdict is Verdict.NON_ISOMORPHIC
                assert v.reason is Reason.DISTINCT_CHARACTERS

    @pytest.mark.parametrize("n", range(1, 11))
    def test_self_classification(self, n):
        for p in partitions(n):
            v = classify(Partition(p), Partition(tuple(reversed(p))))
            assert v.verdict is Verdict.ISOMORPHIC

    def test_each_character_built_and_peeled_once(self):
        # two dense products per call, no sparse product, no LaurentPoly
        pairs = [(Partition(a), Partition(b)) for a, b in
                 [((5, 3, 2), (4, 4, 2)), ((6, 4), (6, 4)), ((3, 3, 3, 1), (9, 1))]]
        profile = cProfile.Profile()
        for p1, p2 in pairs:
            profile.runcall(classify, p1, p2)
        called = pstats.Stats(profile).stats

        def calls(fn):
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            return called[key][1] if key in called else 0

        assert calls(tensor_irreps_character) == 2 * len(pairs)
        assert calls(_peel_q_integers) == 2 * len(pairs)
        assert calls(LaurentPoly.__mul__) == 0
        assert calls(LaurentPoly.__init__) == 0
        assert calls(_validated) == 0  # its own products are not re-checked

    @pytest.mark.parametrize(
        "peeled", [None, IrrepMultiset((1,))], ids=["failed-peel", "wrong-labels"]
    )
    def test_round_trip_guard(self, monkeypatch, peeled):
        # a peel that fails or misreads its own character is an error, not a verdict
        monkeypatch.setattr(
            "multiproj.classifier._peel_q_integers", lambda c: peeled
        )
        with pytest.raises(RuntimeError, match="failed to recover its own partition"):
            classify(parse_partition("2,1"), parse_partition("1,1,1"))


def poincare_by_products(p):
    """The product of q-integers in x^2 that poincare_of_multiprojective replaced."""
    poly = LaurentPoly({0: 1})
    for part in p.parts:
        poly = poly * LaurentPoly({2 * k: 1 for k in range(part + 1)})
    n, terms = p.n, dict(poly.terms())
    return PoincarePolynomial(
        betti=tuple(terms.get(d, 0) for d in range(2 * n + 1)), n=n
    )


class TestPoincareOfMultiprojective:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_product_of_q_integers(self, n):
        for parts in partitions(n):
            p = Partition(parts)
            assert poincare_of_multiprojective(p) == poincare_by_products(p)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_single_factor_is_projective_space(self, n):
        assert poincare_of_multiprojective(Partition((n,))) == poincare_genus_zero(n)

    def test_products(self):
        assert poincare_of_multiprojective(Partition((1, 1))).betti == (1, 0, 2, 0, 1)
        assert poincare_of_multiprojective(Partition((2, 1))).betti == (
            1, 0, 2, 0, 2, 0, 1,
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_degree_weight_dictionary(self, n):
        # B_d equals the multiplicity of weight n - d in the character:
        # the same data indexed by cohomological degree instead of weight
        for parts in partitions(n):
            p = Partition(parts)
            pp = poincare_of_multiprojective(p)
            c = cohomology_character(p)
            for d, b in enumerate(pp.betti):
                assert b == c.coefficient(n - d)

    def test_total_is_product(self):
        assert poincare_of_multiprojective(Partition((3, 2, 1))).total() == 24


class TestProjPoint:
    def test_scalar_equality(self):
        assert ProjPoint((1, 2)) == ProjPoint((Fraction(1, 2), 1))
        assert hash(ProjPoint((1, 2))) == hash(ProjPoint((2, 4)))

    def test_inequality(self):
        assert ProjPoint((1, 2)) != ProjPoint((1, 3))
        assert ProjPoint((0, 1)) != ProjPoint((1, 0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0))
        with pytest.raises(ValueError):
            ProjPoint(())

    @pytest.mark.parametrize(
        "coords,kind",
        [((0.1, 1), "float"), (("1/3", 1), "str"), ((1, 2.0), "float")],
    )
    def test_inexact_coordinates_rejected(self, coords, kind):
        message = f"^exact numbers must be int or Fraction, not {kind}$"
        with pytest.raises(TypeError, match=message):
            ProjPoint(coords)

    def test_bool_coordinates_rejected(self):
        with pytest.raises(
            TypeError, match="^exact numbers must be int or Fraction, not bool$"
        ):
            ProjPoint((1, False))

    def test_str(self):
        assert str(ProjPoint((1, 0))) == "[1:0]"


rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)
p1_points = st.tuples(rationals, rationals).filter(lambda c: any(c)).map(ProjPoint)
nonzero_scalars = rationals.filter(lambda r: r != 0)


class TestSym2Map:
    def test_degenerate_corner(self):
        out = sym2_p1_map(ProjPoint((1, 0)), ProjPoint((0, 1)))
        assert out == ProjPoint((0, 0, 1))

    def test_diagonal_point(self):
        out = sym2_p1_map(ProjPoint((1, 1)), ProjPoint((1, 1)))
        assert out == ProjPoint((1, 1, 2))

    def test_corner_cases_nonvanishing(self):
        e0, e1 = ProjPoint((1, 0)), ProjPoint((0, 1))
        for z in (e0, e1):
            for w in (e0, e1):
                sym2_p1_map(z, w)  # must not hit the all-zero guard

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            sym2_p1_map(ProjPoint((1, 0, 0)), ProjPoint((0, 1)))

    @given(p1_points, p1_points)
    def test_symmetric(self, z, w):
        assert sym2_p1_map(z, w) == sym2_p1_map(w, z)

    @given(p1_points, p1_points, nonzero_scalars)
    def test_scaling_equivariant(self, z, w, s):
        scaled = ProjPoint(tuple(s * c for c in z.coords))
        assert sym2_p1_map(scaled, w) == sym2_p1_map(z, w)

    @given(p1_points, p1_points)
    def test_never_zero(self, z, w):
        assert any(sym2_p1_map(z, w).coords)
