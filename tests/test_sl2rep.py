"""Character ring: irreducibles, tensor products, decomposition, factorization."""

import random
import re
import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from multiproj import sl2rep
from multiproj.exactalg import LaurentPoly
from multiproj.sl2rep import (
    Character,
    FactorizationError,
    IrrepMultiset,
    clebsch_gordan_decompose,
    factor_tensor_of_irreps,
    irrep_character,
    partitions,
    tensor_character,
)


def char_of(text):
    return Character(LaurentPoly.parse(text))


def recursive_partitions(n, max_part=None):
    """The recursive enumeration ``partitions`` replaced; the order oracle."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def search_factorization(c):
    """Exhaustive oracle: the partition of the top degree whose tensor is c.

    Tries every partition of the top degree whose dimension product matches
    and asserts that at most one of them rebuilds c.  Returns None when none
    does.  Its cost grows with the partition count, so it is for small tops.
    """
    if c.dimension <= 1:
        return None
    matches = []
    for candidate in partitions(c.top_degree):
        prod = 1
        for part in candidate:
            prod *= part + 1
        if prod == c.dimension and c == tensor_character(
            [irrep_character(k) for k in candidate]
        ):
            matches.append(candidate)
    assert len(matches) <= 1, f"two factorizations of {c}: {matches}"
    return IrrepMultiset(matches[0]) if matches else None


def peel_or_none(c):
    try:
        return factor_tensor_of_irreps(c)
    except FactorizationError:
        return None


def sums_of_irreducibles(max_label, max_summands):
    for count in range(1, max_summands + 1):
        for labels in combinations_with_replacement(range(max_label + 1), count):
            poly = LaurentPoly()
            for k in labels:
                poly = poly + irrep_character(k).poly
            yield Character(poly)


def random_palindromic(rng, max_top):
    top = rng.randint(0, max_top)
    coeffs = {top: rng.randint(1, 2)}
    for k in range(top):
        coeffs[k] = rng.choice((0, 0, 1, 1, 1, 2, 2, 3))
    return Character(
        LaurentPoly({k: coeffs[abs(k)] for k in range(-top, top + 1)})
    )


class TestIrrepCharacter:
    def test_trivial(self):
        assert irrep_character(0) == char_of("1")

    def test_fundamental(self):
        assert irrep_character(1) == char_of("q + q^-1")

    def test_adjoint(self):
        assert irrep_character(2) == char_of("q^2 + 1 + q^-2")

    @pytest.mark.parametrize("n", range(0, 25))
    def test_dimension(self, n):
        assert irrep_character(n).dimension == n + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            irrep_character(-1)

    # Built dense, with no sparse polynomial of n + 1 terms on the way.
    def test_large_irreducible_is_one_tuple(self):
        tracemalloc.start()
        try:
            c = irrep_character(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.dimension == 10**6 + 1
        assert peak < 40 * 2**20


class TestCharacterInvariants:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            Character(LaurentPoly.parse("q - 1 + q^-1"))

    def test_rejects_non_palindromic(self):
        with pytest.raises(ValueError):
            Character(LaurentPoly.parse("q^2 + 1"))

    def test_top_degree(self):
        assert irrep_character(5).top_degree == 5

    @pytest.mark.parametrize(
        "text,message",
        [
            ("q - 1 + q^-1", "negative coefficient -1 at q^0"),
            ("q^2 + 1", "coefficient at q^2 (1) differs from q^-2 (0)"),
            ("1 + q^-2", "coefficient at q^-2 (1) differs from q^2 (0)"),
            ("q^3 - 2*q - 2*q^-1 + q^-3", "negative coefficient -2 at q^1"),
        ],
    )
    def test_refusal_names_first_bad_term(self, text, message):
        # the messages of the sparse check, which visited terms top down
        with pytest.raises(ValueError, match=re.escape(f"not a character: {message}")):
            Character(LaurentPoly.parse(text))

    @pytest.mark.parametrize(
        "text",
        [
            "q^2 + q + 1 + q^-1 + q^-2",  # mixed parity
            "q^3 + 2*q^2 + q + q^-1 + 2*q^-2 + q^-3",  # mixed, a gap at q^0
            "1",  # trivial
            "3",
            "q^4 + 2*q^2 + 2 + 2*q^-2 + q^-4",
            "0",  # zero
        ],
    )
    def test_dense_round_trip(self, text):
        poly = LaurentPoly.parse(text)
        c = Character(poly)
        assert c.poly == poly and str(c) == str(poly) == text
        assert c == Character(LaurentPoly.parse(text)) and c == char_of(str(c))
        assert hash(c) == hash(Character(LaurentPoly.parse(text)))
        terms = dict(poly.terms())
        assert c.dimension == sum(terms.values())
        top = poly.degree if poly else 0
        assert all(c.coefficient(k) == terms.get(k, 0) for k in range(-top - 3, top + 4))
        if poly:
            assert c.top_degree == top
        else:
            with pytest.raises(ValueError, match="^the zero polynomial has no degree$"):
                c.top_degree  # noqa: B018

    def test_equality_and_hash_tell_characters_apart(self):
        texts = ["1", "2", "q + q^-1", "q^2 + 1 + q^-2", "q^2 + 2 + q^-2",
                 "q^2 + q + 1 + q^-1 + q^-2", "0"]
        chars = [char_of(t) for t in texts]
        assert len(set(chars)) == len(texts)
        assert all((a == b) is (i == j) for i, a in enumerate(chars)
                   for j, b in enumerate(chars))
        assert char_of("1") != LaurentPoly({0: 1})


class TestTensorCharacter:
    def test_square_of_fundamental(self):
        c = tensor_character([irrep_character(1), irrep_character(1)])
        assert c == char_of("q^2 + 2 + q^-2")

    def test_single_factor(self):
        assert tensor_character([irrep_character(4)]) == irrep_character(4)

    def test_two_one(self):
        c = tensor_character([irrep_character(2), irrep_character(1)])
        assert c == char_of("q^3 + 2*q + 2*q^-1 + q^-3")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_character([])


class TestClebschGordan:
    def test_fundamental_squared(self):
        d = clebsch_gordan_decompose(char_of("q^2 + 2 + q^-2"))
        assert d == IrrepMultiset((2, 0))

    def test_irreducible_input(self):
        assert clebsch_gordan_decompose(irrep_character(5)) == IrrepMultiset((5,))

    def test_two_times_one(self):
        c = tensor_character([irrep_character(1), irrep_character(2)])
        assert clebsch_gordan_decompose(c) == IrrepMultiset((3, 1))

    def test_rejects_non_module_character(self):
        # q^2 + q^-2 misses the weight-0 string member: multiplicity of the
        # label-0 irrep would be -1
        with pytest.raises(ValueError, match="not a module character"):
            clebsch_gordan_decompose(char_of("q^2 + q^-2"))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reconstruction(self, n):
        for labels in partitions(n):
            c = tensor_character([irrep_character(k) for k in labels])
            acc = LaurentPoly()
            for label, mult in clebsch_gordan_decompose(c).counts():
                coeffs = irrep_character(label).poly
                for _ in range(mult):
                    acc = acc + coeffs
            assert acc == c.poly


class TestIrrepMultiset:
    def test_canonical_descending(self):
        assert IrrepMultiset((1, 3, 1)).labels == (3, 1, 1)

    def test_str_with_multiplicities(self):
        assert str(IrrepMultiset((3, 1, 1))) == "3,1^2"
        assert str(IrrepMultiset((2, 1))) == "2,1"
        assert str(IrrepMultiset((1, 1, 1))) == "1^3"

    def test_labels_may_come_from_an_iterator(self):
        # the labels are checked, then stored: an iterator is read once
        assert IrrepMultiset(lab for lab in (1, 3, 1)) == IrrepMultiset((1, 3, 1))
        assert IrrepMultiset(iter(())) == IrrepMultiset(())

    @pytest.mark.parametrize("labels", [(1.5,), (2, 1.0), ("3",)])
    def test_non_int_labels_rejected(self, labels):
        with pytest.raises(TypeError, match=r"^irreducible labels must be int, got .+$"):
            IrrepMultiset(labels)

    def test_bool_labels_rejected(self):
        with pytest.raises(TypeError, match=r"^irreducible labels must be int, got True$"):
            IrrepMultiset((2, True))


class TestFactorization:
    def test_two_one(self):
        c = char_of("q^3 + 2*q + 2*q^-1 + q^-3")
        assert factor_tensor_of_irreps(c) == IrrepMultiset((2, 1))

    def test_already_irreducible(self):
        assert factor_tensor_of_irreps(irrep_character(5)) == IrrepMultiset((5,))

    def test_fundamental_squared(self):
        # factors as a PRODUCT {1,1}; the CG decomposition {2,0} is the SUM
        c = char_of("q^2 + 2 + q^-2")
        assert factor_tensor_of_irreps(c) == IrrepMultiset((1, 1))
        assert clebsch_gordan_decompose(c) == IrrepMultiset((2, 0))

    def test_direct_sum_is_not_a_tensor(self):
        # char(3) + char(0): dimension 5 admits no product of (n_i + 1) with
        # the n_i summing to 3
        c = char_of("q^3 + q + 1 + q^-1 + q^-3")
        with pytest.raises(FactorizationError, match="not a tensor"):
            factor_tensor_of_irreps(c)

    def test_multiple_of_trivial_rejected(self):
        with pytest.raises(FactorizationError):
            factor_tensor_of_irreps(char_of("2"))

    def test_trivial_character_rejected(self):
        with pytest.raises(FactorizationError):
            factor_tensor_of_irreps(irrep_character(0))

    # The peeled labels are confirmed by rebuilding their product, so wrong
    # labels from the peel are refused, not returned.
    def test_labels_confirmed_by_rebuilding(self, monkeypatch):
        monkeypatch.setattr(sl2rep, "_peel_q_integers", lambda c: IrrepMultiset((1,)))
        with pytest.raises(FactorizationError, match="not a tensor"):
            factor_tensor_of_irreps(irrep_character(2))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_round_trip(self, n):
        for labels in partitions(n):
            c = tensor_character([irrep_character(k) for k in labels])
            assert factor_tensor_of_irreps(c).labels == labels

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("q^2 + q + q^-1 + q^-2", None),  # mixed parity
            ("2*q + 2*q^-1", None),  # leading coefficient 2
            ("q^4 + q^-4", None),  # no q^(N-2) term
            ("q^2 + 3 + q^-2", None),  # not a product of irreducibles
            ("q^2 + 1000000000 + q^-2", None),  # more factors than the top allows
            ("q^4 + 2*q^2 + 2 + 2*q^-2 + q^-4", "3,1"),
        ],
    )
    def test_peel_branches(self, text, expected):
        if expected is None:
            with pytest.raises(
                FactorizationError, match="not a tensor of nontrivial irreducibles"
            ):
                factor_tensor_of_irreps(char_of(text))
        else:
            assert str(factor_tensor_of_irreps(char_of(text))) == expected

    def test_peel_agrees_with_search_on_sums(self):
        compared = 0
        for c in sums_of_irreducibles(10, 3):
            assert peel_or_none(c) == search_factorization(c), str(c)
            compared += 1
        assert compared == 11 + 66 + 286

    def test_peel_agrees_with_search_on_random_characters(self):
        rng = random.Random(20240526)
        factored = 0
        for _ in range(20_000):
            c = random_palindromic(rng, 9)
            found = search_factorization(c)
            assert peel_or_none(c) == found, str(c)
            factored += found is not None
        assert factored > 100

    @pytest.mark.parametrize("n", range(1, 13))
    def test_characters_injective_at_fixed_sum(self, n):
        seen = {}
        for labels in partitions(n):
            c = tensor_character([irrep_character(k) for k in labels])
            assert c not in seen, f"{labels} and {seen[c]} share a character"
            seen[c] = labels


class TestPartitions:
    def test_of_four(self):
        assert list(partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero_has_empty_partition(self):
        assert list(partitions(0)) == [()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(partitions(-1))

    def test_counts(self):
        # p(1..10) = 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(list(partitions(n))) for n in range(1, 11)] == expected

    @pytest.mark.parametrize("n", range(0, 21))
    def test_agrees_with_recursive_enumeration(self, n):
        assert list(partitions(n)) == list(recursive_partitions(n))

    def test_many_parts_without_recursion(self):
        # 1^n, the last partition, is n calls deep for a recursive enumeration
        assert "partitions" not in partitions.__code__.co_names
        *_, last = partitions(30)
        assert last == (1,) * 30


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_dimension_multiplicativity(labels):
    c = tensor_character([irrep_character(k) for k in labels])
    expected = 1
    for k in labels:
        expected *= k + 1
    assert c.dimension == expected
    assert sum(coeff for _, coeff in c.poly.terms()) == expected


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_factorization_round_trip_random(labels):
    c = tensor_character([irrep_character(k) for k in labels])
    assert factor_tensor_of_irreps(c) == IrrepMultiset(tuple(labels))
