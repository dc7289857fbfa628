"""Acceptance gate: the ten headline guarantees, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every check is exact (zero tolerance); the only non-exact
quantities here are the wall-clock budgets.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from multiproj.classifier import (
    Partition,
    ProjPoint,
    Reason,
    Verdict,
    classify,
    cohomology_character,
    sym2_p1_map,
)
from multiproj.lefschetz import (
    build_cohomology_module,
    is_irreducible,
    tensor_modules,
    verify_brackets,
)
from multiproj.sl2rep import (
    factor_tensor_of_irreps,
    irrep_character,
    partitions,
    tensor_character,
)
from multiproj.symcurve import (
    betti_closed,
    dim_sym_of_cohomology,
    poincare_genus_zero,
    poincare_via_series,
    total_dim_cohomology,
)


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(
            f"criterion {number}: FAIL ({description}) "
            f"-- {elapsed:.2f}s exceeds the {budget_seconds}s budget"
        )
        raise AssertionError(
            f"criterion {number} overran its budget: "
            f"{elapsed:.2f}s >= {budget_seconds}s"
        )
    print(f"criterion {number}: PASS ({description}) [{elapsed:.2f}s]")


def tensor_of(parts):
    return tensor_modules(*map(build_cohomology_module, parts))


def test_criterion_01_examples_table():
    expected = {
        (1, 2): (8, 10),
        (1, 3): (12, 20),
        (2, 2): (17, 21),
        (2, 3): (32, 56),
        (2, 5): (64, 252),
    }
    with criterion(1, "worked-example dimension table", 1.0):
        for (g, n), (total, sym) in expected.items():
            assert total_dim_cohomology(g, n) == total, (g, n)
            assert dim_sym_of_cohomology(g, n) == sym, (g, n)


def test_criterion_02_series_matches_closed_form():
    with criterion(2, "series == closed form, g <= 5, n <= 30", 10.0):
        for g in range(1, 6):
            for n in range(1, 31):
                pp = poincare_via_series(g, n)
                for r, b in enumerate(pp.betti):
                    assert b == betti_closed(g, n, r), (g, n, r)
                    assert b == pp.betti[2 * n - r], (g, n, r)


def test_criterion_03_genus_zero_equality():
    with criterion(3, "genus-0: both dimension counts equal n+1, n <= 100", 1.0):
        for n in range(1, 101):
            assert poincare_genus_zero(n).total() == n + 1
            assert dim_sym_of_cohomology(0, n) == n + 1


def test_criterion_04_genus_obstruction():
    with criterion(4, "strict inequality for g >= 1, n >= 2", 1.0):
        for g in range(1, 11):
            for n in range(2, 31):
                assert total_dim_cohomology(g, n) < dim_sym_of_cohomology(g, n)


def test_criterion_05_bracket_relations():
    with criterion(5, "bracket relations, n <= 50 and all tensors n <= 10", 30.0):
        for n in range(0, 51):
            assert verify_brackets(build_cohomology_module(n)).all_pass, n
        for n in range(1, 11):
            for parts in partitions(n):
                assert verify_brackets(tensor_of(parts)).all_pass, parts


def test_criterion_06_irreducibility():
    with criterion(6, "irreducibility exactly for single factors", 30.0):
        for n in range(0, 51):
            assert is_irreducible(build_cohomology_module(n)), n
        for n in range(1, 11):
            for parts in partitions(n):
                if len(parts) >= 2:
                    assert not is_irreducible(tensor_of(parts)), parts


def test_criterion_07_factorization_round_trip():
    with criterion(7, "factorization round-trip + injectivity, sum <= 20", 60.0):
        for n in range(1, 21):
            seen = {}
            for labels in partitions(n):
                c = tensor_character([irrep_character(k) for k in labels])
                assert factor_tensor_of_irreps(c).labels == labels
                assert c not in seen, (labels, seen.get(c))
                seen[c] = labels
            if n == 20:
                assert len(seen) == 627  # p(20): the sum-exactly-20 slice


def test_criterion_08_classification():
    with criterion(8, "classification of all partition pairs, n <= 15", 60.0):
        for n in range(1, 16):
            plist = [Partition(parts) for parts in partitions(n)]
            for p in plist:
                v = classify(p, Partition(tuple(reversed(p.parts))))
                assert v.verdict is Verdict.ISOMORPHIC
                assert v.factorization1.labels == p.parts
            for i in range(len(plist)):
                for j in range(i + 1, len(plist)):
                    v = classify(plist[i], plist[j])
                    assert v.verdict is Verdict.NON_ISOMORPHIC
                    assert v.reason is Reason.DISTINCT_CHARACTERS
                    assert v.factorization1.labels == plist[i].parts
                    assert v.factorization2.labels == plist[j].parts


def test_criterion_09_sym2_map():
    rng = random.Random(427)

    def rand_point():
        while True:
            coords = (
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
            )
            if any(coords):
                return ProjPoint(coords)

    with criterion(9, "Sym^2 map: symmetry, equivariance, non-vanishing", 5.0):
        e0, e1 = ProjPoint((1, 0)), ProjPoint((0, 1))
        for z in (e0, e1):
            for w in (e0, e1):
                assert any(sym2_p1_map(z, w).coords)
        assert sym2_p1_map(e0, e1) == ProjPoint((0, 0, 1))
        for _ in range(10_000):
            z, w = rand_point(), rand_point()
            image = sym2_p1_map(z, w)
            assert any(image.coords)
            assert image == sym2_p1_map(w, z)
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = ProjPoint(tuple(s * c for c in z.coords))
            assert sym2_p1_map(scaled, w) == image


# every documented example invocation, with its expected exit code
_CLI_CASES = [
    (0, ("classify", "2,1", "1,1,1")),
    (0, ("classify", "1,2", "2,1")),
    (2, ("classify", "2,0", "1,1")),
    (0, ("betti", "--genus", "1", "--n", "2")),
    (0, ("betti", "--genus", "0", "--n", "3")),
    (0, ("betti", "--genus", "2", "--n", "5", "--sum")),
    (0, ("dims", "--genus", "2", "--n", "3")),
    (0, ("dims", "--genus", "0", "--n", "9")),
    (0, ("dims", "--genus", "1", "--n", "2")),
    (0, ("factor", "--partition", "2,1")),
    (0, ("factor", "--char", "q^2 + 2 + q^-2")),
    (1, ("factor", "--char", "q^3 + q^-3")),
    (0, ("factor", "--roundtrip", "20")),
    (0, ("lefschetz-check", "25")),
    (0, ("lefschetz-check", "--partition", "2,1")),
    (0, ("lefschetz-check", "0")),
    (0, ("table", "--genus", "1..2", "--n", "2..5")),
    (0, ("table", "--genus", "1..1", "--n", "2..2")),
    (2, ("table", "--genus", "2..1", "--n", "2..2")),
]


def test_criterion_10_cli_determinism():
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "multiproj", *args], capture_output=True
        )

    with criterion(10, "CLI determinism and exit-code contract"):
        for expected_code, args in _CLI_CASES:
            first = run(args)
            second = run(args)
            assert first.returncode == expected_code, (args, first.stderr)
            assert second.returncode == expected_code, args
            assert first.stdout == second.stdout, args
        # machine formats stay parseable and identical across runs
        doc = run(("classify", "2,1", "1,1,1", "--format", "json"))
        assert json.loads(doc.stdout) == json.loads(
            run(("classify", "2,1", "1,1,1", "--format", "json")).stdout
        )
