"""The benchmark counts a wrong answer as failed.

Wrong answers are substituted inside the benchmark, by replacing a request's
call; the package is not touched.

    python3 -m pytest bench/tests
"""

import dataclasses
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402


def first(workload, n, seed=7):
    return list(islice(workloads.requests(workload, seed), n))


def run(requests):
    return worker.summary(worker.run(iter(requests), seconds=60, count=len(requests)))


def failed_frac(summary):
    return summary["failed"] / summary["attempted"]


def test_correct_answers_do_not_fail():
    summary = run(first("cli", 29) + first("classify", 2))
    assert summary["attempted"] == 31
    assert failed_frac(summary) == 0


def test_wrong_cli_output_fails():
    requests = first("cli", 29)
    real = requests[3].call
    requests[3].call = lambda: (real()[0], real()[1] + " ")
    summary = run(requests)
    assert summary["failed"] == 1
    assert failed_frac(summary) > 0


def test_wrong_exit_code_fails():
    requests = first("cli", 29)
    real = requests[0].call
    requests[0].call = lambda: (real()[0] + 1, real()[1])
    assert failed_frac(run(requests)) > 0


def test_wrong_factorization_fails():
    requests = first("classify", 2)
    real = requests[0].call
    requests[0].call = lambda: dataclasses.replace(
        real(), factorization1=real().factorization2)
    summary = run(requests)
    assert summary["failed"] == 1
    assert failed_frac(summary) == 0.5


def test_missing_or_unexpected_exception_fails():
    rejects = [r for r in first("classify", 13) if r.kind == "reject"]
    assert rejects
    rejects[0].call = lambda: None  # a reject request must raise
    betti = first("betti", 1)
    betti[0].call = lambda: 1 // 0  # no betti request may raise
    summary = run(rejects + betti)
    assert summary["failed"] == 2
    assert failed_frac(summary) == 1
