"""The benchmark's classify oracle counts a wrong factorization as a wrong
answer, not as an exception.

The wrong verdict is built through ``ClassificationVerdict``'s constructor:
the result types are not dataclasses, so ``dataclasses.replace`` would raise
TypeError inside the timed call, and the benchmark would count that failure
whatever its oracle checks.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load("worker"), load("workloads")


def test_wrong_factorization_is_a_wrong_answer(bench):
    worker, workloads = bench
    requests = list(islice(workloads.requests("classify", 7), 2))
    real = requests[0].call
    v = real()
    assert v.factorization1 != v.factorization2

    requests[0].call = lambda: type(v)(
        v.verdict, v.reason, v.partition1, v.partition2,
        v.character1, v.character2, v.factorization2, v.factorization2,
    )
    summary = worker.summary(worker.run(iter(requests), seconds=60, count=2))
    assert summary["failed"] == 1
    assert summary["failures"] == ["classify request 0: wrong answer"]
