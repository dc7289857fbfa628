"""The benchmark's view of a matrix module, kept in step with the library.

``bench/tracer.py`` notes the size of every module that ``verify_brackets``
checks, through the module's public attributes (``X``, ``Y``, ``H``, ``dim``
and ``RatMatrix.row_items``).  A traced run would break, or count the wrong
work, if those attributes changed; this test loads the tracer by path and
checks its reading against one computed here from the matrix entries.
Last, each benchmark workload runs for two traced seconds against this
library, so a change that breaks a request, an oracle or a tracer read
fails here too.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

from multiproj.lefschetz import build_cohomology_module, tensor_modules

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nonzeros(a):
    """Nonzero entries, found by reading every (i, j) of the stored rows."""
    return sum(1 for i in range(a.nrows) for j in range(a.ncols) if a._rows[i].get(j))


@pytest.mark.parametrize("parts", [(0,), (1,), (5,), (1, 1), (2, 1), (3, 2, 2)])
def test_module_size_reads_x_y_and_the_weights(tracer, parts):
    m = reduce(tensor_modules, map(build_cohomology_module, parts))
    diagonal = sum(1 for w in m.basis_weights if w)
    largest = max(Counter(m.basis_weights).values())
    expected = nonzeros(m.X) + nonzeros(m.Y) + diagonal, largest
    assert tracer._module_size((m,), None) == expected


def test_module_size_of_p1_squared(tracer):
    # X and Y have 2 + 2 nonzeros each, weights (2, 0, 0, -2) two nonzero ones
    m = tensor_modules(build_cohomology_module(1), build_cohomology_module(1))
    assert tracer._module_size((m,), None) == (10, 2)


@pytest.mark.parametrize("workload", ["compute", "cli"])
def test_benchmark_runs_correct_against_this_library(workload):
    # a traced run draws every request kind, the tracer's reads and the
    # oracles: a library change the benchmark cannot run on fails here
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
