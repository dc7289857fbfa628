"""Seeded request streams for the workloads, each request with its oracle.

A request is a call into the package (timed) plus a check of what it
returned or raised (not timed).  ``requests(workload, seed)`` yields them in
order: first the ladder rungs, which are the same in every run, then inputs
drawn from the seed.  No input repeats within a run, except in ``cli``,
which cycles through a fixed set of invocations with golden outputs.  The
request generator runs outside the timed interval.

Costs differ a lot between inputs (``poincare_polynomial`` grows like n^4),
so the seed does not pick inputs independently: every run, whatever its
seed or length, does a similar mix of cheap and costly requests.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from itertools import count, islice, product
from pathlib import Path

from multiproj import classifier, cli, lefschetz, sl2rep, symcurve

GOLDEN = Path(__file__).with_name("golden") / "cli.json"


class Request:
    """One timed call and its oracle.

    ``call()`` does the work; ``check(answer, exc)`` says whether the answer,
    or the exception, is the one the oracle expects.
    """

    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, call, check, label=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.label = label


def requests(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return _STREAMS[workload](rng)


def _blocks(rng, values):
    """Endless shuffled passes over ``values``."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


_PHI = (math.sqrt(5) - 1) / 2


def _spread(rng, pool, key):
    """Every item of ``pool`` once, each prefix spread evenly over its costs.

    The items are sorted by the cost proxy ``key`` and visited along a
    golden-ratio sequence from a seeded start, so that the first k requests
    sample the cost ranking evenly for every k, whatever the seed.
    """
    ordered = sorted(pool, key=key)
    n = len(ordered)
    taken = [False] * n
    start = rng.random()
    for k in range(n):
        i = int((start + k * _PHI) % 1 * n)
        while taken[i]:
            i = (i + 1) % n
        taken[i] = True
        yield ordered[i]


# ------------------------------------------------------------------ classify

CLASSIFY_TOPS = range(24, 41)
CLASSIFY_RUNGS = {
    "top24": ((10, 8, 6), (12, 7, 5)),
    "top32": ((14, 10, 8), (16, 9, 7)),
    "top40": ((18, 12, 10), (20, 11, 9)),
}


def _partitions(n, most, largest):
    """Partitions of n into at most ``most`` parts, none above ``largest``."""
    if n == 0:
        yield ()
        return
    if most == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, most - 1, first):
            yield (first, *rest)


def _classify_request(p1, p2, label=None):
    def check(verdict, exc):
        expected = "ISOMORPHIC" if p1 == p2 else "NON_ISOMORPHIC"
        return (exc is None and verdict.verdict.value == expected
                and verdict.factorization1.labels == p1.parts
                and verdict.factorization2.labels == p2.parts)

    return Request("classify", lambda: classifier.classify(p1, p2), check, label)


def _is_prime(k):
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


def _reject_request(labels):
    """A character of prime dimension with 2 or 3 summands: it cannot factor.

    A tensor product of nontrivial irreducibles of prime dimension has one
    factor, so it is irreducible; these characters are not.
    """
    poly = sum((sl2rep.irrep_character(k).poly for k in labels[1:]),
               sl2rep.irrep_character(labels[0]).poly)
    character = sl2rep.Character(poly)

    def check(answer, exc):
        return isinstance(exc, sl2rep.FactorizationError)

    return Request("reject", lambda: sl2rep.factor_tensor_of_irreps(character), check)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _classify_stream(rng):
    """Rungs, then inputs drawn without replacement; ends when a pool runs dry.

    Pairs come from the partitions of n with 2..6 parts; every tenth request
    is a reject whose labels (top, b) or (top, b, c), b > c, have prime
    dimension sum.
    """
    pairs = {n: _shuffled(rng, (p for p in _partitions(n, 6, n) if len(p) > 1))
             for n in CLASSIFY_TOPS}
    rejects = {top: _shuffled(rng, (labels for labels in _reject_labels(top)
                                    if _is_prime(sum(k + 1 for k in labels))))
               for top in CLASSIFY_TOPS}
    for label, (a, b) in CLASSIFY_RUNGS.items():
        for parts in (a, b):
            pairs[sum(parts)].remove(parts)
        yield _classify_request(classifier.Partition(a), classifier.Partition(b), label)
    tops, reject_tops = _blocks(rng, CLASSIFY_TOPS), _blocks(rng, CLASSIFY_TOPS)
    for i in count():
        if i % 10 == 9:
            pool = rejects[next(reject_tops)]
            if not pool:
                return
            yield _reject_request(pool.pop())
            continue
        pool = pairs[next(tops)]
        if len(pool) < 2:
            return
        p1 = classifier.Partition(pool.pop())
        p2 = p1 if rng.random() < 0.25 else classifier.Partition(pool.pop())
        yield _classify_request(p1, p2)


def _reject_labels(top):
    """(top, b) and (top, b, c) with top > b > c >= 0."""
    for b in range(top):
        yield top, b
        for c in range(b):
            yield top, b, c


# --------------------------------------------------------------------- betti

BETTI_RUNG_GENUS = 5
BETTI_RUNGS = {"n40": 40, "n80": 80, "n120": 120}


def _betti_request(g, n, label=None):
    def check(pp, exc):
        return (exc is None and pp.n == n
                and list(pp.betti) == [symcurve.betti_closed(g, n, r)
                                       for r in range(2 * n + 1)]
                and pp.total() == symcurve.total_dim_cohomology(g, n))

    return Request("betti", lambda: symcurve.poincare_polynomial(g, n), check, label)


def _betti_stream(rng):
    for label, n in BETTI_RUNGS.items():
        yield _betti_request(BETTI_RUNG_GENUS, n, label)
    rungs = {(BETTI_RUNG_GENUS, n) for n in BETTI_RUNGS.values()}
    pool = [(g, n) for g in range(1, 11) for n in range(20, 121) if (g, n) not in rungs]
    for g, n in _spread(rng, pool, key=lambda gn: (gn[1], gn[0])):
        yield _betti_request(g, n)


# ----------------------------------------------------------------- lefschetz


def _tensor_request(parts):
    def call():
        m = reduce(lefschetz.tensor_modules,
                   [lefschetz.build_cohomology_module(k) for k in parts])
        return (lefschetz.verify_brackets(m), lefschetz.module_character(m),
                lefschetz.highest_weight_multiplicities(m))

    def check(answer, exc):
        if exc is not None:
            return False
        report, character, hw = answer
        expected = classifier.cohomology_character(classifier.Partition(parts))
        summands = dict(sl2rep.clebsch_gordan_decompose(expected).counts())
        return report.all_pass and character == expected and hw == summands

    return Request("tensor", call, check)


def _single_request(n):
    def call():
        m = lefschetz.build_cohomology_module(n)
        return lefschetz.verify_brackets(m), lefschetz.is_irreducible(m)

    def check(answer, exc):
        return exc is None and answer[0].all_pass and answer[1] is True

    return Request("single", call, check)


def _lefschetz_stream(rng):
    tensors = [t for r in (3, 4) for t in product(range(2, 6), repeat=r)]
    by_dim = lambda t: (math.prod(k + 1 for k in t), t)
    tensor_stream = _spread(rng, tensors, key=by_dim)
    single_stream = _spread(rng, range(100, 401), key=int)
    for parts, n in zip(tensor_stream, single_stream):
        yield _tensor_request(parts)
        yield _single_request(n)


# ------------------------------------------------------------------- compute

# One round: 20 classify-stream requests (2 of them rejects), one betti, one
# tensor and one single-P^n request, so that no kind's time dominates; the
# run record gives each kind's share.
_ROUND = (("classify", 20), ("betti", 1), ("lefschetz", 2))


def _compute_stream(rng):
    """The three compute workloads interleaved, their rungs first."""
    streams = {name: _STREAMS[name](rng) for name, _ in _ROUND}
    yield from islice(streams["classify"], len(CLASSIFY_RUNGS))
    yield from islice(streams["betti"], len(BETTI_RUNGS))
    while True:
        round_ = [req for name, k in _ROUND for req in islice(streams[name], k)]
        if len(round_) < sum(k for _, k in _ROUND):
            return
        yield from round_


# ----------------------------------------------------------------------- cli


def _run_cli(argv):
    """``cli.main(argv)`` in-process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _cli_request(case):
    argv, exit_code, stdout = case["argv"], case["exit"], case["stdout"].encode()

    def check(answer, exc):
        return exc is None and answer[0] == exit_code and answer[1].encode() == stdout

    return Request("cli", lambda: _run_cli(argv), check)


def _cli_stream(rng):
    requests = [_cli_request(case) for case in json.loads(GOLDEN.read_text())["cases"]]
    yield from _blocks(rng, requests)


_STREAMS = {
    "classify": _classify_stream,
    "betti": _betti_stream,
    "lefschetz": _lefschetz_stream,
    "compute": _compute_stream,
    "cli": _cli_stream,
}
