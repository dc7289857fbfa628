"""Run one workload in this fresh interpreter and print one JSON line.

The load is a closed loop with one caller: the next request starts when the
previous one has been answered and checked.  Only the call is timed; drawing
the input and running the oracle happen outside the timed interval.  The
loop stops when the timed calls add up to ``--seconds``, after ``--count``
requests, or when the workload's inputs run out.

With ``--probes K`` the loop pauses K times, evenly over its timed seconds,
to start two child interpreters, one after the other: one times
``import multiproj`` (set-up), one runs the command line from cold.  Spread
over the run, these samples see the same host as the requests do.

Started by run.py, which sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Child interpreters cache bytecode, as an installed package does, so that
# set-up time is import work and not compilation of the source.
ENV = {key: value for key, value in os.environ.items()
       if key != "PYTHONDONTWRITEBYTECODE"} | {"PYTHONPATH": str(ROOT / "src")}
TIMEOUT_S = 170
# Samples per window of the tail latency (see tail_latency).
TAIL_WINDOW = 1000
TIME_IMPORT = ("import json, time; t = time.perf_counter(); import multiproj; "
               "print(json.dumps([time.perf_counter() - t, multiproj.__file__]))")


class BenchError(Exception):
    pass


def child(argv):
    """Run ``python argv`` in the checkout and wait for it."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=ENV,
                          cwd=ROOT, timeout=TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def check_origin(path):
    if ROOT / "src" not in Path(path).resolve().parents:
        raise BenchError(f"multiproj imported from {path}, not from {ROOT / 'src'}")


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import multiproj."""
    code, out, err = child(["-c", TIME_IMPORT])
    if code != 0:
        raise BenchError(f"import multiproj failed: {err.strip()[-2000:]}")
    seconds, path = json.loads(out)
    check_origin(path)
    return seconds


class Probes:
    """Set-up and cold-start samples taken between requests."""

    def __init__(self, count):
        self.count = count
        self.setup_s: list[float] = []
        self.cold_start_s: list[float] = []
        self.cold_start_ok = True
        self.golden = json.loads((HERE / "golden" / "cli.json").read_text())["cold_start"]

    def take(self):
        self.setup_s.append(setup_sample())
        start = perf_counter()
        code, out, _ = child(["-m", "multiproj", *self.golden["argv"]])
        self.cold_start_s.append(perf_counter() - start)
        self.cold_start_ok &= code == self.golden["exit"] and out == self.golden["stdout"]


class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.busy_by_kind: dict[str, float] = {}
        self.failures: list[str] = []
        self.labels: dict[int, str] = {}
        self.answers: list[tuple[str, object]] = []
        self.exhausted = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run(stream, seconds, count, tracer=None, probes=None) -> Outcome:
    """Issue requests from ``stream`` one at a time; check each answer."""
    out = Outcome()
    busy = 0.0
    while busy < seconds and out.attempted < count:
        if probes and len(probes.setup_s) < probes.count * busy / seconds:
            probes.take()
        if tracer:
            tracer.phase = "input"
        req = next(stream, None)
        if req is None:
            out.exhausted = True
            break
        index = out.attempted
        if tracer:
            tracer.request, tracer.phase = index, "request"
        answer = exc = None
        start = perf_counter()
        try:
            answer = req.call()
        except Exception as caught:  # the oracle decides whether it was expected
            exc = caught
        elapsed = perf_counter() - start
        busy += elapsed
        out.latencies.append(elapsed)
        out.busy_by_kind[req.kind] = out.busy_by_kind.get(req.kind, 0.0) + elapsed
        if tracer:
            tracer.phase = "oracle"
            out.answers.append((req.kind, answer))
        try:
            ok = req.check(answer, exc)
        except Exception as caught:
            ok, exc = False, caught
        if not ok:
            out.failures.append(f"{req.kind} request {index}: "
                                f"{'wrong answer' if exc is None else repr(exc)}")
        if req.label:
            out.labels[index] = req.label
    while probes and len(probes.setup_s) < probes.count:
        probes.take()
    return out


def tail(window):
    """The highest percentile of ``window`` with at least ten samples beyond
    it (or its largest sample, when there are too few): (seconds, percentile).
    """
    lat = sorted(window)
    index = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    return lat[index], 100 * (index + 1) / len(lat)


def tail_latency(latencies):
    """Median over the run's tail windows of each window's tail.

    The run's samples, in the order they were taken, are cut into
    ``len // TAIL_WINDOW`` consecutive windows of near-equal size (one window
    when there are fewer samples).  In a long run the tail of the whole run
    would be its tenth-largest sample, set by host hiccups; per window it
    stays near p99, set by the program.  Returns (seconds, the median
    window percentile, number of windows).
    """
    n = len(latencies)
    k = max(1, n // TAIL_WINDOW)
    tails = [tail(latencies[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return (statistics.median(s for s, _ in tails),
            statistics.median(p for _, p in tails), k)


def summary(out: Outcome) -> dict:
    lat = sorted(out.latencies)
    n = len(lat)
    tail_s, tail_percentile, tail_windows = (
        tail_latency(out.latencies) if lat else (0.0, 0.0, 0))
    busy = sum(lat)
    return {
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures[:5],
        "busy_s": busy,
        "busy_s_by_kind": out.busy_by_kind,
        "ops_per_s": n / busy if busy else 0.0,
        "latency_p50_ms": 1000 * statistics.median(lat) if lat else 0.0,
        "latency_tail_ms": 1000 * tail_s,
        "tail_percentile": tail_percentile,
        "tail_windows": tail_windows,
        "pool_exhausted": out.exhausted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--count", type=int, default=sys.maxsize)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    import multiproj
    import_s = perf_counter() - start
    check_origin(multiproj.__file__)

    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(multiproj)
    probes = Probes(args.probes) if args.probes else None
    out = run(workloads.requests(args.workload, args.seed), args.seconds,
              args.count, tracer, probes)
    result = summary(out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["setup_s"] = [import_s, *(probes.setup_s if probes else ())]
    if probes:
        result["cold_start_s"] = probes.cold_start_s
        result["cold_start_ok"] = probes.cold_start_ok
    if tracer:
        result["per_layer"] = tracing.per_layer(tracer.spans, out.labels, out.answers)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
