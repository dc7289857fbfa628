"""Benchmark of multiproj: one workload, one seed, one run.

    python3 bench/run.py --workload compute --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
BENCHMARK.json lists the workloads ``compute`` and ``cli``; ``classify``,
``betti`` and ``lefschetz`` run the three kinds of compute request alone
(see bench/README.md).  Every request is checked against an oracle.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  The
workload runs in a fresh worker interpreter for ``--seconds`` seconds of
timed calls; between requests the worker starts child interpreters, one at
a time, to sample set-up and cold-start time.

``--trace 1`` prints the per-layer metrics.  A fresh worker runs the
workload's fixed number of traced requests untraced, then another fresh
worker replays them with spans recorded; the difference between the two is
the tracing overhead.

The last line of stdout is the result: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record.  Any error exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

from worker import HERE, ROOT, BenchError, child, setup_sample

# Set-up and cold-start samples taken in a --trace 0 run; each metric
# reports the median.
PROBES = 24
# Requests in a traced run, rungs included: fixed, so that the per-layer
# metrics of two versions cover the same inputs.
TRACE_REQUESTS = {"compute": 121, "cli": 290,
                  "classify": 150, "betti": 23, "lefschetz": 16}
# Share of --seconds an untraced worker may spend before a traced replay.
TRACE_SHARE = 0.4


def worker(workload, seed, seconds, trace, count=None, probes=0):
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--probes", str(probes)]
    if count is not None:
        argv += ["--count", str(count)]
    code, out, err = child(argv)
    if code != 0:
        raise BenchError(f"worker failed (exit {code}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, or None outside a git working tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              cwd=ROOT, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.decode().strip() or None


def measure(args, record):
    """End-to-end metrics (--trace 0)."""
    setup_sample()  # writes the bytecode cache, so no sample pays compilation
    run = worker(args.workload, args.seed, args.seconds, 0, probes=PROBES)
    record.update(
        samples=run["attempted"],
        tail_percentile=run["tail_percentile"],
        tail_windows=run["tail_windows"],
        setup_samples_s=run["setup_s"],
        cold_start_samples_ms=[1000 * s for s in run["cold_start_s"]],
        cold_start_output_ok=run["cold_start_ok"],
        busy_s=run["busy_s"],
        busy_s_by_kind=run["busy_s_by_kind"],
        pool_exhausted=run["pool_exhausted"],
        tracing_overhead=None,
    )
    metrics = {
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": run["latency_p50_ms"],
        "latency_tail_ms": run["latency_tail_ms"],
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "cold_start_ms": 1000 * statistics.median(run["cold_start_s"]),
    }
    return metrics, [run], run["cold_start_ok"]


def trace(args, record):
    """Per-layer metrics (--trace 1) and the tracing overhead."""
    setup_sample()  # writes the bytecode cache
    count = TRACE_REQUESTS[args.workload]
    plain = worker(args.workload, args.seed, TRACE_SHARE * args.seconds, 0, count)
    traced = worker(args.workload, args.seed, 3 * args.seconds, 1, plain["attempted"])
    if traced["attempted"] != plain["attempted"]:
        raise BenchError("the traced replay did not finish the untraced requests")
    record.update(
        samples=traced["attempted"],
        tail_percentile=None,
        tail_windows=None,
        setup_samples_s=plain["setup_s"] + traced["setup_s"],
        spans=traced["spans"],
        pool_exhausted=plain["pool_exhausted"],
        tracing_overhead={
            "untraced_s": plain["busy_s"],
            "traced_s": traced["busy_s"],
            "overhead_s": traced["busy_s"] - plain["busy_s"],
            "overhead_share": traced["busy_s"] / plain["busy_s"] - 1,
        },
    )
    return traced["per_layer"], [plain, traced], True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_REQUESTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "multiproj" / "__init__.py").is_file():
            raise BenchError(f"no package source at {ROOT / 'src' / 'multiproj'}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": commit(),
            "source_sha256": source_digest(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(),
        }
        values, runs, ok = (trace if args.trace else measure)(args, record)
        listed = spec["per_layer" if args.trace else "end_to_end"]
        if set(values) != {m["name"] for m in listed}:
            raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark error: {exc}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record["failed_frac"] = failed / attempted if attempted else 1.0
    record["failures"] = [f for r in runs for f in r["failures"]][:5]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{args.workload:<10} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<10} {'failed_frac':<28} {record['failed_frac']:>14.6g}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
