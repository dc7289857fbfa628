"""The tail latency follows the program, not a few host hiccups.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402


def test_short_run_is_one_window():
    # 100 samples: the tail is the 11th largest, p90.
    seconds, percentile, windows = worker.tail_latency([i / 1000 for i in range(100)])
    assert (seconds, percentile, windows) == (0.089, 90.0, 1)


def test_hiccups_do_not_set_the_tail_of_a_long_run():
    # Every tenth request takes 7 ms, the rest 2 ms; 12 hiccups of 50 ms in
    # the first window would be the tail of the run taken as one window.
    latencies = [0.007 if i % 10 == 0 else 0.002 for i in range(20000)]
    for i in range(1, 120, 10):
        latencies[i] = 0.050
    seconds, percentile, windows = worker.tail_latency(latencies)
    assert windows == 20
    assert sorted(latencies)[-11] == 0.050
    assert seconds == 0.007 and percentile == 99.0
