"""Host-speed sampler: a fixed kernel timed on the benchmark's core during the run.

On a shared host the speed of a core switches, second by second, between two
levels up to about 1.9x apart, and the share of slow seconds changes for
minutes at a time with other tenants' load. An op that runs in a slow period
reads slower although the code did not change. So while a run measures, this
process, pinned to the same core as the ops, times a short fixed kernel every
``PERIOD_S`` seconds; run.py scales each measured wall time by
``(REFERENCE_S / mean(kernel time during that interval)) ** SENSITIVITY``,
the time the interval would have taken on a core where the kernel takes
``REFERENCE_S``.

The kernel mixes the two kinds of work the package's ops do: small numpy
expressions issued from a Python loop (like basis tabulation and assembly)
and plain interpreter arithmetic. It does not use the package, so no change
to the package can change it. It takes about 2% of the core.

    python3 perfbench/calibrate.py

samples until its stdin is closed, then prints one JSON list of
[start_s, kernel_s] pairs (``time.perf_counter`` clock, which is shared by
the processes of one machine).
"""

import json
import select
import sys
import time

import numpy as np

# Median kernel time while sampling an idle core of the reference host
# (2-core Xeon guest, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0010
# The ops slow down more than the kernel in the slow state: over 20 runs of
# three workloads on the reference host, log(op time) against log(mean kernel
# time during the op) has slope 1.2, and this exponent removes that residual.
SENSITIVITY = 1.2
PERIOD_S = 0.05

_X = np.linspace(0.0, 1.0, 32)
_W = np.ones(32)


def sample():
    """Seconds for one pass of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(8):
        B = np.array([_X ** n * (1.0 - _X) ** (10 - n) for n in range(11)])
        (B * _W) @ B.T
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - t0


def main():
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        samples.append([start, sample()])
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
