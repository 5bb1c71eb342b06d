"""Pinning to the fastest allowed CPU before each timed item.

On a small virtual machine each virtual CPU runs at one of several speeds for
10-20 seconds at a time, depending on what else shares the host, and the two
CPUs change speed independently.  A short probe loop on every allowed CPU
picks the one that is fastest now; the timed work then runs there.  The work
still runs on one thread and its wall time is measured as is.
"""

import os
import time

_PROBE_ITERATIONS = 5000


def _probe():
    s = 0.0
    for i in range(_PROBE_ITERATIONS):
        s += (i * 0.5) ** 0.5
    return s


def pin_to_fastest(cpus):
    """Pin this process to the CPU of ``cpus`` on which the probe runs fastest.

    Returns the probe time on that CPU, in seconds.
    """
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]
