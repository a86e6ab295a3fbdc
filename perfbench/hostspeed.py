"""Host speed, from a fixed reference kernel timed between operations.

On a shared machine the speed of a core drifts by up to a factor of two over
seconds to minutes as other tenants load the host, and process CPU time
drifts with it (no time is stolen; the core just runs slower), so
neither wall nor CPU time repeats from run to run. The benchmark times a
small pure-Python kernel, which touches no milnor code, at least every
SAMPLE_EVERY_S seconds between operations, and multiplies each measured
time by (NOMINAL_S / kernel time around it) ** EXPONENT.

This is a regression adjustment on a covariate, in log space. On the
2-core host the baseline was measured on, the operations of every
workload slowed by about the 0.4th to 0.8th power of the kernel's
slowdown, depending on the spell (fitted log-log slopes of single
operations 0.42-0.57; over whole 15-second runs of labels and certify,
exponents 0.7-0.8 left the least run-to-run spread), hence EXPONENT.
The factor does not depend on milnor, so a change to milnor moves a
scaled time by the same ratio as the raw one.
"""

import bisect
import math
import time

#: The kernel's time on an unloaded core of the 2-core Xeon host the
#: baseline was measured on; scaled times there read as raw times.
NOMINAL_S = 4.0e-4
EXPONENT = 0.7
SAMPLE_EVERY_S = 0.1
REACH_S = 0.3

_at = []
_seconds = []


def _kernel():
    acc, x, table = 1, 0.5, {}
    for i in range(1500):
        acc = (acc * 1103515245 + 12345) % 2147483648
        x = math.sqrt(x * x + 1.0) - 0.5 * x
        table[acc & 63] = x
    return acc, len(table)


def sample(count=1):
    """Take `count` samples. A sample times the kernel three times and
    keeps the fastest, which a single interrupt does not inflate."""
    for _ in range(count):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        _at.append(time.perf_counter())
        _seconds.append(best)


def maybe_sample():
    if not _at or time.perf_counter() - _at[-1] >= SAMPLE_EVERY_S:
        sample()


def factor(start, end):
    """The scale factor for a time measured from `start` to `end`, from
    the mean kernel time of the samples taken within REACH_S of it, and
    at least of the last sample before it and the first after it."""
    lo = min(bisect.bisect_left(_at, start - REACH_S),
             max(bisect.bisect_right(_at, start) - 1, 0))
    hi = max(bisect.bisect_right(_at, end + REACH_S),
             bisect.bisect_left(_at, end) + 1)
    window = _seconds[lo:hi] or _seconds[-1:]
    return (NOMINAL_S * len(window) / sum(window)) ** EXPONENT


def samples():
    return list(_seconds)
