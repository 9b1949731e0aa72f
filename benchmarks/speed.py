"""Host-speed probe: scales measured times to a host of fixed speed.

The shared host this benchmark was written on switches between two speeds
about 45% apart, holding one for a tenth of a second or for over a minute;
process CPU time moves with wall time, so the host's cores, not waiting,
are what change.  A run of half a minute may see either speed or both, so
raw times of the same code spread by a fifth of their median across runs.

While the probe runs, a timer signal interrupts the main thread every
``INTERVAL_S`` and times ``reference_loop``, a fixed loop of small-integer
tuple arithmetic that shares no code with the library.  ``now()`` is a clock
that stops while the probe runs, and ``nominal(t0, t1)`` scales the time
between two of its readings by the mean of ``NOMINAL_S`` over each
reference time sampled within ``WINDOW_S`` of that interval: the seconds
the work would take on a host where the reference loop takes ``NOMINAL_S``.
The mean of ratios integrates speed over a long interval; a sample slowed
by a passing interruption pulls it by at most its own share.  A change
of the library moves these times as it moves raw times; a change of host
speed during a run cancels out.

Nothing here starts a thread or a process: the probe runs in signal handlers
of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.02
NOMINAL_S = 0.0003     # about the reference loop's time at the slower speed

_paused = 0.0          # seconds spent in the probe so far
_times = []            # now() at each sample
_loops = []            # reference-loop seconds of each sample


def reference_loop():
    """Products and gcd reductions of short integer vectors, 30 rounds."""
    a = (3, -1, 4, 1, -5, 9)
    b = (2, 7, -1, 8, 2, -8)
    acc = 1
    for r in range(30):
        prod = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y * (r + 1)
        g = 0
        for c in prod:
            g = _gcd(g, c)
        acc = (acc * 31 + g + len(set(prod))) % 1000003
    return acc


def _gcd(x, y):
    while y:
        x, y = y, x % y
    return abs(x)


def now():
    """perf_counter() minus the time spent in the probe."""
    while True:
        paused = _paused
        t = perf_counter()
        if paused == _paused:
            return t - paused


def _sample(_signum, _frame):
    global _paused
    t0 = perf_counter()
    reference_loop()
    t1 = perf_counter()
    _times.append(t0 - _paused)
    _loops.append(t1 - t0)
    _paused += t1 - t0


def start():
    _sample(None, None)
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def nominal(t0, t1):
    """Seconds of the work between now() readings t0 and t1, scaled to a
    host where the reference loop takes NOMINAL_S."""
    lo = bisect.bisect_left(_times, t0 - WINDOW_S)
    hi = bisect.bisect_right(_times, t1 + WINDOW_S)
    window = _loops[lo:hi] or _loops[max(lo - 1, 0):lo + 1]
    return (t1 - t0) * statistics.fmean(NOMINAL_S / x for x in window)

