"""Machine-speed calibration for the timed operations.

The benchmark runs on a small share of a shared host whose speed drifts by
up to about 2x over seconds to minutes as other tenants load it.  The drift
shows in CPU time as much as in wall time, so neither can be gated on
directly.  The speed is therefore measured with a short fixed unit of
interpreter-bound work (a pure-Python arithmetic loop and scalar bisection
with ``math.tanh``, like the suite's root finders): a few units run
between operations, and one runs every ``PERIOD_S`` during an operation,
from a timer signal, with its time taken out of the operation's.  An
operation's time is then scaled by ``REFERENCE_S`` over the mean unit time
around and inside it.  The scaled times are seconds at the reference
speed: the speed at which a unit takes ``REFERENCE_S``, its quickest time
on a 2-vCPU Intel Xeon virtual machine.  The unit is the benchmark's own
code, so a change to the program moves the scaled times and leaves the
unit times alone.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

# the quickest unit time in 600 runs on the reference machine
REFERENCE_S = 0.00255
BRACKET = 3         # units run between two operations
PERIOD_S = 0.1      # one unit per period while an operation runs


def unit() -> float:
    """Fixed interpreter-bound work; returns a value so nothing is skipped."""
    acc = 0.0
    for i in range(30000):
        acc += (i % 7) * 0.5
    for k in range(30):
        beta = 1.5 + 0.016 * k
        lo, hi = 1e-8, 1.0
        f_lo = lo - math.tanh(beta * lo)
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            f_mid = mid - math.tanh(beta * mid)
            if f_lo * f_mid < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        acc += lo
    return acc


def unit_seconds() -> float:
    t = time.perf_counter()
    unit()
    return time.perf_counter() - t


class Speed:
    """Times calls and scales them to the reference speed.

    The units run before a call, during it and after it estimate the
    machine's speed over the call.  The units after one call serve as the
    units before the next.
    """

    def __init__(self):
        self.before = [unit_seconds() for _ in range(BRACKET)]

    @contextmanager
    def measure(self, sample=True):
        """Time the body; the yielded dict then holds ``seconds`` (the time
        less that of the units run inside) and ``scaled``.

        With ``sample`` a SIGALRM handler runs one unit every ``PERIOD_S``;
        turn it off while spans are recorded.
        """
        got, inside, spent = {}, [], [0.0]

        def tick(signum, frame):
            t = time.perf_counter()
            inside.append(unit_seconds())
            spent[0] += time.perf_counter() - t

        if sample:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t = time.perf_counter()
        try:
            yield got
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            got["seconds"] = time.perf_counter() - t - spent[0]
            after = [unit_seconds() for _ in range(BRACKET)]
            mean_unit = statistics.fmean(self.before + inside + after)
            got["scaled"] = got["seconds"] * REFERENCE_S / mean_unit
            self.before = after
