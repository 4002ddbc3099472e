"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants, the same pure-Python computation can
run up to 2x faster or slower from one minute to the next, and CPU time
drifts as much as wall time.  The harness therefore times this fixed loop
before every decision and scales each decision's wall time by NOMINAL_MS
divided by the loop's time around it: the result reads as milliseconds at
the speed at which the loop takes NOMINAL_MS.  The loop does what
evainject's hot paths do (Fraction arithmetic, small slotted objects,
modular ints, dicts keyed by tuples) and touches no evainject code, so a
change to the program moves the scaled times and a change in machine speed
mostly does not.  What is left is a few percent: over runs of several
minutes, the scaled median of a run-sized stretch of decisions moved by
-4% to +2.4% between the fastest and the slowest third of the stretches,
while the raw median moved by 14-66% (perfbench/README.md).
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_MS = 0.7    # about the loop's time on a 2-core x86-64 host, Python 3.11
WINDOW = 8          # loop timings on each side of a decision that set its scale


class _Elem:
    __slots__ = ("spec", "value")

    def __init__(self, spec, value):
        self.spec = spec
        self.value = value

    def __add__(self, other):
        return _Elem(self.spec, (self.value + other.value) % 7)

    def __mul__(self, other):
        return _Elem(self.spec, (self.value * other.value) % 7)

    def __eq__(self, other):
        return self.spec == other.spec and self.value == other.value

    def __hash__(self):
        return hash((self.spec, self.value))


_POINTS = [Fraction(a, b) for b in range(1, 4) for a in range(-6, 7)]
_QUARTIC = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(1)]
_MATRICES = [((_Elem(7, a), _Elem(7, b)), (_Elem(7, c), _Elem(7, a + b)))
             for a, b, c in ((1, 2, 3), (4, 0, 6), (5, 5, 1), (2, 6, 0))]


def spin() -> int:
    """Fraction Horner over a small grid, 2 x 2 matrix products on boxed
    mod-7 values, and a dict keyed by the results."""
    seen = {}
    for x in _POINTS:
        acc = Fraction(0)
        for c in reversed(_QUARTIC):
            acc = acc * x + c
        seen[acc] = x
    for a in _MATRICES:
        for b in _MATRICES:
            prod = tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
                         for i in range(2))
            seen[prod] = a
    return len(seen)


def loop_ms() -> float:
    """One timed pass of the loop, with the collector paused so that garbage
    the program left behind is not collected on the loop's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        spin()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def scales(loops: list[float], count: int) -> list[float]:
    """Scale for each of `count` timed items, where loops[i] was timed just
    before item i and loops[count] after the last: NOMINAL_MS over the median
    loop time within WINDOW positions on either side."""
    return [NOMINAL_MS / statistics.median(loops[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(count)]
