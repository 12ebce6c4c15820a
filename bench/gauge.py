"""Machine-speed gauge: the benchmark scales its times to one reference speed.

The machine this benchmark was defined on is a shared 2-vCPU virtual machine
whose speed switches between two levels, for a fraction of a second up to
minutes at a time.  `umbrella` took 157 ms at one level and 274 ms at the
other.  A level can hold for a whole run, so no statistic over a run's
passes removes it.

The gauge is a fixed piece of stdlib work shaped like the library's own: a
sparse polynomial in a dict keyed by exponent tuples, with Fraction
coefficients, multiplied out.  It does not call the library, so a change to
the library moves scaled times as much as raw ones.  It is read between
cases, and a case's time is multiplied by REFERENCE_S over the mean of the
readings on either side of it.

Over 3 minutes in which 12 query cases and 3 resolve cases were timed in
turn, the quartile spread of one case's time, as a share of its median, was
0.23 on average.  Scaled by this gauge it was 0.08; scaled by a gauge a sixth
this size, 0.09.  Scaled by a plain integer loop, the spread of resolve cases
was no smaller than raw: the loop slows less than the library does.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds the gauge takes at the reference speed.  On the machine this
# benchmark was defined on, it took 2.3-2.7 ms at the fast level and 4.0-4.3 ms
# at the slow one, so there scaled times read about as raw ones at the fast
# level.
REFERENCE_S = 2.5e-3

_FACTOR = {
    (1, 0, 0, 0, 0): Fraction(1),
    (0, 1, 0, 0, 0): Fraction(-1, 2),
    (0, 0, 1, 0, 0): Fraction(2, 3),
    (0, 0, 0, 1, 0): Fraction(3),
    (0, 0, 0, 0, 1): Fraction(5, 11),
    (0, 0, 0, 0, 0): Fraction(-5, 7),
}


def _expand(power: int = 4) -> dict:
    """_FACTOR ** power, multiplied out term by term."""
    product = {(0, 0, 0, 0, 0): Fraction(1)}
    for _ in range(power):
        out: dict = {}
        for m, c in product.items():
            for n, d in _FACTOR.items():
                key = tuple(a + b for a, b in zip(m, n))
                out[key] = out.get(key, 0) + c * d
        product = out
    return product


def gauge() -> float:
    """Seconds one run of the gauge takes now."""
    start = time.perf_counter()
    _expand()
    return time.perf_counter() - start


def scale(*readings: float) -> float:
    """Factor that takes a time measured while the gauge read `readings`
    (before and after, say) to the reference speed."""
    return REFERENCE_S * len(readings) / sum(readings)
