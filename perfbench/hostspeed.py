"""How fast the host runs Python code right now, from a fixed loop.

Other tenants of a shared machine slow it in phases that can outlast a
whole run, and a time measured in such a phase reads slow although the
program is unchanged.  ``Gauge`` times a fixed loop, written here and never
changed with the program, in short samples spread over the run, and
``factor()`` says how much slower it ran than on the reference machine.
Dividing a measured time by the factor gives the time the same work would
take on the reference machine at its quiet speed; the program's own changes
pass through unscaled, since the loop does not run its code.

The loop does the kinds of work the program does: products of sparse
polynomials held as dicts with tuple keys and integer coefficients, and
exact elimination over the rationals.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Mean time of one sample on the reference machine (Python 3.11.7, 2-vCPU
# virtual machine) in the quietest phase seen; see perfbench/README.md.
REFERENCE_SAMPLE_S = 0.0048
# Time between samples while ticking, at the reference machine's speed:
# the samples take about 5% of the run.
INTERVAL_S = 0.1

_P = {(i, j, (i * j) % 3): (7 * i - 3 * j) or 1 for i in range(6) for j in range(7)}
_Q = {(j % 4, i, j): 5 * i + j + 1 for i in range(5) for j in range(4)}
_M = [[Fraction((3 * i + 5 * j * j + 1) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
      for i in range(7)]


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _rank(matrix) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def loop() -> int:
    """One sample's work; its result is fixed and checked by the caller."""
    square = _product(_P, _P)
    return len(_product(square, _Q)) + sum(square.values()) % 1009 + 100 * _rank(_M)


EXPECTED = loop()


class Gauge:
    """Samples of the fixed loop.

    ``ticking()`` takes samples from a timer signal, so they also fall
    inside long operations, on the same processor at the same moment;
    ``spent`` lets the caller take their time back out of the operations
    they interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self) -> None:
        if self.busy:
            return
        self.busy = True
        # Garbage collection is held off during the sample: a collection
        # its allocations set off would sweep the program's heap and put
        # that time into the sample.
        collecting = gc.isenabled()
        gc.disable()
        begin = perf_counter()
        result = loop()
        elapsed = perf_counter() - begin
        if collecting:
            gc.enable()
        self.busy = False
        if result != EXPECTED:
            raise AssertionError(f"host-speed loop gave {result}, not {EXPECTED}")
        self.samples.append(elapsed)
        self.spent += elapsed

    def _tick(self, signum, frame) -> None:
        if self.busy:
            return
        self.sample()
        # The next sample waits INTERVAL_S of the reference machine's time:
        # longer in wall time while the host is slow, so that the samples
        # are spread evenly over the work done, as an operation's time is,
        # not over wall time, which would overweight the slow phases.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S * self.samples[-1] / REFERENCE_SAMPLE_S)

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Mean sample time over the reference machine's: above 1 is slower."""
        return statistics.fmean(self.samples) / REFERENCE_SAMPLE_S
