"""Host speed, sampled while a timed region runs, for normalising its times.

The benchmark shares a few cores of a host with other tenants, whose
load changes the speed of every instruction by up to 2x within minutes
(``cpu_s`` moves in step with ``wall_s``, so it is not lost CPU
time).  Averaging more work in one run
does not remove a drift that slow.  A fixed pure-Python reference
kernel, independent of the program, therefore runs from a
``SIGALRM`` handler every :data:`INTERVAL` seconds in the measuring
thread, at the same moments as the program and on the same core (on
each core in turn when the program's work runs in pool workers).  A
timed interval's host seconds are divided by the kernel time sampled
inside it and multiplied by :data:`NOMINAL`: the result is the
interval's length on a host where the kernel takes :data:`NOMINAL`
seconds.  The kernel's own time is subtracted from every interval
first.

The kernel does the kinds of work the simulator's interpreter does: small
object allocation, method calls, float arithmetic and dictionary
updates, plus lookups scattered over a table of a few megabytes.  It
calls nothing of the program, and its time does not follow how much
memory the code between samples touches: 1.19-1.25 ms between steps
of a simulation, of a loop over a few integers and of a loop over
64 MB, sampled in turn.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time

#: seconds between kernel samples
INTERVAL = 0.05
#: kernel seconds on the nominal host (about the median between program
#: steps on a shared 2-core 2.0 GHz Xeon)
NOMINAL = 0.00125
#: seconds of an interval scaled by one median of kernel samples
WINDOW = 0.5
#: fewest samples a median is taken over; a piece with fewer takes its
#: interval's median, an interval with fewer every sample so far
MIN_SAMPLES = 5

_TABLE_SIZE = 32768
_LOOKUPS = 720


class _Event:
    __slots__ = ("t", "key", "weight")

    def __init__(self, t: float, key: int, weight: float) -> None:
        self.t, self.key, self.weight = t, key, weight

    def advance(self, dt: float) -> "_Event":
        return _Event(self.t + dt * self.weight, self.key, self.weight * 0.5 + 1.0)


class HostSpeed:
    """The reference-kernel sampler.

    ``cores``: the CPUs the program's work runs on.  When it is more
    than one (pool workers), each sample moves the measuring thread to
    the next of them for the kernel's duration: the cores' speeds drift
    apart, and a sample on the measuring thread's current core alone
    sees only one of them."""

    def __init__(self, cores: list[int] | None = None) -> None:
        self._cores = cores if cores and len(cores) > 1 else None
        self._turn = 0
        self._table = {i: (float(i), str(i)) for i in range(_TABLE_SIZE)}
        self._order = random.Random(1).sample(range(_TABLE_SIZE), _LOOKUPS)
        #: (perf_counter at the sample, kernel seconds)
        self.samples: list[tuple[float, float]] = []
        #: kernel seconds so far, for the caller to subtract
        self.spent = 0.0

    def kernel(self) -> float:
        events = [_Event(float(i), i, 1.0) for i in range(64)]
        totals: dict[int, float] = {}
        lookups = iter(self._order)
        for _ in range(_LOOKUPS // 60):
            advanced = []
            for event in events:
                event = event.advance(0.25)
                totals[event.key] = totals.get(event.key, 0.0) + event.t
                advanced.append(event)
            events = advanced
            for _ in range(60):
                totals[-1] = self._table[next(lookups)][0]
        return totals[-1]

    def _sample(self, _signum, _frame) -> None:
        if self._cores is None:
            return self._measure()
        self._turn = (self._turn + 1) % len(self._cores)
        os.sched_setaffinity(0, {self._cores[self._turn]})
        try:
            self._measure()
        finally:
            os.sched_setaffinity(0, self._cores)

    def _measure(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += t1 - t0

    def start(self) -> None:
        # a first few samples, so that every interval has a median
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than nominal the host ran between
        ``perf_counter`` readings ``t0`` and ``t1`` (above 1: slower).

        Host speed changes within an interval, so the interval is cut
        into :data:`WINDOW`-second pieces, each scaled by the median
        kernel time sampled around it, and the factor is the interval's
        length over the nominal seconds the pieces add up to."""
        near = [(t, d) for t, d in self.samples if t0 - WINDOW <= t <= t1 + WINDOW]
        overall = statistics.median(d for _, d in (near if len(near) >= MIN_SAMPLES
                                                   else self.samples))
        nominal_s, a = 0.0, t0
        while a < t1:
            b = min(t1, a + WINDOW)
            piece = [d for t, d in near if a - WINDOW / 2 <= t <= b + WINDOW / 2]
            kernel = statistics.median(piece) if len(piece) >= MIN_SAMPLES else overall
            nominal_s += (b - a) * NOMINAL / kernel
            a = b
        return (t1 - t0) / nominal_s


class Unscaled:
    """Host seconds as they are: the stand-in when no sampler runs."""

    spent = 0.0

    def factor(self, t0: float, t1: float) -> float:
        return 1.0
