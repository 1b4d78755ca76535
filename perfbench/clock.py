"""A clock that reads seconds at a fixed reference speed.

On a shared virtual machine the speed of the processor drifts by tens of
percent over seconds, so the same exact-arithmetic work takes visibly
different wall time from one run to the next.  ``SpeedClock`` samples that
speed while the workload runs: a timer signal every ``INTERVAL_S`` runs a
small fixed ``fractions.Fraction`` kernel (the arithmetic bigalg spends its
time on) and times it.  (A kernel of plain integer arithmetic follows the
program's speed less well: it misses the part of the drift that comes from
allocating and freeing objects.)  Wall time between two samples is scaled
by ``NOMINAL_S / t``, with ``t`` the median kernel time of the ``WINDOW``
samples around it, so a stretch in which the kernel ran 30% slow counts
30% less.  Readings are "seconds at the speed at which the kernel takes
``NOMINAL_S``"; on an idle machine they are close to wall seconds.  The
kernel's own time is left out.

``now()`` reads the clock while it runs, from the samples taken so far.
``reading(t)`` converts a ``perf_counter`` time stamp after ``stop()``,
with the window centred on it, which follows changes of speed without lag.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

INTERVAL_S = 0.025
WINDOW = 5
# Kernel time on an unloaded core of the 2-vCPU x86 VM the benchmark was
# defined on (Python 3.11); it only sets the scale of the readings.
NOMINAL_S = 0.0003

_PAIRS = [(Fraction(i, 7), Fraction(3, i + 1)) for i in range(1, 100)]


def kernel_seconds():
    t0 = perf_counter()
    s = Fraction(0)
    for a, b in _PAIRS:
        s += a * b
    return perf_counter() - t0


class SpeedClock:
    """``start()``, read with ``now()``; ``stop()``, then convert with ``reading()``."""

    def __init__(self, interval=INTERVAL_S, nominal=NOMINAL_S):
        self.interval = interval
        self.nominal = nominal
        # sample k: the kernel ran from begin[k] to end[k] and took kernel[k];
        # begin[0] == end[0] marks the start of the clock
        self.begin, self.end, self.kernel = [], [], []
        self.factor = 1.0
        self.base = 0.0  # now() reading at end[-1]
        self._cum = None
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t = perf_counter()
        k = kernel_seconds()
        if self.end:
            # the elapsed stretch keeps the factor now() used, so readings
            # never go backwards; the new sample sets the next factor
            self.base += (t - self.end[-1]) * self.factor
        self.begin.append(t)
        self.kernel.append(k)
        self.factor = self.nominal / median(self.kernel[-WINDOW:])
        self.end.append(perf_counter())

    def start(self):
        self._sample()
        self.begin[0] = self.end[0]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()
        self._finish()

    def _finish(self):
        # centred factors; the stretch end[k-1]..begin[k] uses factor[k]
        half = WINDOW // 2
        n = len(self.kernel)
        self._factors = [
            self.nominal / median(self.kernel[max(0, k - half):k + half + 1]) for k in range(n)
        ]
        self._cum = [0.0]
        for k in range(1, n):
            stretch = self.begin[k] - self.end[k - 1]
            self._cum.append(self._cum[-1] + stretch * self._factors[k])

    def now(self):
        return self.base + (perf_counter() - self.end[-1]) * self.factor

    def reading(self, t):
        """Reference seconds from the start of the clock to perf_counter time t."""
        k = bisect.bisect_right(self.end, t)  # first sample ending after t
        if k == 0:
            return 0.0
        if k == len(self.end):
            return self._cum[-1]
        # t lies in the stretch end[k-1]..begin[k] (or inside kernel k)
        return self._cum[k - 1] + (min(t, self.begin[k]) - self.end[k - 1]) * self._factors[k]
