"""Machine-speed gauge: the benchmark's CPU times at a fixed reference speed.

The shared machines this benchmark runs on change speed by a quarter or more
from one run to the next while the benchmark thread keeps its CPU, so CPU
time alone does not remove the noise.  While a run measures, a timer signal
interrupts it every ``PERIOD`` seconds to time a small probe in thread CPU
time: a fixed loop of small series products and interpreter arithmetic that
shares no code with sympinv.  A request's time is its CPU time less the
probes that ran inside it, scaled by ``REF_PROBE_S`` over the median probe
time around it.  The result reads as CPU seconds on a machine where the probe
takes ``REF_PROBE_S``, the probe's typical time on the 2-core box the
benchmark was defined on.

Because the probe does not run sympinv code, a faster or slower program moves
the scaled times as it moves the CPU times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
REF_PROBE_S = 0.0007
WINDOW = 0.5  # probes this close to a request also describe its speed


# A miniature of the program's hot path: dense truncated series in two
# variables to order 3, multiplied through a gather-multiply-scatter table.
_MONOMIALS = [(i, d - i) for d in range(4) for i in range(d, -1, -1)]
_SLOT = {m: k for k, m in enumerate(_MONOMIALS)}
_PAIRS = [(a, b, _SLOT[(ma[0] + mb[0], ma[1] + mb[1])])
          for a, ma in enumerate(_MONOMIALS) for b, mb in enumerate(_MONOMIALS)
          if sum(ma) + sum(mb) <= 3]
_PI, _PJ, _PR = (np.asarray(col) for col in zip(*_PAIRS))
_N = len(_MONOMIALS)


class _Series:
    __slots__ = ("c", "base")

    def __init__(self, c, base):
        self.c = np.asarray(c, dtype=np.float64)
        self.base = base

    def __mul__(self, other):
        if abs(self.base - other.base) > 1e-9:
            raise ValueError("basepoints differ")
        return _Series(np.bincount(_PR, weights=self.c[_PI] * other.c[_PJ], minlength=_N),
                       self.base)

    def __add__(self, other):
        return _Series(self.c + other.c, self.base)


_X = _Series(np.linspace(0.1, 1.0, _N), 0.5)
_Y = _Series(np.linspace(1.0, 0.2, _N), 0.5)


def probe():
    """The fixed unit of work whose duration measures the machine's speed.

    Series products like the program's, then plain interpreter arithmetic:
    probes of either kind alone tracked the workloads' times closely in some
    periods and poorly in others.
    """
    z = _X
    for k in range(40):
        z = z * _Y + _X
        if k % 10 == 9:
            z = _X
    acc = 0.0
    buf = []
    for k in range(2000):
        acc += (k * 0.5) % 7.0
        buf.append(acc)
        if len(buf) > 50:
            buf.clear()
    return acc + float(z.c[0])


class Gauge:
    """Probe timings taken on a timer signal while the gauge is running."""

    def __init__(self):
        self.ends = []  # perf_counter at the end of each probe, increasing
        self.durations = []  # thread CPU seconds of each probe
        self._previous = None

    def _tick(self, signum, frame):
        # No garbage collection inside the probe: a program that keeps more
        # objects alive would otherwise slow the probe and hide in the scale.
        collecting = gc.isenabled()
        gc.disable()
        c0 = time.thread_time()
        probe()
        c1 = time.thread_time()
        if collecting:
            gc.enable()
        self.ends.append(time.perf_counter())
        self.durations.append(c1 - c0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, t0, t1):
        return bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def probe_seconds(self, t0, t1):
        """CPU time of the probes that ended between t0 and t1 (perf_counter)."""
        lo, hi = self._span(t0, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0, t1):
        """Reference probe time over the median probe time around [t0, t1]."""
        lo, hi = self._span(t0 - WINDOW, t1 + WINDOW)
        if hi - lo < 3:
            mid = bisect.bisect_right(self.ends, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), min(len(self.ends), mid + 2)
        if hi <= lo:
            raise RuntimeError("the gauge took no probe")
        return REF_PROBE_S / statistics.median(self.durations[lo:hi])

    def scaled(self, cpu_s, t0, t1):
        """CPU seconds `cpu_s` spent between t0 and t1, less probes, at the reference speed."""
        return (cpu_s - self.probe_seconds(t0, t1)) * self.factor(t0, t1)
