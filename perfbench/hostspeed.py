"""Host speed, measured by a fixed calibration loop all through a run.

On a shared VM the CPU speed this process gets drifts: a fixed loop runs
0.6 to 1.5 times its usual time for seconds at a time, in phases that last
up to minutes, with no steal time (CPU time drifts with wall time).  Timed
ops slow down with it, so raw times from two runs taken a minute apart
differ by more than any bound worth setting.

While ``running`` holds, an interval timer interrupts the process every
``EVERY`` seconds and the handler times the calibration loop once: a
*mark*.  The handler runs in the main thread between bytecodes, so marks
also fall inside long ops; ``scaled`` subtracts the time the marks took
from an interval, and multiplies what is left by ``REF_S`` over the median
loop time of the marks inside it, or within ``PAD_S`` of it when fewer than
``MIN_MARKS`` fall inside.  A reference second is a second on a host where
the loop takes ``REF_S``.  The loop uses no biphoton code, so a change to
the program moves the scaled times exactly as it moves the raw ones.
"""

import bisect
import contextlib
import signal
import statistics
import time

#: loop seconds at reference speed
REF_S = 0.5e-3

#: seconds between marks
EVERY = 0.05

#: an interval with fewer marks inside it also counts those within PAD_S
#: of its ends
MIN_MARKS = 5
PAD_S = 0.5


def calibration_loop():
    """Fixed interpreter work: dict updates and number formatting, about 0.6 ms.

    Pure Python tracks the drift of the interpreter-bound ops (tables,
    optimize, CSV, the draw) best: over 4 s windows it leaves 7-10% of a
    30-40% drift.  A large-array pass tracks them worse.
    """
    acc = {}
    text = []
    for i in range(1500):
        acc[i & 127] = acc.get(i & 127, 0) + i
        if i % 8 == 0:
            text.append(f"{i},{i * 0.37:.9g},{i & 7}")
    return len(text) + len(acc)


class HostSpeed:
    """Marks of the calibration loop over one run."""

    def __init__(self):
        self.starts = []   # mark start times, increasing
        self.ends = []
        self.loops = []    # loop seconds of each mark

    def mark(self, *_):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.loops.append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        """Mark every EVERY seconds of the body, and once at each end."""
        previous = signal.signal(signal.SIGALRM, self.mark)
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.mark()

    def _within(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def loop_s(self, t0, t1):
        """Median loop time of the marks in [t0, t1], or within PAD_S of it."""
        lo, hi = self._within(t0, t1)
        if hi - lo < MIN_MARKS:
            lo, hi = self._within(t0 - PAD_S, t1 + PAD_S)
        if lo == hi:
            raise ValueError(f"no host-speed mark near [{t0}, {t1}]")
        return statistics.median(self.loops[lo:hi])

    def busy(self, t0, t1):
        """Seconds of [t0, t1] spent in marks."""
        lo, hi = self._within(t0, t1)
        return sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scaled(self, t0, t1):
        """Seconds of [t0, t1], less its marks, at reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * REF_S / self.loop_s(t0, t1)

    def factor(self, t0, t1):
        """Reference seconds per raw second over [t0, t1]."""
        return REF_S / self.loop_s(t0, t1)
