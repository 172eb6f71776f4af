"""Op times rescaled to a fixed machine speed.

The virtual machines this benchmark runs on change speed by up to 2x in
stretches of a few seconds to minutes, each virtual CPU on its own, and
the guest sees no steal time: process CPU time slows down with wall
time.  A median over a run cannot remove that, because a whole run can
sit in one slow stretch.  So the benchmark keeps to one CPU (pin()),
times a fixed pure-Python reference loop next to the work, and reports
the work's time at the speed where the loop takes REF_S seconds.

A Sampler times the loop at the start and end of an op and, while
running, every PERIOD_S seconds from a SIGALRM handler.  The op's time
is cut at the samples; each piece is rescaled by the mean of the two
samples around it, and the samples' own time is left out.
"""

import os
import signal
import statistics
import time

clock = time.perf_counter

LOOP_N = 20_000
# Time of one reference loop on a 2-vCPU Intel Xeon VM at its fast
# speed (Python 3.11.7); the unit that rescaled times are expressed in.
REF_S = 0.0034
PERIOD_S = 0.2


def pin():
    """Keep this process and the children it starts on one CPU, so that
    the reference loop runs on the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_loop():
    """The fixed work the machine's speed is measured with: dict updates
    and small-integer arithmetic, like the package's own inner loops."""
    d = {}
    s = 0
    for i in range(LOOP_N):
        k = i % 1000
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return s


def loop_time():
    """Wall time of one reference loop."""
    t0 = clock()
    reference_loop()
    return clock() - t0


def rescale_short(seconds, before, after):
    """Rescale a short interval by the median loop times around it."""
    return seconds * REF_S / statistics.mean(
        (statistics.median(before), statistics.median(after)))


class Sampler:
    """Reference-loop samples taken during ops, to rescale their time.

    A sample is (start, end) of one loop.  `start(timer)` takes the first
    sample and, with `timer`, samples every PERIOD_S from SIGALRM until
    `stop()`, which takes the last."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self):
        if self._busy:  # a tick that lands inside a tick is dropped
            return
        self._busy = True
        t0 = clock()
        reference_loop()
        self.samples.append((t0, clock()))
        self._busy = False

    def _tick(self, signum, frame):
        self.sample()

    def start(self, timer=True):
        self.samples = []
        self.sample()
        if timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def rescaled(self, t0, t1):
        """Time spent outside the samples between clock readings t0 < t1,
        rescaled to REF_S per loop."""
        inside = [s for s in self.samples if t0 <= s[0] and s[1] <= t1]
        before = [s for s in self.samples if s[1] <= t0]
        after = [s for s in self.samples if s[0] >= t1]
        if not (before and after):
            raise ValueError("interval not between start() and stop()")
        # each piece of work lies between two samples, and the last
        # sample before t0 and the first after t1 bound the end pieces
        marks = before[-1:] + inside + after[:1]
        total = 0.0
        for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
            piece = min(b0, t1) - max(a1, t0)
            total += piece * REF_S / ((a1 - a0 + b1 - b0) / 2)
        return total
