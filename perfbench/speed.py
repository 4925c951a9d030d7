"""A reference clock: wall time rescaled to a fixed machine speed.

The speed of this kind of shared virtual machine drifts: the same
pure-Python loop takes anywhere from one to two times its best time,
in phases lasting from seconds to many minutes, and CPU time drifts
with it (no time is reported stolen).  So a repetition times a short
fixed probe, PROBE, every PERIOD_S seconds from a SIGALRM handler, and
at each phase boundary.  Between two probes the wall clock advances
the reference clock at PROBE_REF_S / (probe duration): a stretch of
work that would take one second on a machine where PROBE takes
PROBE_REF_S counts one reference second, however fast the machine ran
it.  The probes' own time does not count.

Only this module and `rep.py` call it; nothing in the library is timed
from inside.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# PROBE's duration when this machine (2-core KVM guest, Xeon family 6
# model 143, Python 3.11) runs at its best observed speed
PROBE_REF_S = 0.002
# probes timed back to back at each phase boundary
BOUNDARY_PROBES = 3


def probe():
    """A fixed mix of rational arithmetic, tuple sorting and dict updates,
    the operations the library spends its time in."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(i % 7 - 3, i % 11 + 1)
        key = tuple(sorted((i * 7919 + j * 104729) % 1009 for j in range(12)))
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Speedometer:
    """Records (start, end) of every probe, on the time.monotonic clock."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, n=BOUNDARY_PROBES):
        """Time `n` probes back to back; an alarm during them is skipped."""
        self._busy = True
        for _ in range(n):
            start = time.monotonic()
            probe()
            self.samples.append((start, time.monotonic()))
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample(1)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def clock(self):
        return RefClock(self.samples)


class RefClock:
    """Maps a time.monotonic reading to reference seconds.

    Each probe's duration is replaced by the median of it and its two
    neighbours, so that one interrupted probe does not skew a stretch.
    A gap between two probes runs at the mean of their two rates; time
    before the first probe and after the last runs at that probe's rate;
    time inside a probe does not advance the clock.
    """

    def __init__(self, samples):
        if not samples:
            raise ValueError("no probe samples")
        samples = sorted(samples)
        durations = [end - start for start, end in samples]
        rates = []
        for i in range(len(durations)):
            window = durations[max(0, i - 1):i + 2]
            rates.append(PROBE_REF_S / max(statistics.median(window), 1e-9))
        # knots: the wall time and reference time of each probe's start
        # and end; the reference clock stands still inside a probe
        self._times = []
        self._refs = []
        ref = 0.0
        for i, (start, end) in enumerate(samples):
            if i:
                gap = max(start - samples[i - 1][1], 0.0)
                ref += gap * (rates[i - 1] + rates[i]) / 2
            self._times += [start, end]
            self._refs += [ref, ref]
        self._first_rate = rates[0]
        self._last_rate = rates[-1]

    def __call__(self, t):
        times = self._times
        if t <= times[0]:
            return self._refs[0] - (times[0] - t) * self._first_rate
        if t >= times[-1]:
            return self._refs[-1] + (t - times[-1]) * self._last_rate
        i = bisect.bisect_right(times, t) - 1
        t0, r0 = times[i], self._refs[i]
        t1, r1 = times[i + 1], self._refs[i + 1]
        if t1 == t0:
            return r0
        return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
