"""Host-speed probe: times measured on a shared host, rescaled to one speed.

The hosts the benchmark runs on are shared, and their speed for a single
process moves by up to 2x over stretches of ten to thirty seconds (other
tenants, not steal).  Every instruction the process runs slows alike, so
no statistic of raw times over a run of a minute or less is steady.

The probe is a fixed piece of work that never touches the package: a small
DOP853 integration, the same mix of interpreter work and small-array numpy
calls as the package's flow.  While
the benchmark measures, an interval timer runs the probe every
``PERIOD_S`` seconds inside the measuring process (a Python signal handler,
so it also lands inside one long CLI call).  Each stretch of program time
between probes is then rescaled by ``NOMINAL_S / probe``, with ``probe`` the
median duration of the probes around it: the stretch's length at the speed
at which one probe takes ``NOMINAL_S``.  Probe time itself is left out.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.05
# the probe's duration on an unloaded 2.0 GHz Xeon vCPU; only a unit: the
# rescaled times are seconds at the speed at which one probe takes this long
NOMINAL_S = 0.00125
# probes on each side whose median gives the speed of a stretch
WINDOW = 10

_KEPLER = np.array([1.0, 0.0, 0.0, 1.0])


def _kepler(t, y):
    r = y[:2]
    return np.concatenate([y[2:], -r / np.sqrt(r @ r) ** 3])


def probe_work():
    """A fixed DOP853 integration of the Kepler problem.

    Like the package's own work it is scipy's Python-level stepper calling
    a small numpy right-hand side, but it never touches the package.
    """
    return solve_ivp(_kepler, (0.0, 0.8), _KEPLER, method="DOP853",
                     rtol=1e-10, atol=1e-12).nfev


class Speed:
    """Probes taken so far, and rescaling of intervals between them."""

    def __init__(self):
        self.starts = []   # start of each probe, perf_counter seconds
        self.ends = []
        self.durations = []
        self.total = 0.0   # seconds spent in probes so far
        self._running = False

    def _probe(self, *_):
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)
        self.total += end - start

    def clock(self):
        """A clock that stands still while a probe runs (``perf_counter``
        minus probe time so far): span timers read off it leave probes out."""
        return time.perf_counter() - self.total

    def burst(self, n=5):
        """Take `n` probes now, back to back."""
        for _ in range(n):
            self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    @contextlib.contextmanager
    def paused(self):
        """No probes inside: for waiting on a child process, whose work a
        probe here would overlap, not interrupt.  A burst of probes after it
        rescales what follows until the timer's next probe."""
        running = self._running
        if running:
            self.stop()
        try:
            yield
        finally:
            self.burst()
            if running:
                self.start()

    def _local(self, i):
        """Median duration of the probes around the gap before probe i."""
        lo = max(0, i - WINDOW)
        return statistics.median(self.durations[lo:i + WINDOW])

    def rescale(self, a, b):
        """(program seconds in [a, b], the same rescaled to NOMINAL_S).

        Probes inside [a, b] are left out of both; each gap between probes
        is rescaled by the probes around it.
        """
        if not self.durations:
            raise RuntimeError("no probe was taken")
        raw = scaled = 0.0
        i = bisect.bisect_left(self.ends, a)   # first probe ending after a
        t = a
        while t < b:
            gap_end = min(b, self.starts[i]) if i < len(self.starts) else b
            if gap_end > t:
                gap = gap_end - t
                raw += gap
                scaled += gap * NOMINAL_S / self._local(
                    min(i, len(self.durations) - 1))
            if i >= len(self.starts):
                break
            t = max(t, self.ends[i])
            i += 1
        return raw, scaled

    def probes_in(self, a, b):
        """Seconds of probe time inside [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        return sum(self.durations[lo:hi])
