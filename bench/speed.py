"""Machine speed, sampled while the jobs run.

A shared virtual machine changes speed by a factor of about 1.5.  The
change holds for seconds and drifts over minutes, whatever runs on the
machine.  ``SpeedProbe`` times a fixed pure-Python loop from a SIGALRM
handler every ``INTERVAL`` seconds, so the samples cover every job as it
runs.  ``factor`` turns the samples taken during some jobs into
REFERENCE / (loop time); a wall time multiplied by it is the time the jobs
would have taken at a fixed reference speed.  The loop shares nothing with
hopfrob, so a change to the program moves the scaled time exactly as much
as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02
LOOP = 500
# seconds per loop at the reference speed, about the median on a 2-vCPU Xeon VM
REFERENCE = 4e-5
# The slowest quarter of the samples is dropped: a sample that an interrupt,
# a preemption or a cache left cold by the interrupted job lands in is slow
# for reasons other than the machine's speed.
KEEP = 0.75


class SpeedProbe:
    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, spans) -> float:
        """REFERENCE over the loop time sampled within the (start, end)
        sample-index spans; 1.0 when no sample fell inside them."""
        taken = sorted(x for a, b in spans for x in self.samples[a:b])
        if not taken:
            return 1.0
        return REFERENCE / statistics.fmean(taken[: max(1, round(len(taken) * KEEP))])
