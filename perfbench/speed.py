"""Reference seconds: timings corrected for the machine's speed of the moment.

On a shared machine the speed of one core drifts by tens of percent within
seconds, as other tenants load it: far more than the changes the benchmark
must resolve.  So the benchmark times a fixed reference loop beside its
work: integer arithmetic and dict updates, like scalg's sparse elimination,
but no scalg code, so no change to scalg moves it.  A time in seconds,
times ``REF_NOMINAL_S`` over the loop's mean time beside it, is the time in
reference seconds: what it would take at the speed where the loop takes
``REF_NOMINAL_S`` (about the loop's median time on a shared 2-core Xeon VM).
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 0.005
# Probe once per this much CPU time; the loop costs about 15% of it.  Denser
# probing follows the speed more closely: on the shared 2-core Xeon VM, a
# pass's time in reference seconds varied by about 3% (standard deviation
# over mean) from pass to pass, against about 5% when probing every 0.1 s.
PROBE_INTERVAL_S = 0.03


def reference_loop():
    x = 12345
    acc = {}
    for i in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 1023
        acc[k] = (acc.get(k, 0) * 31 + i) % 1000003
    return len(acc)


def timed_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def burst_scale(n=20):
    """Scale factor from n reference loops run now (about 0.1 s)."""
    return REF_NOMINAL_S / statistics.mean(timed_reference() for _ in range(n))


class SpeedProbe:
    """Runs the reference loop on a CPU-time timer (SIGPROF) while active.

    ``spent`` is the wall time the probe itself took, to be subtracted from
    the work it interrupted; ``scale()`` turns seconds of that work into
    reference seconds.  Under a tracer the probe's time is excluded from
    the span it interrupted, and no sample is taken while the tracer does
    its own bookkeeping.
    """

    def __init__(self, tracer=None):
        self.samples = []
        self.spent = 0.0
        self.tracer = tracer

    def _sample(self, signum, frame):
        if self.tracer is not None and self.tracer.busy:
            return  # between spans: the sample's time would belong to none
        dt = timed_reference()
        self.samples.append(dt)
        if self.tracer is not None:
            self.tracer.exclude(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False

    def scale(self):
        if len(self.samples) < 5:  # work too short to sample: probe after it
            return burst_scale()
        return REF_NOMINAL_S / statistics.mean(self.samples)
