"""Scales set-up and batch times to a fixed machine speed.

On a shared machine a CPU's speed changes from second to second. On the
2-core Xeon virtual machine the benchmark was tuned on, the same batch ran up
to 1.6 times slower during slow spells, which lasted from one to about 25
seconds. A wall time then says as much about the spells it met as about the
program.

So while a set-up or a batch runs, a ``Meter`` in the same process times a
fixed pure-Python reference routine every INTERVAL_S, and the wall time is
scaled by how fast the reference ran meanwhile: to the time it would have
taken with the reference at REFERENCE_S. The scale does not depend on the
program under test, so it cancels when two commits are compared on one
machine. On that machine nine runs of the same one-fleet sweep spread by 0.12
in wall time and by 0.03 once scaled, and sixty set-ups by 0.23 and 0.12
(quartile range over median).
"""

import signal
import statistics
import time

# The reference routine's time at full speed on the machine named above.
REFERENCE_S = 0.00055
# Seconds between two samples of the reference while a Meter is active. A
# set-up takes about 0.3 s and needs a dozen samples; one sample takes under
# 1 ms, so sampling costs about 4% of the wall time, which is not counted.
INTERVAL_S = 0.02


def reference():
    """A fixed piece of interpreter work, like the package's Python-level loops."""
    acc = 0.0
    table = {}
    for i in range(2500):
        key = i % 37
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] / (key + 1)
    return acc


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Meter:
    """Samples the reference every INTERVAL_S from a timer signal while active.

    ``scale`` is the mean speed over the samples, relative to REFERENCE_S. As
    the samples are spread evenly in time, it turns the metered wall time into
    time at the reference speed.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(time_reference())

    def __enter__(self):
        reference()  # warm up, untimed
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        samples = self.samples or [time_reference()]  # a span shorter than one interval
        return statistics.fmean(REFERENCE_S / s for s in samples)


def metered(fn):
    """Run fn(); return (its result, wall seconds, seconds at the reference speed).

    The wall seconds leave out the time the reference samples took.
    """
    with Meter() as meter:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - sum(meter.samples)
    return result, wall, wall * meter.scale()
