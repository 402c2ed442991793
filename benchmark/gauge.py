"""Speed gauge: times a fixed piece of work while the workload runs.

The benchmark's host shares its processors with other machines, and their
load changes how fast the same code runs by up to about 1.9x, from one
second to the next and from one minute to the next.  Over a run the
workload's time and the time of a fixed reference piece of work change
together, so their ratio stays steady where each alone does not.

``Gauge`` runs the reference work (a sparse axpy over ``fractions.Fraction``,
the arithmetic that dominates thl, in a few hundred microseconds) from a
``SIGALRM`` interval timer every ``period`` seconds while it is active.  It
keeps each sample's wall and CPU time and the time all samples took, so the
caller can take the gauge's own time out of what it measured.

``scaled`` turns a measured time into seconds at the reference speed, at
which one sample takes ``REFERENCE_S``: the time multiplied by the mean over
its samples of ``REFERENCE_S / sample time``.  The gauge work uses only the
standard library, never thl, so a change to thl changes the workload's time
and not the gauge's.
"""

import signal
import statistics
import time
from fractions import Fraction

# Nominal time of one gauge sample; the scale of every scaled time.  Samples
# took about 0.5 ms when the host ran fast and up to about 0.9 ms when it
# ran slow on the 2-vCPU Intel Xeon host the benchmark was written on, so
# scaled times there read about 0.55 to 0.9 times the raw ones.
REFERENCE_S = 0.0005

_COLUMN = {i: Fraction(i + 1, 2 * i + 3) for i in range(24)}


def reference_work():
    """Fixed work: six Fraction axpys into a 24-entry dict column."""
    acc = {}
    for r in range(6):
        c = Fraction(r + 2, r + 5)
        for k, v in _COLUMN.items():
            acc[k] = acc.get(k, 0) + c * v
    return acc


class Gauge:
    """Samples the reference work on a timer while active."""

    def __init__(self, period):
        self.period = period
        self.wall = []        # wall seconds of each sample
        self.cpu = []         # CPU seconds of each sample
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        reference_work()      # a first call runs colder than the rest

    def _sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_work()
        w, c = time.perf_counter() - w0, time.process_time() - c0
        self.wall.append(w)
        self.cpu.append(c)
        self.spent_wall += w
        self.spent_cpu += c
        return w, c

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def read(self):
        """The clocks and the gauge's state at one instant."""
        # A sample taken between the reads would be counted on one side
        # only; holding the signal back keeps the reading consistent.
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            return (time.perf_counter(), time.process_time(), len(self.wall),
                    self.spent_wall, self.spent_cpu)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    def between(self, start, end):
        """{wall_s, cpu_s, samples} of the span between two readings, the
        gauge's own time left out."""
        w0, c0, n0, gw0, gc0 = start
        w1, c1, n1, gw1, gc1 = end
        return {
            "wall_s": (w1 - w0) - (gw1 - gw0),
            "cpu_s": (c1 - c0) - (gc1 - gc0),
            "samples": n1 - n0,
        }

    def scaled_between(self, start, end):
        """``between``, plus ref_wall_s and ref_cpu_s: the times at the
        reference speed.  A span too short to hold a sample is scaled by
        one sample taken right after it."""
        out = self.between(start, end)
        n0, n1 = start[2], end[2]
        walls, cpus = self.wall[n0:n1], self.cpu[n0:n1]
        if not walls:
            w, c = self._sample()
            walls, cpus = [w], [c]
        out["ref_wall_s"] = scaled(out["wall_s"], walls)
        out["ref_cpu_s"] = scaled(out["cpu_s"], cpus)
        return out


def scaled(seconds, samples):
    """``seconds`` at the reference speed, given the gauge samples of its span.

    The samples are evenly spaced in time, and the speed during each is
    ``1 / sample``, so the mean of ``1 / sample`` is the mean speed over the
    span.  (Dividing by the mean sample time would weigh slow moments more
    than their share of the span.)
    """
    return seconds * REFERENCE_S * statistics.fmean(1.0 / x for x in samples)
