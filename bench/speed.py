"""Host speed reference for the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts.  On a
2-vCPU Xeon VM (2.1 GHz), a fixed 2 ms computation flipped between about
1.2 and 2.2 ms from one second to the next, and the median latency of one
fixed job over 5-second windows ranged from 8.9 to 14.8 ms within two
minutes.  Over 30-second windows of a fixed job mix, the round times and
latency quantiles spread (quartile distance over median) by 0.18 to 0.26.
The drift slows all pure-Python code alike: the ratio of that job's window
medians to those of a fixed reference computation timed between its calls
spread by only 0.04.  So the untraced run also times the reference (exact
rational arithmetic from the standard library, none of the program's code)
once per 0.1 s of job time, and scales each job's times by

    median over the nearest samples of REF_S / (reference time)

so that they read as seconds at the speed at which one reference call
takes REF_S.  A set-up probe brackets its set-up with samples and takes
their trimmed mean instead; over fresh processes this cut the spread of
set-up CPU time from about 0.3 to 0.08.  A change to the program moves the
measured time and not the reference, so it shows in full; the host's drift
moves both and cancels.  The raw, unscaled times are printed beside the
result.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Time of one reference() call on the VM above, in seconds.  It only sets
# the scale of the reported times; it never changes.
REF_S = 0.002
# One sample per SAMPLE_EVERY seconds of job time (at most MAX_BURST after
# one job); BRACKET samples open and close each interval.
SAMPLE_EVERY = 0.1
MAX_BURST = 20
BRACKET = 5
# A job's scale comes from the WINDOW samples on each side of it, since the
# host's speed can change from one second to the next.  An interval's
# overall scale drops the share TRIM of its per-sample factors at each end,
# so that a sample hit by an interrupt does not count.
WINDOW = 2
TRIM = 0.1


def reference():
    """A fixed piece of exact rational arithmetic (about 2 ms)."""
    d = {}
    for i in range(1, 300):
        d[i] = Fraction(i, i + 7) + Fraction(1, 3 * i + 1)
    return sum(d.values())


class Meter:
    """Reference samples over one interval at a time."""

    def __init__(self, clock=time.perf_counter, ref=reference):
        self.clock = clock
        self.ref = ref
        self.samples = []
        self.owed = 0.0
        ref()  # untimed: whatever the first call loads lazily

    def sample(self, n: int = 1):
        for _ in range(n):
            t0 = self.clock()
            self.ref()
            self.samples.append(self.clock() - t0)

    def begin(self):
        """Open an interval with BRACKET samples."""
        self.samples = []
        self.owed = 0.0
        self.sample(BRACKET)

    def after_job(self, seconds: float):
        """Count a job's time; sample once per SAMPLE_EVERY seconds of it."""
        self.owed += seconds
        n = int(self.owed / SAMPLE_EVERY)
        if n:
            self.owed -= n * SAMPLE_EVERY
            self.sample(min(n, MAX_BURST))

    def end(self):
        """Close the interval with BRACKET samples."""
        self.sample(BRACKET)

    def factor(self) -> float:
        """The interval's scale: the trimmed mean of REF_S / t."""
        factors = sorted(REF_S / s for s in self.samples)
        cut = int(len(factors) * TRIM)
        kept = factors[cut:len(factors) - cut]
        return sum(kept) / len(kept)

    def factor_at(self, k: int) -> float:
        """The scale for a job run when k samples had been taken: the
        median of REF_S / t over the WINDOW samples on each side of it."""
        near = self.samples[max(0, k - WINDOW):k + WINDOW]
        return statistics.median(REF_S / s for s in near)
