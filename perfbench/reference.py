"""The reference kernel: a yardstick for the speed of the host.

The benchmark runs on a share of a busy host, where the speed of a core
moves by up to 1.8x with the load of its neighbours: from second to
second, and in phases that last minutes and cover whole runs.  Raw times
of the same code then spread by 15-35% between runs.  So every run also
times a fixed piece of pure-Python work, the reference kernel, in short
samples interleaved with the program's calls, and the benchmark reports
times scaled to a fixed speed of that kernel:

    scaled = measured * REF_SECONDS / (trimmed mean of the kernel's samples)

that is, seconds on a host where the kernel takes REF_SECONDS.  Calls
and kernel samples are summarised alike, by their 10% trimmed mean: a
mean weighs the fast and the slow moments of a run as they came, so the
ratio of two means follows the share of each, where a quantile of the
calls and one of the samples would each jump between the two speeds on
its own.  The trimming drops pre-emption spikes.  The kernel exercises
what the program spends its time on (exact fractions, big-integer
arithmetic, dicts, sorting), so the two slow down together.  A change to
boxworld cannot change the kernel, so it moves the scaled times exactly
as it moves the raw ones.  Set-up time is scaled too: over 57 set-ups
taken a few seconds apart, each next to kernel samples spread over 1.6 s,
raw set-up times spread by 18% and scaled ones by 12.5%.

The run keeps itself and its children on one CPU (run.pin_to_one_cpu):
the neighbours load the two CPUs differently, and a kernel timed on one
CPU does not see the load on the other.
"""

import time
from fractions import Fraction

REF_SECONDS = 0.001  # the kernel's time at the scaled speed
EVERY = 0.02  # seconds between samples during a run
BURST = 0.15  # seconds of back-to-back samples when a run took too few


def kernel():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    counts = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    order = sorted(range(2000, 0, -1))
    return total, counts, order


def trimmed_mean(values, cut=0.1):
    """Mean of the values without the lowest and the highest tenth."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)


class Reference:
    """Samples of the kernel's time, taken between the program's calls."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self):
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self):
        """One sample if EVERY seconds have passed since the last one."""
        if time.perf_counter() - self.last >= EVERY:
            self.sample()

    def burst(self, seconds=BURST):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def scale(self):
        """Factor from measured to scaled times."""
        return REF_SECONDS / trimmed_mean(self.samples)
