"""The machine's momentary speed, gauged inside the process being timed.

The benchmark runs on a shared machine whose speed wanders by 20 % and more,
within seconds as well as over minutes, so a plain time taken in one run
mostly says how fast the machine happened to be.  Every benchmark process
therefore interleaves runs of `gauge()`, a fixed loop that does not touch the
program, with its own work: a SIGPROF timer runs one after every EVERY_S
seconds of the process's CPU time, between two bytecodes of whatever it is
doing.  The times the benchmark reports are scaled, moment by moment, to the
loop's reference speed:

    scaled seconds = sum over the interval of  dt * REFERENCE_S / g(t)

where g(t) is the mean time of the WINDOW gauge samples nearest t, and the
gauge samples' own time is left out.  Time before the process's first sample
counts in plain seconds: that is the interpreter's start-up (exec, `site`,
paging in), which does not follow the gauge: while the gauge ran 20 % faster
than usual, the start-up took as long as ever.  `gauge()` is the kernel of
sparse polynomial multiplication (dicts keyed by exponent tuples,
small-integer arithmetic), the kind of work that dominates the program, so a
slow moment slows both alike.  A sample lasts about 12 ms, several scheduler slices, so it
also sees the time the process waits for a CPU; a timer on CPU time rather
than wall time never wakes the process, which would give the sample a fresh
slice.  The collector is off while it runs, so no collection of the program's
heap lands in a sample.  The samples cost about 3 % of a process's time.

Times are `time.perf_counter()`, CLOCK_MONOTONIC on Linux, which is the same
clock in every process: run.py scales intervals it timed from outside with
the samples the child reported.
"""

import bisect
import gc
import signal
import statistics
import time

REFERENCE_S = 0.012  # one gauge() on the reference machine (2 shared CPUs, Python 3.11.7)
EVERY_S = 0.4  # CPU time of the process between two gauge samples
WINDOW = 9  # samples per local speed estimate, a few seconds

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 or 1 for i in range(6) for j in range(5)}
_B = {(i, j): (i * 5 + j) % 7 - 3 or 2 for i in range(5) for j in range(6)}


def gauge(repeat: int = 36) -> float:
    """Seconds for a fixed amount of dict-and-int work."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(repeat):
        out = {}
        for (qa, ta), ca in _A.items():
            for (qb, tb), cb in _B.items():
                k = (qa + qb, ta + tb)
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    secs = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return secs


class Pace:
    """Gauge samples `[start, seconds]` of this process, taken on a timer."""

    def __init__(self):
        self.samples = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self.samples.append([t0, gauge()])

    def start(self) -> "Pace":
        self.sample()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def stop(self) -> list:
        """Stop the timer, add samples for the last moments; the samples."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample(3)
        return self.samples


class Timeline:
    """Scales intervals of wall time by the speed the samples gauged."""

    def __init__(self, samples: list):
        self.samples = sorted(samples)
        n = len(self.samples)
        durations = [d for _, d in self.samples]
        half = WINDOW // 2
        self.factor = []
        for i in range(n):
            lo = max(0, min(i - half, n - WINDOW))
            self.factor.append(REFERENCE_S / statistics.fmean(durations[lo:lo + WINDOW]))
        mids = [s + d / 2 for s, d in self.samples]
        # sample i speaks for the time between the midpoints to its neighbours
        self.edges = [(a + b) / 2 for a, b in zip(mids, mids[1:])]

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of work in [a, b], gauge samples left out."""
        first = self.samples[0][0]
        total = max(0.0, min(b, first) - a)  # before the first sample: plain
        a = max(a, first)
        i = bisect.bisect_left(self.edges, a)
        while i < len(self.samples):
            lo = a if i == 0 else max(a, self.edges[i - 1])
            hi = b if i == len(self.edges) else min(b, self.edges[i])
            if lo >= b:
                break
            if hi > lo:
                s, d = self.samples[i]
                gauged = max(0.0, min(hi, s + d) - max(lo, s))
                total += (hi - lo - gauged) * self.factor[i]
            i += 1
        return total

    def raw(self, a: float, b: float) -> float:
        """Seconds of work in [a, b], gauge samples left out."""
        return (b - a) - sum(max(0.0, min(b, s + d) - max(a, s)) for s, d in self.samples)
