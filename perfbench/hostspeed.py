"""Host speed reference: scale measured times to one reference speed.

The 2-core virtual machines this benchmark runs on change speed by up to
~1.6x, in stretches that last from seconds to minutes (other tenants on
the same cores).  A median over repeats cannot remove a stretch that
covers a whole run.  So every job process (``job.py``) also times a fixed
reference kernel.  The kernel is benchmark code that shares nothing
with ksearch, so a change to the program cannot move it.  It runs in the
same thread, interleaved with the timed work: a ``SIGPROF`` interval
timer interrupts the work every ``INTERVAL_S`` of CPU time to run it.
The kernel's own time is subtracted from the work it interrupted.  A time
``t`` measured while the kernel took ``k`` is then reported as
``t * KERNEL_REF_S / k``: the time the work would have taken at the speed
where the kernel takes ``KERNEL_REF_S``.

On a 60 s trace of this host, design and replay times drifted with a
coefficient of variation of ~0.24.  Divided by the kernel over the same
2 s blocks, the drift fell to ~0.05.  Raw times are kept in every result
next to the scaled ones.  Set-up probes (``run.py``) are not scaled: in a
fresh process the kernel varied with the core the process landed on more
than the import did.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

# the kernel's time in the fast state of the 2-core Xeon VM the benchmark
# was tuned on; only the unit of the scaled times depends on it
KERNEL_REF_S = 51e-6
INTERVAL_S = 0.025
WINDOW = 9  # kernel samples in the local median around one timed call


def kernel() -> float:
    """A fixed mix of the work ksearch does: interpreter loops, float math,
    small numpy arrays and tuple building."""
    acc, table = 0, {}
    for i in range(400):
        table[i & 31] = acc
        acc += (i * i) % 7
    xs = [1.0 + 0.25 * i for i in range(48)]
    total = 0.0
    for x in xs:
        total += math.log1p(x) * x / (x + 1.0)
    arr = np.asarray(xs)
    cum = np.cumsum(arr)
    hit = int((arr >= 7.0).argmax())
    ys = tuple(float(v) for v in cum[::2])
    return acc + total + hit + sum(ys)


class Sampler:
    """Runs the kernel about every INTERVAL_S and records its time.

    Inside :meth:`interrupting` (around work the benchmark cannot split,
    the CLI invocation) a ``SIGPROF`` timer runs it every INTERVAL_S of CPU
    time.  Loops the benchmark drives itself call :meth:`tick` between
    calls instead: run inline, the kernel tracked design times more
    closely (on a 75 s trace the ratio varied by ~0.02, against ~0.05 from
    the signal handler).
    """

    def __init__(self):
        # (mid time, kernel seconds); one append per sample, so a copy taken
        # while the timer keeps firing is never torn
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # kernel seconds so far, to subtract from timed work
        self._last = 0.0

    def _sample(self, *_):
        # the first pass after the interrupted work runs on cold caches; only
        # the second, warm pass measures the host's speed
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), end - warm))
        self.spent += end - start
        self._last = end

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._sample()

    @contextlib.contextmanager
    def interrupting(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def __enter__(self):
        for _ in range(WINDOW):  # a short job still gets a full window
            self._sample()
        return self

    def __exit__(self, *exc):
        for _ in range(WINDOW):
            self._sample()
        return False

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        times, ks = np.array(self.samples[:]).T
        return times, ks

    def kernel_median_s(self) -> float:
        return float(np.median(self._arrays()[1]))

    def mean_scale(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the kernel's time, averaged over [start, end].

        Consecutive samples are grouped by WINDOW and each group gives its
        median, so one interrupted sample does not count as a slow stretch.
        """
        times, ks = self._arrays()
        inside = ks[(times >= start) & (times <= end)]
        if len(inside) < WINDOW:  # a job shorter than a window: nearest samples
            nearest = np.argsort(np.abs(times - 0.5 * (start + end)))[:WINDOW]
            inside = ks[np.sort(nearest)]
        groups = [np.median(inside[i : i + WINDOW]) for i in range(0, len(inside), WINDOW)]
        return KERNEL_REF_S / float(np.mean(groups))

    def local_scales(self, at: np.ndarray) -> np.ndarray:
        """KERNEL_REF_S over the median kernel time of the WINDOW samples
        around each time in ``at``."""
        times, ks = self._arrays()
        half = WINDOW // 2
        padded = np.pad(ks, half, mode="edge")
        rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        idx = np.clip(np.searchsorted(times, at), 0, len(ks) - 1)
        return KERNEL_REF_S / rolling[idx]
