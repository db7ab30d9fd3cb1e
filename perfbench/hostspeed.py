"""Host speed, sampled during a run, to rescale the run's times.

Other load on a shared host can slow the same code by up to half, in
phases that last minutes, so runs of one program on one input differ by a
third. Each gated time is therefore rescaled to a nominal host speed:
reported = measured * speed, where speed = PROBE_NOMINAL_NS / mean probe
time over the same stretch of the run. A change to lajoin does not change
the probe, so a slower program still reads slower.

The kernel and PROBE_NOMINAL_NS (the probe's typical time on a 2-CPU Xeon
VM with Python 3.11) are fixed for good: changing either one moves every
figure measured before.
"""

from __future__ import annotations

import gc
import signal
import time

PROBE_EVERY_S = 0.1
PROBE_NOMINAL_NS = 140_000


def _kernel() -> int:
    # Work of the same kind as lajoin's: edge tuples, label dicts, vertex sums.
    n = 24
    edges = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    labels = {e: k for k, e in enumerate(edges, 1)}
    sums = dict.fromkeys(range(1, n + 1), 0)
    for (a, b), lab in labels.items():
        sums[a] += lab
        sums[b] += lab
    roles = tuple(f"u{i}" for i in range(1, n + 1))
    return len(set(sums.values())) + len(sorted(labels.values(), reverse=True)) + len(roles)


def probe() -> int:
    """Fastest of three runs of the kernel, in ns.

    The collector is off meanwhile, so that the size of the program's heap,
    which a collection would walk, does not change the probe's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            start = time.perf_counter_ns()
            _kernel()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if was_enabled:
            gc.enable()


def host_speed(samples: list[int]) -> float:
    """How many times faster than nominal the host ran during ``samples``."""
    return PROBE_NOMINAL_NS * len(samples) / sum(samples)


class HostProbe:
    """Probes every PROBE_EVERY_S from a SIGALRM handler inside ``with``.

    The probe interrupts whatever runs, a 10 s solver call included, so
    long operations are sampled too. ``clock()`` is ``perf_counter_ns``
    less the time spent probing, so a time taken with it leaves the
    probes out.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(probe())
        self.spent_ns += time.perf_counter_ns() - start

    def clock(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def take(self) -> list[int]:
        """The samples since the last call."""
        samples, self.samples = self.samples, []
        return samples

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
