"""Host speed, measured by a fixed pure-Python kernel, to scale reported times.

A shared host's CPU speed can double or halve within seconds, and that moves
every time the benchmark reports. So the benchmark measures the host's speed
with a fixed kernel that no change to dsmkit can move, and scales its
untraced times to a nominal host speed at which one burst of BURST_N steps
takes NOMINAL_S:

    setup_s       = measured set-up time * NOMINAL_S / kernel_s()
    wall_s, cpu_s = measured time * the mean of NOMINAL_S / burst over the
                    bursts a Sampler timed during the command

Set-up lasts a fraction of a second, so it takes one kernel_s(), timed just
before it. The command lasts seconds, and the host changes speed within
that, so a Sampler times one short burst every INTERVAL_S throughout it and
the command's speed is the mean of the bursts' speeds. The bursts take about
1% of the command's time; the worker takes their time out of wall_s and
cpu_s. A change to dsmkit cannot move the kernel, so it moves the scaled
times by exactly the share it moves the measured ones. This module uses the
standard library only, because the worker times it before `import dsmkit`.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

BURST_N = 50_000
NOMINAL_S = 0.010  # one burst of BURST_N steps on a quiet stretch of the reference host
BURSTS = 5
SAMPLE_N = 2_500  # steps of one Sampler burst, about 0.5 ms
INTERVAL_S = 0.05
MAX_BURSTS = 4096  # more than a run's 165 s hold


def _burst(n: int = BURST_N) -> float:
    # float arithmetic, list appends and dict stores: the kinds of work the
    # interpreter does while it imports and runs dsmkit
    acc = 0.0
    seen = {}
    kept = []
    for i in range(n):
        x = i * 0.5
        acc += (x - 1.0) * (x + 2.0) - (x * 0.25) * (acc * 1e-12)
        if i & 7 == 0:
            kept.append(x)
            seen[i & 1023] = x
    return acc + len(kept) + len(seen)


def kernel_s() -> float:
    """Median time of one burst over a few bursts."""
    times = []
    for _ in range(BURSTS):
        t0 = perf_counter()
        _burst()
        times.append(perf_counter() - t0)
    return sorted(times)[BURSTS // 2]


class Sampler:
    """While active, times a burst of SAMPLE_N steps every INTERVAL_S of wall
    time, from a SIGALRM handler in the main thread.

    The timings go into arrays allocated up front: a list growing during the
    command would be reallocated at the top of the C heap, pin it there and
    add megabytes to the process's peak RSS."""

    def __init__(self):
        self._starts = array("d", bytes(8 * MAX_BURSTS))
        self._seconds = array("d", bytes(8 * MAX_BURSTS))
        self.bursts = 0

    def _tick(self, signum=None, frame=None):
        n = self.bursts
        if n == MAX_BURSTS:
            return
        t0 = perf_counter()
        _burst(SAMPLE_N)
        self._seconds[n] = perf_counter() - t0
        self._starts[n] = t0
        self.bursts = n + 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.bursts:  # a command shorter than INTERVAL_S
            self._tick()

    def spent_s(self, start: float, end: float) -> float:
        """Time the bursts took between two perf_counter() readings."""
        return sum(s for t, s in zip(self._starts[:self.bursts], self._seconds[:self.bursts]) if start <= t < end)

    def speed(self) -> float:
        """The host's mean speed over the bursts, 1.0 being nominal."""
        nominal = NOMINAL_S * SAMPLE_N / BURST_N
        return sum(nominal / s for s in self._seconds[:self.bursts]) / self.bursts
