"""Host-time progress of a simulated run, and the phase time at the
host's quiet floor.

The benchmark's host is shared: the same work takes up to twice as long
from one 30 ms stretch to the next, and whole windows of several
seconds run 1.5x slower than others.  A run-level wall time averages
that noise in, so the median over a few runs still swings with how busy
the host was during them.

Runs of one seed simulate exactly the same events (their digests must
match), so simulated time is a noise-free coordinate of progress that
all of them share.  :class:`ProgressSampler` records ``(host time,
simulated time)`` every ``PERIOD_S`` of wall time from a ``SIGALRM``
handler that only reads the two clocks.  :func:`floor_phase_s` cuts
the phase into chunks of about ``CHUNK_S`` host seconds at common
simulated times, takes each chunk's quickest host time over all runs,
and adds them up: the phase's host time with the noise filtered out.
A program change that makes any chunk's work cheaper lowers it.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

from perfbench import calibrate

#: sampling period of the progress clock (host seconds).
PERIOD_S = 0.001
#: host time a chunk of the phase spans in the first run.
CHUNK_S = 0.025
#: ticks between two timings of the calibration kernel (about 0.1 s;
#: one timing costs about 3.5 ms).
KERNEL_EVERY = 100


class ProgressSampler:
    """Context manager that samples ``perf_counter`` and ``sim.now``,
    and times the calibration kernel on entry and on every
    ``KERNEL_EVERY``-th tick.

    ``scn.sim`` is read on each tick, so the samples follow the
    scenario's simulator.  The first and last samples are taken on
    entry and exit.  ``host_s`` (relative to entry, kernel time left
    out), ``sim_s`` and ``kernel_s`` hold them in flat arrays, so that a
    run's peak RSS barely depends on how many ticks a slow host gives it.
    """

    def __init__(self, scn):
        self.scn = scn
        self.host_s = array("d")
        self.sim_s = array("d")
        self.kernel_s = array("d")
        self._t0 = 0.0
        self._ticks = 0
        self._in_kernel = False
        self._old_handler = None

    def _sample(self) -> None:
        self.host_s.append(time.perf_counter() - self._t0)
        self.sim_s.append(self.scn.sim.now)

    def _tick(self, *_signal) -> None:
        if self._in_kernel:
            return
        self._sample()
        self._ticks += 1
        if self._ticks % KERNEL_EVERY == 0:
            self._in_kernel = True
            t0 = time.perf_counter()
            self.kernel_s.append(calibrate.timed_kernel())
            self._t0 += time.perf_counter() - t0
            self._in_kernel = False

    def __enter__(self) -> "ProgressSampler":
        self.kernel_s.append(calibrate.timed_kernel())
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        self.host_s.append(0.0)
        self.sim_s.append(self.scn.sim.now)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()


def check_monotone(sim_s) -> None:
    """Raise ValueError unless simulated time never goes backwards."""
    for a, b in zip(sim_s, sim_s[1:]):
        if b < a:
            raise ValueError(f"simulated time went back from {a} to {b}")


def _host_at(host_s, sim_s, s: float) -> float:
    """Host time at which simulated time passed ``s``: interpolated
    between the last sample at or before ``s`` and the first after it."""
    i = bisect.bisect_right(sim_s, s)
    ta, tb, sa, sb = host_s[i - 1], host_s[i], sim_s[i - 1], sim_s[i]
    return ta + (tb - ta) * (s - sa) / (sb - sa)


def grid(host_s, sim_s, chunk_s: float = CHUNK_S) -> list[float]:
    """Simulated times that cut a run into chunks of about ``chunk_s``
    host seconds (taken from one run, then shared by all of them)."""
    first, last = sim_s[0], sim_s[-1]
    cuts, next_t = [], chunk_s
    for t, s in zip(host_s, sim_s):
        if t >= next_t:
            if first < s < last and (not cuts or s > cuts[-1]):
                cuts.append(s)
            next_t = t + chunk_s
    return cuts


def chunk_times(host_s, sim_s, cuts) -> list[float]:
    """Host seconds each chunk between consecutive ``cuts`` took; the
    first chunk starts at the phase's start, the last ends at its end."""
    bounds = [host_s[0]] + [_host_at(host_s, sim_s, c) for c in cuts] + [host_s[-1]]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def floor_phase_s(runs: list, chunk_s: float = CHUNK_S) -> float:
    """Sum over chunks of each chunk's quickest host time over ``runs``,
    each a ``(host_s, sim_s)`` pair of sample sequences."""
    cuts = grid(*runs[0], chunk_s)
    per_run = [chunk_times(host_s, sim_s, cuts) for host_s, sim_s in runs]
    return sum(min(times) for times in zip(*per_run))
