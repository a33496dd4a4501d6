"""The host's speed, measured with a fixed pure-Python kernel.

The benchmark's host is a VM on a shared machine.  For minutes at a time
it can run the same work 1.5x slower than at other times: every stretch
of a run is slower then, so no choice of quiet chunks inside the run
(``progress.floor_phase_s``) can see past it.  Each measured run
therefore also times :func:`kernel`, a fixed amount of the interpreter
work the simulator is made of (object creation, method calls, heap and
dict operations, generator resumes, bytes slicing), about every 0.1 s
while it runs (``progress.ProgressSampler``), and ``run.py`` scales the
measured throughput by how fast the kernel ran against ``REF_S``.  The
kernel's time is left out of the run's host time.  The kernel uses none
of the program's code or objects and runs with the garbage collector
paused, so a change to the program does not change its time.

Timed between runs instead, in the parent, the kernel tracked the host
worse: its timings of an invocation came from a few 0.1 s bursts, and
on one set of ten seeds its speed swung from 0.63 to 0.96 while the
program's quiet floor stayed within 8%.

Contention does not always slow the program and the kernel alike.  Over
two sets of ten seeds per workload, dividing the floor rate by the
kernel's speed to the power 0, 0.5 and 1 gave worst spreads of 0.18 /
0.08 / 0.12 (``stream_fifo``), 0.10 / 0.09 / 0.07 (``serve_netfront``)
and 0.33 / 0.26 / 0.16 (``serve_fifo_churn``, while the host slowed
1.7x), so the throughput is divided by the speed itself.
"""

from __future__ import annotations

import gc
import heapq
import time

#: kernel time (s) on the reference host, a 2-vCPU Xeon VM at 2.1 GHz
#: (``QUANTILE`` of its timings when the host was quiet).
REF_S = 0.0035
#: the quantile of all the timings an invocation took that gives the
#: host's speed: low enough to pass over bursts of contention, as the
#: quiet floor does for the program, and above the very quickest one.
QUANTILE = 0.05

_N = 3000


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def scaled(self, x: int) -> int:
        return self.a + x * self.b


def _counter(n: int, out: list):
    for i in range(n):
        out.append(i)
        yield i


def kernel(n: int = _N) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    heap: list = []
    table: dict = {}
    out: list = []
    buf = bytes(range(256)) * 8
    gen = _counter(n, out)
    acc = 0
    for i in range(n):
        item = _Item(i, i & 7)
        heapq.heappush(heap, (i * 7919 % 1000, i, item))
        table[i & 1023] = table.get(i & 1023, 0) + item.scaled(3)
        next(gen)
        acc += len(buf[i & 255:(i & 255) + 64])
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].a
    return acc + len(table) + len(out)


def timed_kernel() -> float:
    """Host seconds of one :func:`kernel` call.  The cyclic garbage
    collector is paused meanwhile, so the time never includes a
    collection of the surrounding program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def host_speed(times: list[float]) -> float:
    """How fast the host ran against the reference host, from the
    kernel's ``times`` (1.0 = as fast; 0.8 = the kernel took 1.25x
    ``REF_S``)."""
    ordered = sorted(times)
    return REF_S / ordered[int(QUANTILE * (len(ordered) - 1))]
