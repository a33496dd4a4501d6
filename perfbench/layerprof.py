"""Host-time attribution to the program's layers, from one profiled run.

The profiler is the standard library's ``cProfile`` (deterministic
call-event profiling in C; it made a measured phase about 3.5x slower).
Its statistics are folded into two tables at the end of the run:

* **self time per layer**: each function's own time goes to the layer
  whose package holds its source file (``layer_of``).  Code outside the
  program -- C builtins, the standard library, numpy -- has no layer of
  its own: its time goes to the layer that called it, split over its
  callers exactly as the profiler recorded it.  When that caller is
  itself outside the program the split continues up the call graph,
  weighted by call counts.  Calls a builtin makes into the program (a
  generator ``send`` resuming a process, a dict lookup calling
  ``__hash__``) are split the same way.
* **inbound calls between layers**: for every call that crosses a
  layer boundary, the count and the inclusive time, keyed by
  (calling layer, called layer).  This is the span tree aggregated at
  the layer boundaries.  Call counts repeat exactly for a fixed seed;
  times do not.

Everything is held in memory and returned once the run ends.
"""

from __future__ import annotations

import cProfile
import os
import pstats

#: the program's layers, named after its packages; ``setup`` is
#: ``repro.scenarios`` plus ``repro.topology``.
LAYERS = ("sim", "xen", "xennet", "net", "core", "workloads", "setup")
#: the benchmark's own code, repro modules outside the layers above
#: (trace, calibration, faults, ...) and profiled time no function owns.
OTHER = "other"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> str | None:
    """The layer that owns a source file, or ``None`` for code outside
    the program (builtins are reported with the file name ``~``)."""
    path = filename.replace("\\", "/")
    if os.path.abspath(filename).startswith(_BENCH_DIR + os.sep):
        return OTHER
    parts = path.split("/")
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if not rest:
        return None
    head = rest[0]
    if head in ("scenarios", "topology.py"):
        return "setup"
    if head in LAYERS and len(rest) > 1:
        return head
    return OTHER


def attribute(stats: dict, layer_fn=layer_of) -> dict:
    """Fold ``pstats``-shaped statistics into per-layer tables.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` where ``callers`` maps each calling function to ``(nc,
    cc, tt, ct)``, the part of the callee's numbers due to that caller.
    Returns ``self_s`` (seconds per layer, ``other`` included),
    ``calls`` and ``incl_s`` (per ``"src->dst"`` boundary) and
    ``profiled_s`` (the sum of every function's own time).
    """
    memo: dict = {}

    def share(func, visiting=()) -> dict:
        """How a call made by ``func`` splits over layers."""
        layer = layer_fn(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(v[0] for v in callers.values())
        if func in visiting or total == 0:
            return {OTHER: 1.0}
        out: dict = {}
        for caller, value in sorted(callers.items()):
            for lay, w in share(caller, visiting + (func,)).items():
                out[lay] = out.get(lay, 0.0) + w * value[0] / total
        memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls: dict = {}
    incl_s: dict = {}
    profiled = 0.0
    # Sorted, so float sums repeat exactly whatever order the profiler
    # kept its entries in.
    for func, (_cc, _nc, tt, _ct, callers) in sorted(stats.items()):
        profiled += tt
        layer = layer_fn(func[0])
        if layer is None:
            # Outside the program: charge the caller, as the profiler
            # split this function's own time between its callers.
            charged = 0.0
            for caller, value in sorted(callers.items()):
                for lay, w in share(caller).items():
                    self_s[lay] += value[2] * w
                charged += value[2]
            self_s[OTHER] += tt - charged
            continue
        self_s[layer] += tt
        if layer == OTHER:
            continue
        for caller, value in sorted(callers.items()):
            for src, w in share(caller).items():
                if src == layer:
                    continue
                key = f"{src}->{layer}"
                calls[key] = calls.get(key, 0.0) + value[0] * w
                incl_s[key] = incl_s.get(key, 0.0) + value[3] * w
    return {"self_s": self_s, "calls": calls, "incl_s": incl_s, "profiled_s": profiled}


class LayerProfiler:
    """Profile one call and attribute its host time to layers."""

    def __init__(self):
        self._prof = cProfile.Profile()

    def run(self, fn):
        """Call ``fn()`` under the profiler and return its result."""
        self._prof.enable()
        try:
            return fn()
        finally:
            self._prof.disable()

    def attribute(self) -> dict:
        """Per-layer tables for everything profiled so far."""
        return attribute(pstats.Stats(self._prof).stats)
