"""One measured run in a fresh interpreter.

``run.py`` starts this once per run, from the repository root::

    python3 -m perfbench.child --workload stream_fifo --seed 1 [--scale tiny]
                               [--setup-only] [--trace]

It times set-up from its own first statement (import, build, warmup),
runs the measured phase unless ``--setup-only``, checks the result and
prints one JSON object.  A fresh process per run keeps process-global
counters, the peak-RSS high-water mark and import caching from leaking
between runs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layerprof, traffic  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=traffic.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(traffic.SCALES))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    traffic.import_program()
    t_import = time.perf_counter()
    scn = traffic.build(args.workload, args.seed)
    t_build = time.perf_counter()
    scn.warmup()
    t_warm = time.perf_counter()
    out = {
        "import_s": t_import - T_START,
        "build_s": t_build - t_import,
        "warmup_s": t_warm - t_build,
    }
    out["setup_s"] = t_warm - T_START
    if not args.setup_only:
        profiler = layerprof.LayerProfiler() if args.trace else None
        result = traffic.run_phase(args.workload, scn, args.scale, profiler=profiler)
        out["result"] = result
        out["failures"] = traffic.check(args.workload, result)
        out["digest"] = traffic.digest(result)
        if profiler is not None:
            out["layers"] = profiler.attribute()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, default=list))  # progress samples are arrays
    return 0


if __name__ == "__main__":
    sys.exit(main())
