"""The repository benchmark: simulated work per host second on three
Xen traffic mixes, with per-layer attribution.

    python3 perfbench/run.py --workload stream_fifo --seed 1 --seconds 25 --trace 0

Runs the workload in fresh child processes (``perfbench/child.py``), one
per measured run, until ``--seconds`` have passed (at least
``MIN_RUNS``), checks every run, and prints a report followed by one
JSON line: end-to-end metrics with ``--trace 0``; with ``--trace 1``,
per-layer metrics from runs that alternate untraced and profiled.  The
profiled run's full layer tables are also written to
``.perfbench/trace-<workload>-seed<seed>.json``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import calibrate, layerprof, progress, traffic  # noqa: E402

#: measured runs per invocation, at least (the digest check needs two).
MIN_RUNS = 2
#: set-ups per invocation, at least: set-up-only children top it up.
MIN_SETUPS = 7
#: no new run starts once this much wall time is gone, and every child
#: is killed at ``HARD_LIMIT_S``; the whole command stays under 180 s.
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

#: (name, unit) of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mbps", "Mbit/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
)

#: (name, unit) of the metrics printed with ``--trace 1``.
PER_LAYER = (
    ("sim.events_per_unit", "events/unit"),
    ("sim.self_us_per_unit", "us/unit"),
    ("sim.events_per_s", "1/s"),
    ("sim.wheel_ops_per_unit", "ops/unit"),
    ("sim.cpu_busy_us_per_unit", "us/unit"),
    ("sim.domain_switches_per_unit", "1/unit"),
    ("xen.self_us_per_unit", "us/unit"),
    ("xen.calls_in_per_unit", "calls/unit"),
    ("xen.evtchn_sends_per_unit", "1/unit"),
    ("xen.grant_maps_per_unit", "1/unit"),
    ("xennet.self_us_per_unit", "us/unit"),
    ("xennet.calls_in_per_unit", "calls/unit"),
    ("xennet.ring_notify_suppressed_frac", "frac"),
    ("net.self_us_per_unit", "us/unit"),
    ("net.calls_in_per_unit", "calls/unit"),
    ("net.bytes_packed_per_unit", "B/unit"),
    ("net.l3_cache_hit_frac", "frac"),
    ("net.tcp_retx_per_unit", "1/unit"),
    ("net.bridge_frames_per_unit", "1/unit"),
    ("core.self_us_per_unit", "us/unit"),
    ("core.calls_in_per_unit", "calls/unit"),
    ("core.fifo_bytes_per_unit", "B/unit"),
    ("core.entries_per_drain", "entries/drain"),
    ("core.fifo_notify_suppressed_frac", "frac"),
    ("core.fastpath_frac", "frac"),
    ("core.fifo_full_per_unit", "1/unit"),
    ("workloads.self_us_per_unit", "us/unit"),
    ("setup.self_us_per_unit", "us/unit"),
    ("other.self_us_per_unit", "us/unit"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.overhead_x", "x"),
    ("sim_slo_miss_frac", "frac"),
)

#: what each workload's profiled run should show (the bypass
#: predictions); printed next to the measured value, not enforced.
PREDICTIONS = {
    "stream_fifo": (("sim.wheel_ops_per_unit", "0"), ("net.tcp_retx_per_unit", "0"),
                    ("xennet.self_us_per_unit", "about 0")),
    "serve_netfront": tuple((name, "0") for name, _ in PER_LAYER
                            if name.startswith("core.")),
    "serve_fifo_churn": (("core.fastpath_frac", "below 1"),),
}


class BenchError(RuntimeError):
    """A child failed to produce a result."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def spawn(workload: str, seed: int, scale: str, deadline: float, *, setup_only=False,
          trace=False) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child exceeded the time limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited {proc.returncode}: {' '.join(cmd)}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def floor_wall_s(runs: list) -> float:
    """The measured phase's host time at the quiet floor over ``runs``
    (see ``progress.floor_phase_s``)."""
    return progress.floor_phase_s(
        [(r["result"]["progress"]["host_s"], r["result"]["progress"]["sim_s"]) for r in runs])


def kernel_times(runs: list) -> list[float]:
    """The calibration kernel's timings over all ``runs``."""
    return [t for r in runs for t in r["result"]["progress"]["kernel_s"]]


def host_speed(runs: list) -> float:
    """The host's speed against the reference host during ``runs``."""
    return calibrate.host_speed(kernel_times(runs))


def end_to_end(runs: list, setups: list, speed: float) -> dict:
    """End-to-end metrics from untraced runs.  ``speed`` is the host's
    speed against the reference host (``calibrate.host_speed``);
    ``units_per_s`` is scaled to the reference host by it."""
    result = runs[0]["result"]
    return {
        "units_per_s": result["units"] / floor_wall_s(runs) / speed,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "sim_mbps": result["sim_mbps"],
        "sim_p50_us": result["sim_p50_us"],
        "sim_p99_us": result["sim_p99_us"],
    }


def per_layer(runs: list, traced: list, setups: list) -> dict:
    """Per-layer metrics: counts from the run's result, host times from
    the profiled runs (medians), events/s from the untraced ones."""
    result = runs[0]["result"]
    c = result["counts"]
    units = result["units"]
    wall = floor_wall_s(runs)
    traced_wall = statistics.median(t["result"]["wall_s"] for t in traced)
    out = {
        "sim.events_per_unit": c["events"] / units,
        "sim.events_per_s": c["events"] / wall,
        "sim.wheel_ops_per_unit": c["wheel_ops"] / units,
        "sim.cpu_busy_us_per_unit": c["cpu_busy_s"] * 1e6 / units,
        "sim.domain_switches_per_unit": c["domain_switches"] / units,
        "xen.evtchn_sends_per_unit": c["evtchn_sends"] / units,
        "xen.grant_maps_per_unit": c["grant_maps"] / units,
        "xennet.ring_notify_suppressed_frac": _ratio(
            c["ring_suppressed"], c["ring_notifies"] + c["ring_suppressed"]),
        "net.bytes_packed_per_unit": c["bytes_packed"] / units,
        "net.l3_cache_hit_frac": _ratio(
            c["l3_cache_hits"], c["l3_cache_hits"] + c["l3_cache_misses"]),
        "net.tcp_retx_per_unit": c["tcp_retx"] / units,
        "net.bridge_frames_per_unit": c["bridge_frames"] / units,
        "core.fifo_bytes_per_unit": c["fifo_bytes"] / units,
        "core.entries_per_drain": _ratio(c["drain_entries"], c["drain_batches"]),
        "core.fifo_notify_suppressed_frac": _ratio(
            c["fifo_suppressed"], c["fifo_notifies"] + c["fifo_suppressed"]),
        "core.fastpath_frac": _ratio(
            c["pkts_via_channel"], c["pkts_via_channel"] + c["pkts_via_standard"]),
        "core.fifo_full_per_unit": c["fifo_full"] / units,
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.build_s": statistics.median(s["build_s"] for s in setups),
        "setup.warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "trace.overhead_x": traced_wall / statistics.median(r["result"]["wall_s"] for r in runs),
        "sim_slo_miss_frac": result.get("sim_slo_miss_frac", 0.0),
    }
    calls = traced[0]["layers"]["calls"]
    for layer in layerprof.LAYERS + (layerprof.OTHER,):
        self_s = statistics.median(t["layers"]["self_s"][layer] for t in traced)
        out[f"{layer}.self_us_per_unit"] = self_s * 1e6 / units
        if layer in ("xen", "xennet", "net", "core"):
            inbound = sum(n for key, n in calls.items() if key.endswith(f"->{layer}"))
            out[f"{layer}.calls_in_per_unit"] = inbound / units
    return {name: out[name] for name, _unit in PER_LAYER}


def collect(args) -> tuple[list, list, list]:
    """Run children until the measuring window closes; returns
    (untraced runs, profiled runs, set-up samples)."""
    t0 = time.perf_counter()
    deadline = t0 + HARD_LIMIT_S
    runs, traced = [], []
    while True:
        t_iter = time.perf_counter()
        runs.append(spawn(args.workload, args.seed, args.scale, deadline))
        if args.trace:
            traced.append(spawn(args.workload, args.seed, args.scale, deadline, trace=True))
        now = time.perf_counter()
        enough = len(runs) >= (1 if args.trace else MIN_RUNS)
        if enough and (now - t0 >= args.seconds
                       or now - t0 + (now - t_iter) > START_LIMIT_S):
            break
    setups = list(runs)
    while len(setups) < MIN_SETUPS and time.perf_counter() - t0 < START_LIMIT_S:
        setups.append(spawn(args.workload, args.seed, args.scale, deadline, setup_only=True))
    return runs, traced, setups


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, runs, traced, setups, failures, metrics, metric_units) -> None:
    """Human-readable summary (everything before the final JSON line)."""
    result = runs[0]["result"]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"runs {len(runs)} untraced + {len(traced)} profiled  "
          f"set-ups {len(setups)}  digest {runs[0]['digest'][:16]}")
    print(f"  units per run: {result['units']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    wall = statistics.median(r["result"]["wall_s"] for r in runs)
    print(f"  phase wall: median {wall:.3f} s, at the quiet floor {floor_wall_s(runs):.3f} s;"
          f"  host speed {host_speed(runs):.3f} x reference "
          f"({len(kernel_times(runs))} kernel timings)")
    if "sim_slo_miss_frac" in result and not traced:
        print(f"  sim_slo_miss_frac = {_fmt(result['sim_slo_miss_frac'])} frac  "
              f"(SLO {traffic.SLO_S * 1e3:g} ms; misses plus errors over offered)")
    for name, unit in metric_units:
        print(f"  {name} = {_fmt(metrics[name])} {unit}")
    if traced:
        layers = traced[0]["layers"]
        wall = traced[0]["result"]["wall_s"]
        print(f"  profiled wall {wall:.3f} s; self time by layer:")
        for layer, secs in layers["self_s"].items():
            print(f"    {layer:10s} {secs:9.4f} s  {100 * secs / wall:5.1f}%")
        unowned = wall - sum(layers["self_s"].values())
        print(f"    {'(unowned)':10s} {unowned:9.4f} s  {100 * unowned / wall:5.1f}%"
              "  wall minus the sum of self times")
        print("  inbound calls per unit (inclusive host us per unit):")
        for key in sorted(layers["calls"]):
            print(f"    {key:18s} {layers['calls'][key] / result['units']:10.3f}"
                  f"  ({layers['incl_s'][key] * 1e6 / result['units']:.2f} us)")
        print("  predictions:")
        for name, expected in PREDICTIONS[args.workload]:
            print(f"    {name} = {_fmt(metrics[name])}  (expected {expected})")
    if failures:
        print("  CHECKS FAILED:")
        for failure in failures:
            print(f"    - {failure}")
    else:
        print("  checks: all passed")


def trace_checks(traced: list) -> list[str]:
    """The profiled runs' layer self times must account for their wall."""
    failures = []
    for t in traced:
        wall = t["result"]["wall_s"]
        owned = sum(t["layers"]["self_s"].values())
        if not 0.5 * wall <= owned <= 1.02 * wall:
            failures.append(
                f"layer self times sum to {owned:.3f} s of a {wall:.3f} s profiled wall"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=traffic.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=sorted(traffic.SCALES),
                        help="simulated work per run; 'tiny' is for tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    try:
        runs, traced, setups = collect(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = []
    for r in runs + traced:
        failures += [f for f in r["failures"] if f not in failures]
    digests = {r["digest"] for r in runs + traced}
    if len(digests) != 1:
        failures.append(f"simulated digest differs across runs of one seed: {sorted(digests)}")
    failures += trace_checks(traced)

    try:
        for r in runs:
            progress.check_monotone(r["result"]["progress"]["sim_s"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metric_units, metrics = PER_LAYER, per_layer(runs, traced, setups)
    else:
        metric_units, metrics = END_TO_END, end_to_end(runs, setups, host_speed(runs))
    attempted = sum(r["result"]["attempted"] for r in runs + traced)
    failed = sum(r["result"]["failed"] for r in runs + traced)
    correct = not failures
    if not correct:
        failed = attempted
    report(args, runs, traced, setups, failures, metrics, metric_units)
    if traced:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "traced": [t["layers"] for t in traced],
                       "counts": runs[0]["result"]["counts"]}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
