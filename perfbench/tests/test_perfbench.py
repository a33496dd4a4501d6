"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import calibrate, layerprof, progress, run, traffic  # noqa: E402

BENCH = os.path.join(ROOT, "perfbench")


@pytest.mark.parametrize(
    "path,layer",
    [
        ("/x/src/repro/sim/engine.py", "sim"),
        ("/x/src/repro/xen/grant_table.py", "xen"),
        ("/x/src/repro/xennet/netback.py", "xennet"),
        ("/x/src/repro/net/tcp.py", "net"),
        ("/x/src/repro/core/fifo.py", "core"),
        ("/x/src/repro/workloads/serving.py", "workloads"),
        ("/x/src/repro/scenarios/serving.py", "setup"),
        ("/x/src/repro/topology.py", "setup"),
        ("/x/src/repro/trace.py", "other"),
        (os.path.join(BENCH, "traffic.py"), "other"),
        ("/usr/lib/python3.11/heapq.py", None),
        ("~", None),
    ],
)
def test_layer_of(path, layer):
    assert layerprof.layer_of(path) == layer


def _fn(layer, name):
    files = {"net": "/s/repro/net/x.py", "core": "/s/repro/core/x.py",
             "sim": "/s/repro/sim/x.py", "lib": "/usr/lib/python3.11/x.py"}
    return ("~", 0, name) if layer == "builtin" else (files[layer], 1, name)


def test_builtins_are_charged_to_their_caller():
    net_f, core_f, sim_f = _fn("net", "send"), _fn("core", "push"), _fn("sim", "step")
    pack = _fn("builtin", "pack")
    helper = _fn("lib", "helper")
    stats = {
        # sim calls core 4 times and net 2 times.
        sim_f: (1, 1, 1.0, 10.0, {}),
        core_f: (4, 4, 2.0, 5.0, {sim_f: (4, 4, 2.0, 5.0)}),
        net_f: (2, 2, 3.0, 4.0, {sim_f: (2, 2, 3.0, 4.0)}),
        # a builtin called by net (0.5 s) and by core (1.5 s) ...
        pack: (6, 6, 2.0, 2.0, {net_f: (2, 2, 0.5, 0.5), core_f: (4, 4, 1.5, 1.5)}),
        # ... and a library helper that only core calls, which calls a builtin.
        helper: (1, 1, 0.25, 0.75, {core_f: (1, 1, 0.25, 0.75)}),
        _fn("builtin", "len"): (1, 1, 0.5, 0.5, {helper: (1, 1, 0.5, 0.5)}),
    }
    out = layerprof.attribute(stats)
    assert out["self_s"]["net"] == pytest.approx(3.5)
    assert out["self_s"]["core"] == pytest.approx(2.0 + 1.5 + 0.25 + 0.5)
    assert out["self_s"]["sim"] == pytest.approx(1.0)
    assert sum(out["self_s"].values()) == pytest.approx(out["profiled_s"])
    assert out["calls"] == {"sim->core": 4, "sim->net": 2}
    assert out["incl_s"]["sim->core"] == pytest.approx(5.0)


def _samples(speeds, period=0.01):
    """Progress samples ``(host_s, sim_s)`` of a run that simulates one
    second per host second at host speed ``speeds[k]`` during its k-th
    second, cut off at 4 simulated seconds."""
    host_s, sim_s, t, s = [0.0], [0.0], 0.0, 0.0
    for speed in speeds:
        for _ in range(int(round(1 / period))):
            t += period
            s += period * speed
            if s > 4.0 + 1e-9:
                return host_s, sim_s
            host_s.append(t)
            sim_s.append(s)
    return host_s, sim_s


def test_floor_takes_each_chunks_quickest_run():
    # Two runs over the same 4 simulated seconds: each slowed to half
    # speed over a different stretch.  At the floor every stretch runs
    # at full speed.
    a = _samples([1.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    b = _samples([0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
    assert a[0][-1] == pytest.approx(5.0) and b[0][-1] == pytest.approx(5.0)
    assert progress.floor_phase_s([a, b], chunk_s=0.1) == pytest.approx(4.0, rel=0.02)
    # a run's own floor is its wall time
    assert progress.floor_phase_s([a], chunk_s=0.1) == pytest.approx(5.0)


def test_floor_keeps_host_work_at_one_simulated_instant():
    # 0.3 host seconds spent before simulated time first moves (set-up
    # at t=0) belong to the first chunk, not lost between cuts.
    host_s = [0.0, 0.1, 0.2, 0.3] + [0.3 + 0.1 * k for k in range(1, 11)]
    sim_s = [0.0, 0.0, 0.0, 0.0] + [0.1 * k for k in range(1, 11)]
    run_ = (host_s, sim_s)
    assert progress.floor_phase_s([run_, run_], chunk_s=0.2) == pytest.approx(1.3)


def test_monotone_check():
    progress.check_monotone([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        progress.check_monotone([1.0, 0.5])


def test_sampler_records_simulated_progress():
    traffic.import_program()
    scn = traffic.build("stream_fifo", seed=3)
    scn.warmup()
    result = traffic.run_phase("stream_fifo", scn, "tiny")
    host_s, sim_s = result["progress"]["host_s"], result["progress"]["sim_s"]
    assert len(host_s) == len(sim_s) > 10
    assert len(result["progress"]["kernel_s"]) >= 1
    assert host_s[-1] == result["wall_s"] and sim_s[-1] == scn.sim.now
    progress.check_monotone(sim_s)
    assert progress.floor_phase_s([(host_s, sim_s)]) == pytest.approx(result["wall_s"])


def test_host_speed_is_relative_to_the_reference():
    times = [calibrate.REF_S * 4] * 19 + [calibrate.REF_S * 8]
    assert calibrate.host_speed(times) == pytest.approx(0.25)
    assert calibrate.kernel() == calibrate.kernel()


def test_doctored_stream_without_xenloop_fails_fifo_check():
    traffic.import_program()
    scn = traffic.build("stream_fifo", seed=3)
    scn.warmup()
    result = traffic.run_phase("stream_fifo", scn, "tiny", unload_xenloop=True)
    failures = traffic.check("stream_fifo", result)
    assert result["counts"]["fifo_bytes"] == 0
    assert any("FIFO path unused" in f for f in failures)


def _bench(*args, cwd=ROOT, **kw):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, **kw)


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_tiny_run_passes_checks(workload):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--scale", "tiny",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(traffic.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "stream_fifo", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
