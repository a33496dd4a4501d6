"""The three benchmark workloads, their counters and their checks.

Everything here runs inside one fresh child process per measured run
(see ``child.py``).  The program is driven only through its public API:
``repro.scenarios`` (``build``, ``xenloop_serving``), the netperf and
serving workload functions, ``repro.trace.engine_stats`` and public
counters on machines, bridges, grant tables, XenLoop modules and FIFOs.

``repro`` is imported lazily by :func:`import_program` so the child can
time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json

WORKLOADS = ("stream_fifo", "serve_netfront", "serve_fifo_churn")

#: simulated work per measured run.  A run's simulated results depend
#: only on (workload, seed, scale); host time only decides how many runs
#: fit in the benchmark's measuring window.  Runs are kept short (about
#: 1 s, 11 s and 12 s of host time on the reference host) so that several
#: fit: the phase time at the quiet floor (``progress.floor_phase_s``)
#: needs each stretch of the phase to have run once while the host was
#: quiet.  The serving mixes keep enough requests for a steady p99: at
#: 8,000 netfront requests its spread over ten seeds reached 0.16, and
#: the churn mix needs four cycles (below).
SCALES = {
    "full": {
        "stream_fifo": {"slice_s": 0.02, "rr_s": 0.02},
        "serve_netfront": {"requests": 16_000},
        "serve_fifo_churn": {"cycles": 4},
    },
    "tiny": {
        "stream_fifo": {"slice_s": 0.004, "rr_s": 0.01},
        "serve_netfront": {"requests": 300},
        "serve_fifo_churn": {"cycles": 1},
    },
}

#: UDP_STREAM slice sizes: per-datagram cost dominates at 64 B, copy and
#: serialization cost at 8 KB; 1,472 B is the largest unfragmented
#: datagram on a 1,500 B MTU.
STREAM_SIZES = (64, 1472, 8192)
#: UDP_RR request/response size of the stream workload's latency slice.
RR_SIZE = 64

CLIENTS = ("c1", "c2")
REQ_SIZE = 128
RESP_SIZE = 512
SLO_S = 0.002
#: offered load on the netfront path: about 0.75x its capacity.
NETFRONT_RATE = 8_000.0
#: The churn mix runs at 10k req/s and starts a churn cycle every 0.4 s.
#: Each cycle stalls some of c1's connections for a 200 ms RTO; the
#: period lets the backlog drain before the next cycle.  At 30k req/s
#: the backlog was still 1.2k-1.9k requests 0.6 s into a cycle on each
#: of six seeds, half of all requests missed the SLO and p50 swung from
#: 0.42 ms to 10.5 ms between seeds.  Four cycles per run average out
#: how many connections a cycle happens to stall: with two, p99 fell to
#: about 137 ms on some seeds and 170-189 ms on the rest, and the
#: spread over ten seeds was 0.13; with four it was 0.09.
CHURN_RATE = 10_000.0
CHURN_PERIOD_S = 0.4
#: churn guests: ``c1`` migrates out and back, ``spare`` crashes and
#: restarts (``repro.scenarios.serving.serving_churn_schedule``).
HOME_MACHINE = "xenhost"
#: a churn cycle has drained when at most this share of its requests is
#: still queued at its end (a few are always in flight).
BACKLOG_FRAC = 0.01


def import_program() -> None:
    """Import the program.  ``repro.scenarios`` comes first on purpose:
    importing ``repro.topology`` first raises a circular ImportError."""
    import repro.scenarios  # noqa: F401
    import repro.trace  # noqa: F401
    import repro.workloads.netperf  # noqa: F401
    import repro.workloads.serving  # noqa: F401


def build(workload: str, seed: int):
    """Build the workload's scenario (not yet warmed)."""
    from repro import scenarios

    if workload == "stream_fifo":
        return scenarios.build("xenloop", seed=seed)
    if workload == "serve_netfront":
        return scenarios.xenloop_serving(seed=seed, data_path="netfront")
    if workload == "serve_fifo_churn":
        return scenarios.xenloop_serving(seed=seed, data_path="fifo", churn=True)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- counters ---------------------------------------------------------


class Counters:
    """Deterministic counters over the measured phase.

    Grant tables and FIFOs can disappear mid-run (a crashed or migrated
    domain loses its table, a torn-down channel drops its FIFOs), so the
    objects seen when the phase starts are kept and summed again at the
    end together with any created since.  A table or FIFO both created
    and destroyed inside the phase is not seen.
    """

    def __init__(self, scn):
        self.scn = scn
        self._tables: dict = {}
        self._fifos: dict = {}
        self.start = self._read()

    def _track(self) -> None:
        for machine in self.scn.machines:
            for table in machine.hypervisor.grant_tables.values():
                self._tables.setdefault(id(table), (table, table.maps))
        for module in self.scn.modules.values():
            for channel in module.channels.values():
                fifo = channel.out_fifo
                if fifo is not None:
                    self._fifos.setdefault(id(fifo), (fifo, fifo.push_failures))

    def _read(self) -> dict:
        from repro import trace
        from repro.net.packet import WIRE_STATS
        from repro.xen.event_channel import NOTIFY_STATS

        self._track()
        stats = trace.engine_stats(self.scn.sim)
        timers = stats.get("timers", {})
        machines = self.scn.machines
        modules = self.scn.modules.values()
        return {
            "events": stats["events"],
            "wheel_ops": timers.get("scheduled", 0) + timers.get("cancelled", 0),
            "cpu_busy_s": sum(m.cpus.total_busy_time for m in machines),
            "domain_switches": sum(m.cpus.total_switches for m in machines),
            "evtchn_sends": NOTIFY_STATS.fifo_notifies + NOTIFY_STATS.ring_notifies,
            "grant_maps": sum(t.maps for t, _ in self._tables.values()),
            "ring_notifies": NOTIFY_STATS.ring_notifies,
            "ring_suppressed": NOTIFY_STATS.ring_suppressed,
            "bytes_packed": WIRE_STATS.bytes_packed,
            "l3_cache_hits": WIRE_STATS.l3_cache_hits,
            "l3_cache_misses": WIRE_STATS.l3_cache_misses,
            "tcp_retx": stats.get("tcp", {}).get("retransmissions", 0),
            "bridge_frames": sum(
                m.bridge.frames_forwarded + m.bridge.frames_flooded for m in machines
            ),
            "fifo_bytes": WIRE_STATS.fifo_bytes_in,
            "fifo_notifies": NOTIFY_STATS.fifo_notifies,
            "fifo_suppressed": NOTIFY_STATS.fifo_suppressed,
            "drain_batches": NOTIFY_STATS.drain_batches,
            "drain_entries": NOTIFY_STATS.drain_entries,
            "fifo_full": sum(f.push_failures for f, _ in self._fifos.values()),
            "pkts_via_channel": sum(m.pkts_via_channel for m in modules),
            "pkts_via_standard": sum(m.pkts_via_standard for m in modules),
        }

    def delta(self) -> dict:
        """Counter increments since construction."""
        end = self._read()
        base = dict(self.start)
        # Objects first seen after the start contribute from zero.
        base["grant_maps"] = sum(m0 for _, m0 in self._tables.values())
        base["fifo_full"] = sum(p0 for _, p0 in self._fifos.values())
        return {key: end[key] - base[key] for key in end}


# -- workloads ----------------------------------------------------------


def _run_stream_fifo(scn, size: dict, unload_xenloop: bool) -> dict:
    """UDP_STREAM in equal simulated slices per datagram size, then a
    UDP_RR slice for round-trip latency, between two co-resident guests."""
    from repro.workloads import netperf

    if unload_xenloop:  # doctored run: the FIFO-path check must fail
        for module in scn.modules.values():
            scn.sim.run_until_complete(scn.sim.process(module.unload()), timeout=5.0)
    slices = []
    for msg_size in STREAM_SIZES:
        r = netperf.udp_stream(scn, duration=size["slice_s"], msg_size=msg_size)
        slices.append(
            {
                "msg_size": msg_size,
                "bytes": r.bytes_received,
                "datagrams": r.bytes_received // msg_size,
                "sent": r.messages_sent,
                "drops": r.drops,
                "mbps": r.mbps,
            }
        )
    rr = netperf.udp_rr(scn, duration=size["rr_s"], req_size=RR_SIZE, resp_size=RR_SIZE)
    stream_bits = sum(s["bytes"] * 8 for s in slices)
    stream_secs = sum(s["bytes"] * 8 / (s["mbps"] * 1e6) for s in slices if s["mbps"] > 0)
    return {
        "slices": slices,
        "rr": {
            "transactions": rr.transactions,
            "p50_us": rr.p50_us,
            "p99_us": rr.p99_us,
            "mean_us": rr.latency_us,
        },
        "units": sum(s["datagrams"] for s in slices) + 2 * rr.transactions,
        "attempted": sum(s["sent"] for s in slices) + 2 * rr.transactions,
        "failed": 0,
        "sim_mbps": stream_bits / stream_secs / 1e6 if stream_secs > 0 else 0.0,
        "sim_p50_us": rr.p50_us,
        "sim_p99_us": rr.p99_us,
    }


def _serve(scn, requests: int, rate: float) -> dict:
    from repro.workloads import serving

    r = serving.open_loop_rr(
        scn,
        server="srv",
        clients=list(CLIENTS),
        requests=requests,
        rate=rate,
        req_size=REQ_SIZE,
        resp_size=RESP_SIZE,
        slo=SLO_S,
    )
    payload_bits = r.completed * (REQ_SIZE + RESP_SIZE) * 8
    return {
        "offered": r.offered,
        "completed": r.completed,
        "errors": r.errors,
        "duration_s": r.duration,
        "p50_us": r.p50_us,
        "p99_us": r.p99_us,
        "p999_us": r.p999_us,
        "p50_idx": r.p50_idx,
        "p99_idx": r.p99_idx,
        "slo_violations": r.slo_violations,
        "deadline_fires": r.deadline_fires,
        "reconnects": r.reconnects,
        "units": r.completed,
        "attempted": r.offered,
        "failed": r.offered - r.completed,
        "sim_mbps": payload_bits / r.duration / 1e6 if r.duration > 0 else 0.0,
        "sim_p50_us": r.p50_us,
        "sim_p99_us": r.p99_us,
        "sim_slo_miss_frac": (r.slo_violations + r.errors) / r.offered if r.offered else 1.0,
    }


def _run_serve_netfront(scn, size: dict) -> dict:
    return _serve(scn, size["requests"], NETFRONT_RATE)


def _churn_cycles(scn, cycles: int, period: float, log: list):
    """Start the churn schedule every ``period`` simulated seconds and
    record, at each cycle's end, whether it completed and how many
    requests were still queued (the backlog must drain within a cycle)."""
    from repro import trace

    sim = scn.sim
    for _ in range(cycles):
        c1_domid = scn.guests["c1"].domid
        spare = scn.guests["spare"]
        scn.start_churn()
        yield sim.timeout(period)
        c1 = scn.guests["c1"]
        serving = trace.engine_stats(sim).get("serving", {})
        log.append(
            {
                "c1_home": c1.machine.name == HOME_MACHINE,
                "c1_migrated": c1.domid != c1_domid,
                "spare_restarted": scn.guests["spare"] is not spare
                and scn.guests["spare"].alive,
                "backlog": serving.get("offered", 0)
                - serving.get("completed", 0)
                - serving.get("errors", 0),
            }
        )


def _run_serve_fifo_churn(scn, size: dict) -> dict:
    sim = scn.sim
    cycles, period = size["cycles"], CHURN_PERIOD_S
    log: list = []
    churn = sim.process(_churn_cycles(scn, cycles, period, log), name="bench-churn-cycles")
    out = _serve(scn, int(round(CHURN_RATE * period * cycles)), CHURN_RATE)
    # The last cycle's end-of-cycle probe may still be pending.
    sim.run_until_complete(churn, timeout=cycles * period)
    # Let re-established channels finish their handshakes.
    for _ in range(100):
        if _churn_channel_states(scn)[1]:
            break
        sim.run(until=sim.now + 0.01)
    states, connected = _churn_channel_states(scn)
    out["cycles"] = log
    out["cycles_expected"] = cycles
    out["channel_states"] = states
    out["channels_connected"] = connected
    return out


def _churn_channel_states(scn) -> tuple[dict, bool]:
    states = {
        name: sorted(ch.state.name for ch in scn.modules[name].channels.values())
        for name in ("srv", *CLIENTS)
    }
    connected = all(s and all(x == "CONNECTED" for x in s) for s in states.values())
    return states, connected


def run_phase(workload: str, scn, scale: str = "full", unload_xenloop: bool = False,
              profiler=None) -> dict:
    """Run one measured phase on an already-warmed scenario ``scn``.

    Returns the simulated results, the counter deltas, the phase's host
    wall time and, unless profiled, its host-time progress samples
    (``progress.ProgressSampler``).  ``profiler`` (a
    ``layerprof.LayerProfiler``), when given, runs the phase.
    """
    import time

    from perfbench.progress import ProgressSampler

    size = SCALES[scale][workload]
    counters = Counters(scn)

    def phase():
        if workload == "stream_fifo":
            return _run_stream_fifo(scn, size, unload_xenloop)
        if workload == "serve_netfront":
            return _run_serve_netfront(scn, size)
        return _run_serve_fifo_churn(scn, size)

    if profiler is None:
        with ProgressSampler(scn) as sampler:
            result = phase()
        result["progress"] = {"host_s": sampler.host_s, "sim_s": sampler.sim_s,
                              "kernel_s": sampler.kernel_s}
        wall = sampler.host_s[-1]
    else:
        t0 = time.perf_counter()
        result = profiler.run(phase)
        wall = time.perf_counter() - t0
    result["counts"] = counters.delta()
    result["wall_s"] = wall
    return result


# -- checks -------------------------------------------------------------


def check(workload: str, result: dict) -> list[str]:
    """Correctness failures of one measured run (empty when it passed)."""
    failures = []
    counts = result["counts"]
    if result["units"] <= 0:
        failures.append("no units of work completed")
    if workload == "serve_netfront":
        if counts["fifo_bytes"] != 0 or counts["pkts_via_channel"] != 0:
            failures.append(
                f"netfront run moved {counts['fifo_bytes']} B through a XenLoop FIFO"
            )
    elif counts["fifo_bytes"] <= 0:
        failures.append("FIFO path unused: 0 bytes moved through the XenLoop FIFO")
    if workload == "stream_fifo":
        for s in result["slices"]:
            if s["datagrams"] <= 0:
                failures.append(f"{s['msg_size']} B slice delivered no datagram")
        if result["rr"]["transactions"] <= 0:
            failures.append("UDP_RR slice completed no transaction")
    else:
        settled = result["completed"] + result["errors"]
        if settled != result["offered"]:
            failures.append(
                f"requests lost: completed {result['completed']} + errors "
                f"{result['errors']} != offered {result['offered']}"
            )
    if workload == "serve_fifo_churn":
        if len(result["cycles"]) != result["cycles_expected"]:
            failures.append(f"{len(result['cycles'])} of {result['cycles_expected']} "
                            "churn cycles ran")
        for i, cycle in enumerate(result["cycles"]):
            if not (cycle["c1_home"] and cycle["c1_migrated"] and cycle["spare_restarted"]):
                failures.append(f"churn cycle {i} did not finish: {cycle}")
        drained = result["offered"] * BACKLOG_FRAC / max(1, len(result["cycles"]))
        for i, cycle in enumerate(result["cycles"]):
            if cycle["backlog"] > drained:
                failures.append(f"churn cycle {i} ended with {cycle['backlog']} requests queued")
        if not result["channels_connected"]:
            failures.append(f"channels not CONNECTED at the end: {result['channel_states']}")
    return failures


def digest(result: dict) -> str:
    """sha256 over every simulated result and deterministic count."""
    sim_only = {k: v for k, v in result.items() if k not in ("wall_s", "progress")}
    blob = json.dumps(sim_only, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
