"""Fork-equivalence goldens: a child forked from a warm snapshot must
reproduce a cold run bit for bit.

This is the determinism contract the whole checkpoint/warm-start
feature rests on: ``os.fork`` duplicates the live simulator (generator
frames and all), so running the same workload in the child yields
exactly the event stream -- results, wire counters, notify counters --
that a never-forked process would have produced.  Pinned against the
same goldens as ``test_fastpath_determinism.py``.
"""

import pytest

from repro import scenarios
from repro.scenarios import fault_matrix as fm
from repro.net.packet import WIRE_STATS
from repro.sim.snapshot import HAS_FORK, SimSnapshot
from repro.workloads.netperf import udp_stream
from tests.integration.test_fastpath_determinism import (
    FAST,
    GOLDEN_NOTIFY_COUNTERS,
    GOLDEN_UDP_WARM_XENLOOP,
    GOLDEN_WIRE_COUNTERS,
)
from repro.xen.event_channel import NOTIFY_STATS

pytestmark = pytest.mark.skipif(not HAS_FORK, reason="needs os.fork")


def _stream_with_counters(cluster):
    WIRE_STATS.reset()
    NOTIFY_STATS.reset()
    r = udp_stream(cluster, msg_size=4096, duration=0.02)
    return (
        (r.bytes_received, r.mbps, r.messages_sent, r.drops),
        WIRE_STATS.snapshot(),
        NOTIFY_STATS.snapshot(),
    )


@pytest.fixture(scope="module")
def warm_snap():
    scn = scenarios.build("xenloop", FAST, seed=7)
    scn.warmup(max_wait=20.0)
    return SimSnapshot.capture(scn, label="warm xenloop seed=7")


class TestForkEquivalence:
    def test_fork_replays_warm_goldens(self, warm_snap):
        """One forked run reproduces the pinned warm-xenloop goldens:
        simulated result AND serialization AND notify counters."""
        result, wire, notify = warm_snap.fork(_stream_with_counters)
        assert result == GOLDEN_UDP_WARM_XENLOOP
        assert wire == GOLDEN_WIRE_COUNTERS
        assert notify == GOLDEN_NOTIFY_COUNTERS

    def test_repeated_forks_identical(self, warm_snap):
        """N forks of one snapshot are N bit-identical replays."""
        a = warm_snap.fork(_stream_with_counters)
        b = warm_snap.fork(_stream_with_counters)
        assert a == b

    def test_parent_untouched_by_forks(self, warm_snap):
        before = (
            warm_snap.cluster.sim.now,
            warm_snap.cluster.sim.event_count,
        )
        warm_snap.fork(_stream_with_counters)
        assert (
            warm_snap.cluster.sim.now,
            warm_snap.cluster.sim.event_count,
        ) == before

    def test_fork_propagates_child_errors(self, warm_snap):
        from repro.sim.snapshot import SnapshotForkError

        def boom(_cluster):
            raise RuntimeError("child exploded")

        with pytest.raises(SnapshotForkError, match="child exploded"):
            warm_snap.fork(boom)


class TestFaultMatrixForking:
    def test_forked_cell_equals_cold_cell(self):
        """Fork-per-cell reproduces the cold per-cell result exactly,
        including the processed-event count (the determinism check)."""
        cell = next(c for c in fm.matrix_cells() if c.name == "drop:CreateChannel")
        snap = fm.pair_snapshot(seed=0, machines=cell.machines)
        forked = fm.run_cell_forked(cell, snap, seed=0)
        cold = fm.run_cell(cell, seed=0)
        assert forked.pop("warm_fork") is True
        assert forked == cold

    def test_full_matrix_warm_forked(self):
        """The default sweep runs every cell as a fork and converges."""
        results = fm.run_fault_matrix()
        assert len(results) == len(fm.matrix_cells())
        assert all(r["ok"] for r in results), [
            (r["cell"], r["detail"]) for r in results if not r["ok"]
        ]
        assert all(r.get("warm_fork") for r in results)

    def test_matrix_warm_equals_cold(self):
        """Cell-for-cell bit equality between the warm-forked sweep and
        a cold build per cell (events included)."""
        warm = fm.run_fault_matrix()
        cold = [fm.run_cell(c) for c in fm.matrix_cells()]
        for w, c in zip(warm, cold):
            w = dict(w)
            assert w.pop("warm_fork") is True
            assert w == c
