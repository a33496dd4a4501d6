"""Two teardowns of one channel that overlap in simulated time.

A locally initiated teardown (migration, unload, idle expiry) and the
peer-initiated one (the drain worker seeing the peer's FIFOs go
inactive) can both reach :meth:`Channel.disengage` while the other is
still yielding on a CPU charge.  Whichever finishes first closes the
event-channel port; the other must not notify over, or close, a port
that is already gone.  Churned serving runs used to crash here with
``AttributeError: 'NoneType' object has no attribute 'closed'``.
"""

import pytest

from repro import scenarios
from repro.core.channel import ChannelState
from repro.core.control import ChannelEvent

from .conftest import FAST, first_channel, udp_once


def _connected(node_attr):
    scn = scenarios.xenloop(FAST)
    scn.warmup(max_wait=10.0)
    channel = first_channel(scn, getattr(scn, node_attr))
    assert channel.state is ChannelState.CONNECTED
    return scn, channel


def _run_all(sim, procs):
    for proc in procs:
        sim.run_until_complete(proc, timeout=5.0)


@pytest.mark.parametrize("node_attr", ["node_a", "node_b"])  # both roles
def test_notifying_disengage_overlapped_by_silent_one(node_attr):
    scn, channel = _connected(node_attr)
    sim = scn.sim
    port = channel.port
    procs = [
        sim.process(channel.disengage(notify_peer=True), name="peer-fin-disengage"),
        sim.process(channel.disengage(notify_peer=False), name="local-disengage"),
    ]
    _run_all(sim, procs)
    assert channel.port is None and port.closed
    assert channel.out_fifo is None and channel.in_fifo is None


@pytest.mark.parametrize("local_first", [True, False])
def test_local_teardown_overlapped_by_peer_fin(local_first):
    scn, channel = _connected("node_a")
    sim = scn.sim
    ctrl = channel.ctrl
    port = channel.port
    teardowns = [ctrl.teardown(ChannelEvent.PRE_MIGRATE), ctrl.peer_fin()]
    if not local_first:
        teardowns.reverse()
    _run_all(sim, [sim.process(gen, name="teardown") for gen in teardowns])
    assert channel.port is None and port.closed
    assert channel.state is ChannelState.CLOSED
    assert channel not in scn.xenloop_module(scn.node_a).channels.values()
    # Traffic between the pair still gets through afterwards.
    assert udp_once(scn, b"after-overlap") == b"after-overlap"
