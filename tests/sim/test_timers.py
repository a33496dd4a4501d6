"""Cancellable timers: callbacks on the engine's one delay heap.

``sim.call_at``/``sim.call_after`` arm a :class:`~repro.sim.engine.Timer`
that takes one sequence number, exactly like a ``Timeout`` created at the
same point -- so a chain of timer callbacks fires in the same order as a
chain of processes sleeping on ``sim.timeout``.  ``cancel()`` takes the
entry off the heap: a cancelled timer never fires, never counts as an
event, never moves ``now`` and never keeps the calendar busy.

Tests whose names say "wheel" keep the names they had when these timers
lived on a separate hierarchical timer wheel.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator


def _fire_log(kind: str, schedules, until: float = None):
    """Run one simulator firing ``schedules`` = [(tag, [delay, ...])]
    delay chains; returns the (now, tag, hop) fire log.

    ``kind`` picks how each hop waits: "heap" (a process yielding
    ``sim.timeout``), "timer" (a ``call_after`` callback arming the next
    hop), or "mixed" (a process alternating ``sim.timeout`` with an event
    a timer succeeds, arming and cancelling a decoy timer on every hop).
    """
    sim = Simulator()
    log = []

    def proc(tag, delays):
        for hop, delay in enumerate(delays):
            if kind == "heap" or hop % 2:
                yield sim.timeout(delay)
            else:
                ev = sim.event()
                sim.call_after(delay, ev.succeed)
                sim.call_after(delay / 2, lambda: log.append("decoy")).cancel()
                yield ev
            log.append((sim.now, tag, hop))

    def chain(tag, delays, hop=0):
        def fire():
            log.append((sim.now, tag, hop))
            if hop + 1 < len(delays):
                chain(tag, delays, hop + 1)

        sim.call_after(delays[hop], fire)

    for tag, delays in schedules:
        if kind == "timer":
            chain(tag, delays)
        else:
            sim.process(proc(tag, delays), name=tag)
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    return log


class TestHeapEquivalence:
    def test_single_timer(self):
        assert _fire_log("timer", [("a", [0.5])]) == _fire_log("heap", [("a", [0.5])])

    def test_same_tick_ties_keep_seq_order(self):
        # Many timers at the *same* delay from the same time: creation
        # (seq) order decides, exactly as for timeouts.
        schedules = [(f"t{i}", [0.001, 0.001, 0.001]) for i in range(8)]
        assert _fire_log("timer", schedules) == _fire_log("heap", schedules)

    def test_randomized_chains_match_heap(self):
        for seed in range(20):
            rng = random.Random(seed)
            schedules = [
                (
                    f"p{i}",
                    [rng.uniform(0, rng.choice([1e-4, 0.01, 2.0, 400.0])) for _ in range(rng.randrange(1, 6))],
                )
                for i in range(rng.randrange(2, 8))
            ]
            assert _fire_log("timer", schedules) == _fire_log("heap", schedules), seed

    def test_mixed_calendars_match_heap(self):
        # Timer-driven and timeout-driven hops inside one process, with
        # a cancelled decoy per timer hop: cancellation reorders nothing.
        for seed in range(40):
            rng = random.Random(1000 + seed)
            schedules = [
                (
                    f"p{i}",
                    [rng.uniform(0, 0.05) for _ in range(rng.randrange(1, 8))],
                )
                for i in range(rng.randrange(2, 10))
            ]
            assert _fire_log("mixed", schedules) == _fire_log("heap", schedules), seed

    def test_run_until_stops_both_calendars(self):
        schedules = [("a", [0.1, 0.1, 0.1]), ("b", [0.05, 0.2])]
        for until in (0.05, 0.15, 0.25, 1.0):
            assert _fire_log("timer", schedules, until=until) == _fire_log(
                "heap", schedules, until=until
            ), until


class TestWheelTimers:
    def test_call_after_runs_callback(self):
        sim = Simulator()
        fired = []
        sim.call_after(0.25, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.25]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(0.1)
            sim.call_at(0.4, lambda: fired.append(sim.now))

        sim.process(proc())
        sim.run()
        assert fired == [0.4]

    def test_cancel_is_lazy_and_idempotent(self):
        sim = Simulator()
        fired = []
        keep = sim.call_after(0.2, lambda: fired.append("keep"))
        drop = sim.call_after(0.1, lambda: fired.append("drop"))
        assert drop.cancel() is True
        assert drop.cancel() is False  # already cancelled
        sim.run()
        assert fired == ["keep"]
        assert keep.cancel() is False  # already fired
        assert sim.timer_counters() == {"scheduled": 2, "fired": 1, "cancelled": 1, "live": 0}

    def test_mass_cancellation_leaves_no_live_entries(self):
        sim = Simulator()
        handles = [sim.call_after(0.1 + i * 0.01, lambda: None) for i in range(100)]
        for h in handles[1:]:
            h.cancel()
        assert sim.timer_counters()["live"] == 1
        sim.run()
        assert sim._idle()
        assert sim.timer_counters() == {"scheduled": 100, "fired": 1, "cancelled": 99, "live": 0}

    def test_negative_delay_rejected(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(float("inf"), lambda: None)

    def test_snapshot_state_only_when_live(self):
        # A live timer is a calendar entry like any other; a cancelled
        # one leaves no trace.
        sim = Simulator()
        handle = sim.call_after(0.5, lambda: None)
        assert sim.snapshot_state()["calendar"] == [[0.5, 1, "Timer"]]
        handle.cancel()
        assert sim.snapshot_state()["calendar"] == []

    def test_cancelled_timer_leaves_event_count_and_now_untouched(self):
        sim = Simulator()
        fired = []
        sim.call_after(0.3, lambda: None).cancel()
        sim.timeout(0.1).callbacks.append(lambda ev: fired.append(sim.now))
        sim.call_after(0.2, lambda: None).cancel()
        sim.run()
        assert fired == [0.1]
        assert sim.now == 0.1
        assert sim.event_count == 1


class TestEngineIntegration:
    def test_peek_sees_wheel_head(self):
        sim = Simulator()
        sim.call_after(0.25, lambda: None)
        sim.call_after(0.125, lambda: None)
        assert sim.peek() == 0.125

    def test_step_consumes_wheel_entry(self):
        sim = Simulator()
        fired = []
        sim.call_after(0.125, lambda: fired.append(True))
        sim.step()
        assert sim.now == 0.125 and fired == [True]

    def test_run_until_complete_timeout_via_wheel(self):
        sim = Simulator()

        def sleeper():
            ev = sim.event()
            sim.call_after(10.0, ev.succeed)
            yield ev

        proc = sim.process(sleeper())
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_complete(proc, timeout=1.0)

    def test_deadlock_still_detected_with_spent_wheel(self):
        # Every timer spent or cancelled: nothing is left to run, so the
        # waiting process is deadlocked, not timed out.
        sim = Simulator()

        def waiter():
            handles = [sim.call_after(0.2 + i * 0.01, lambda: None) for i in range(50)]
            yield sim.timeout(0.1)
            for h in handles:
                h.cancel()
            yield sim.event()  # never succeeds

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc, timeout=5.0)
