"""Engine internals: callback detachment, interrupt races, rng."""

import pytest

from repro.sim.engine import Interrupt, SimulationError, Simulator


class TestInterruptRaces:
    def test_interrupt_detaches_from_shared_event(self, sim):
        """Interrupting a process waiting on an event must remove its
        callback so a later firing doesn't resume it twice."""
        shared = sim.event()
        log = []

        def gen():
            try:
                yield shared
                log.append("event")
            except Interrupt:
                log.append("interrupt")
                yield sim.timeout(5.0)
                log.append("slept")

        proc = sim.process(gen())

        def driver():
            yield sim.timeout(1.0)
            proc.interrupt()
            yield sim.timeout(1.0)
            shared.succeed("late")  # must NOT resume proc again

        sim.process(driver())
        sim.run()
        assert log == ["interrupt", "slept"]

    def test_interrupt_racing_with_completion(self, sim):
        """Interrupt issued in the same instant the waited event fires:
        exactly one resume wins and nothing crashes."""
        ev = sim.event()
        outcome = []

        def gen():
            try:
                value = yield ev
                outcome.append(("value", value))
            except Interrupt as intr:
                outcome.append(("interrupt", intr.cause))

        proc = sim.process(gen())

        def driver():
            yield sim.timeout(1.0)
            ev.succeed("win")
            if proc.is_alive:
                proc.interrupt("race")

        sim.process(driver())
        sim.run()
        assert len(outcome) == 1

    def test_interrupt_takes_pending_resume_of_fired_event(self, sim):
        """Yielding an already-fired event parks the process on a resume
        record.  An interrupt queued just before takes that wakeup, and
        the stale record must not resume the generator a second time."""
        shared = sim.event()
        log = []

        def gen():
            fired = sim.event().succeed("early")
            log.append(("shared", (yield shared)))
            try:
                log.append(("value", (yield fired)))
            except Interrupt as intr:
                log.append(("interrupt", intr.cause))
            log.append(("slept", (yield sim.timeout(1.0, "t"))))

        proc = sim.process(gen())

        def driver():
            yield sim.timeout(0.5)
            shared.succeed("go")  # resumes proc first ...
            proc.interrupt("first")  # ... which then parks on ``fired``

        sim.process(driver())
        sim.run()
        assert log == [("shared", "go"), ("interrupt", "first"), ("slept", "t")]
        assert sim.now == 1.5

    def test_interrupting_finished_process_during_same_step(self, sim):
        def quick():
            yield sim.timeout(1.0)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != [b.rng.random() for _ in range(5)]

    def test_default_seed_is_stable(self):
        a = Simulator()
        b = Simulator()
        assert a.rng.random() == b.rng.random()


class TestProcessSemantics:
    def test_immediate_return_process(self, sim):
        def gen():
            return 42
            yield  # pragma: no cover

        assert sim.run_until_complete(sim.process(gen())) == 42

    def test_chained_already_processed_events(self, sim):
        """Yielding a chain of already-processed events still makes
        forward progress (bounce events)."""
        evs = []
        for i in range(5):
            ev = sim.event()
            ev.succeed(i)
            evs.append(ev)
        sim.run()

        def gen():
            total = 0
            for ev in evs:
                total += yield ev
            return total

        assert sim.run_until_complete(sim.process(gen())) == 10

    def test_process_name_from_generator(self, sim):
        def my_worker():
            yield sim.timeout(0)

        proc = sim.process(my_worker())
        assert "my_worker" in proc.name

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)
