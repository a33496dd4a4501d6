"""Every way of driving the engine fires the same entries in the same order.

``step()``, ``run()``, ``run(until)`` and ``run_until_complete`` all
wrap one dispatch loop.  This property test generates seeded random
schedules that mix every kind of calendar entry -- timeouts,
cancellable ``call_after`` timers, CPU segments queueing behind vCPU
limits (``execute`` and ``execute_call``), zero-delay succeeds and
interrupts -- and checks that all four drivers produce the same
``(time, label)`` log, the same ``event_count`` and the same timer
counters.
"""

import random

import pytest

from repro.sim.engine import Interrupt, Simulator
from repro.sim.resources import CPUCores

SEEDS = range(24)
N_PROCS = 16
N_OPS = 30
#: chunk lengths for the chunked drivers (boundaries fall anywhere).
CHUNKS = (2.0**-15, 3e-4, 2.0**-9, 0.03, 0.3)


def _delay(rng):
    """Delays on a coarse power-of-two grid: sums stay exact, so
    entries of different kinds often tie in time."""
    scale = rng.choice([2.0**-16, 2.0**-13, 2.0**-10, 2.0**-6, 2.0**-2])
    return rng.randint(0, 8) * scale


def _scripts(seed):
    """Pre-drawn per-process op lists, so the schedule does not depend
    on the order the drivers happen to fire things in."""
    rng = random.Random(seed)
    kinds = ["heap", "call_after", "call_after", "cancel", "cancel", "cpu", "cpu_call", "succeed", "fired", "interrupt"]
    scripts = []
    for p in range(N_PROCS):
        ops = []
        for _ in range(N_OPS):
            kind = rng.choice(kinds)
            if kind in ("heap", "call_after"):
                ops.append((kind, _delay(rng)))
            elif kind == "cancel":
                ops.append((kind, rng.randint(0, N_PROCS * N_OPS)))
            elif kind in ("cpu", "cpu_call"):
                cost = rng.choice([0.0, 2.0**-16, 3 * 2.0**-16, 2.0**-13])
                ops.append((kind, (rng.choice(["g1", "g2", "dom0"]), cost)))
            elif kind == "interrupt":
                ops.append((kind, rng.randrange(N_PROCS)))
            else:
                ops.append((kind, None))
        scripts.append(ops)
    return scripts


def _build(seed):
    """A fresh simulator loaded with the seed's schedule; returns
    ``(sim, log, waiter)`` where ``waiter`` finishes with every process."""
    sim = Simulator()
    cpus = CPUCores(sim, 2, switch_penalty=2.0**-18)
    cpus.set_vcpu_limit("g1", 1)
    cpus.set_vcpu_limit("g2", 1)
    log = []
    timers = []
    procs = []

    def note(label):
        log.append((sim.now, label))

    def body(p, ops):
        for i, (kind, arg) in enumerate(ops):
            tag = f"p{p}.{i}.{kind}"
            try:
                if kind == "heap":
                    yield sim.timeout(arg)
                elif kind == "call_after":
                    timers.append(sim.call_after(arg, lambda t=tag: note(t + ".fire")))
                elif kind == "cancel":
                    # Half the cancels hit the earliest armed timer: the
                    # one most likely to be the heap's head.
                    armed = [t for t in timers if t._entry is not None]
                    if armed:
                        victim = min(armed, key=lambda t: t._entry[:2]) if arg % 2 else armed[arg % len(armed)]
                        note(f"{tag}.{victim.cancel()}")
                elif kind == "cpu":
                    yield cpus.execute(*arg)
                elif kind == "cpu_call":
                    cpus.execute_call(*arg, lambda t=tag: note(t + ".done"))
                elif kind == "succeed":
                    ev = sim.event()
                    ev.succeed(tag)
                    note((yield ev))
                elif kind == "fired":
                    ev = sim.event()
                    ev.succeed()
                    yield sim.timeout(0)
                    yield ev  # already processed: resumes via the run queue
                elif kind == "interrupt":
                    target = procs[arg]
                    if target.is_alive and target is not procs[p]:
                        target.interrupt(tag)
            except Interrupt as intr:
                note(f"{tag}.interrupted-by-{intr.cause}")
            note(tag)
        return p

    for p, ops in enumerate(_scripts(seed)):
        procs.append(sim.process(body(p, ops), name=f"p{p}"))

    def wait_all():
        yield sim.all_of(procs)
        note("all-done")

    return sim, log, sim.process(wait_all(), name="waiter")


def _drive_run(sim, rng, waiter):
    sim.run()


def _drive_run_until(sim, rng, waiter):
    while not sim._idle():
        sim.run(until=sim.now + rng.choice(CHUNKS))


def _drive_step(sim, rng, waiter):
    while True:
        try:
            sim.step()
        except IndexError:
            return


def _drive_until_complete(sim, rng, waiter):
    sim.run_until_complete(waiter)
    sim.run()  # timers armed past the last process


DRIVERS = [
    _drive_run,
    _drive_run_until,
    _drive_step,
    _drive_until_complete,
]


def _outcome(seed, driver):
    sim, log, waiter = _build(seed)
    driver(sim, random.Random(seed), waiter)
    assert sim._idle()
    return log, sim.event_count, sim.timer_counters()


@pytest.mark.parametrize("seed", SEEDS)
def test_all_drivers_fire_identically(seed):
    ref_log, ref_count, ref_timers = _outcome(seed, _drive_run)
    assert any(label == "all-done" for _, label in ref_log)
    for driver in DRIVERS[1:]:
        log, count, timers = _outcome(seed, driver)
        assert log == ref_log, driver.__name__
        assert count == ref_count, driver.__name__
        assert timers == ref_timers, driver.__name__


def test_schedules_exercise_every_source():
    """The generator really mixes the sources the loop merges."""
    sim, log, waiter = _build(0)
    sim.run()
    labels = " ".join(lbl for _, lbl in log)
    for needle in ("heap", ".fire", "cancel", "cpu", ".done", "succeed", "interrupted-by"):
        assert needle in labels
    assert sim.timers_cancelled > 0
    assert sim.event_count > 300


def test_step_fires_inline_cpu_wake_with_its_completion():
    """When nothing else is due at the completion instant, the segment's
    waiters run inline: one ``step()`` fires the completion and its
    wake-up, and ``event_count`` still counts both."""
    sim = Simulator()
    cpus = CPUCores(sim, 1)
    woke = []

    def worker():
        yield cpus.execute("g", 1e-3)
        woke.append(sim.now)

    sim.process(worker())
    sim.step()  # process start: submits the segment
    assert sim.event_count == 1
    sim.step()
    assert woke == [1e-3] and sim.event_count == 3


@pytest.mark.parametrize("calendar", ["heap", "call_after"])
def test_cpu_wake_queues_behind_same_time_entries(calendar):
    """An entry due at the completion instant with an older sequence
    number fires before the wake-up, exactly as if the wake-up had been
    queued with ``succeed()``: the inline path must not jump it."""
    sim = Simulator()
    cpus = CPUCores(sim, 1)
    log = []

    def worker():
        done = cpus.execute("g", 2.0**-10)
        if calendar == "heap":
            sim.timeout(2.0**-10).callbacks.append(lambda ev: log.append("timer"))
        else:
            sim.call_after(2.0**-10, lambda: log.append("timer"))
        yield done
        log.append("woke")

    sim.process(worker())
    sim.run()
    assert log == ["timer", "woke"]
    assert sim.event_count == 5  # start, completion, timer, wake-up, exit
