"""Core discrete-event simulation engine.

The engine is deliberately small and dependency-free.  It provides:

* :class:`Simulator` -- the event calendar and main loop.
* :class:`Event` -- a one-shot occurrence that processes can wait on.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- a generator-based coroutine driven by the engine.
* :class:`AnyOf` / :class:`AllOf` -- composite wait conditions.
* :class:`Interrupt` -- exception injected into a process by
  :meth:`Process.interrupt`.

Time is a float in **seconds**.  Events scheduled for the same instant
fire in FIFO order of scheduling (a monotonically increasing sequence
number breaks ties), which makes simulations fully deterministic.

Fast-path design
----------------
Profiling the paper workloads shows >90 % of wall-clock time inside the
engine and its per-event allocations, so the hot paths are organised
around these ideas:

* **Immediate run queue.**  Zero-delay scheduling (``succeed()``,
  process init, bounces, interrupts -- the overwhelming majority of
  events) appends to a plain deque instead of the heap.  Because
  simulated time never decreases, the deque is always sorted by
  ``(time, seq)``; merging the deque head with the heap head gives a
  global firing order *identical* to a single heap keyed on
  ``(time, seq)`` -- same-time FIFO semantics are preserved exactly, at
  O(1) instead of O(log n) per event.
* **One dispatch loop.**  :meth:`Simulator._drain` is the only loop
  that fires calendar entries; :meth:`~Simulator.step`,
  :meth:`~Simulator.run` and :meth:`~Simulator.run_until_complete`
  wrap it with a time limit, a process to stop on, and an entry
  budget.
* **Cancellable timers on the same heap.**  :meth:`Simulator.call_at`
  puts a :class:`Timer` on the delay heap; ``cancel()`` takes it off,
  so the loop merges exactly two sources.
* **Allocation-free resume.**  Process resumption has one body,
  :meth:`Process._resume`, called with the fired Event or with a tiny
  ``__slots__`` record (:class:`_Resume`, :class:`_InterruptResume`)
  carrying ``_value``/``_ok`` in place of a bounce Event and closure.
* **One object per CPU segment.**  :meth:`repro.sim.resources.CPUCores.execute`
  returns an Event that is also the calendar entry ending the segment,
  and runs its waiters inline when their wake-up would fire next anyway.
  The wake-up still takes its sequence number and is still counted, so
  :attr:`Simulator.event_count` counts every calendar entry *and* every
  inline wake-up: the same number as if each wake-up had been queued.
* **No f-strings on hot constructors.**  Event/timeout names are static
  strings; pretty names are built lazily in ``__repr__`` only.

Anything placed on the calendar only needs a ``_process()`` method; the
heap/deque entries are ``(time, seq, obj)`` tuples and ``obj`` is never
compared (seq is unique).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Timer",
]

_INF = float("inf")


class SimulationError(Exception):
    """Raised for engine misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the calendar, callbacks not yet run
PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence.

    Processes wait on an event by yielding it.  Code triggers it with
    :meth:`succeed` or :meth:`fail`.  Once processed an event holds its
    ``value`` (or the exception) forever; waiting on an already-processed
    event resumes the waiter immediately.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok = True
        self.name = name

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or stored exception); raises while pending."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        if delay == 0.0:
            # Immediate run queue: O(1), bypasses the heap entirely.
            sim = self.sim
            sim._seq += 1
            sim._ready.append((sim.now, sim._seq, self))
        else:
            self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._state = TRIGGERED
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    # -- engine internals ----------------------------------------------
    def _process(self) -> None:
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<Event {self.name or hex(id(self))} {state[self._state]}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim._schedule(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout({self.delay}) {hex(id(self))}>"


class Timer:
    """A cancellable callback on the delay heap (see :meth:`Simulator.call_at`).

    Not an Event -- nothing waits on it.  Arming takes one sequence
    number, so the timer fires at the ``(time, seq)`` a Timeout created
    at the same point would.  :meth:`cancel` takes the entry off the
    heap: a cancelled timer never fires, never counts in
    ``event_count``, never moves ``now`` and never keeps the calendar
    from being idle.
    """

    __slots__ = ("sim", "callback", "_entry")

    def __init__(self, sim: "Simulator", time: float, callback: Callable[[], None]):
        self.sim = sim
        self.callback = callback
        sim._seq += 1
        self._entry = (time, sim._seq, self)
        heapq.heappush(sim._queue, self._entry)
        sim.timers_scheduled += 1

    def cancel(self) -> bool:
        """Remove the timer from the calendar; True if it had neither
        fired nor been cancelled yet."""
        entry = self._entry
        if entry is None:
            return False
        self._entry = None
        queue = self.sim._queue
        i = queue.index(entry)
        last = queue.pop()
        if i < len(queue):
            queue[i] = last
            heapq.heapify(queue)
        self.sim.timers_cancelled += 1
        return True

    def _process(self) -> None:
        self._entry = None
        self.sim.timers_fired += 1
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self._entry is not None else "spent"
        return f"<Timer {state} {hex(id(self))}>"


class _Resume:
    """Calendar entry that resumes a process with a fixed value.

    Replaces the bounce/init Event-plus-lambda pattern: one small
    ``__slots__`` record instead of an Event, a callbacks list, and a
    closure.  It carries ``_value``/``_ok`` like the event it stands for,
    so :meth:`Process._resume` takes either.  Scheduling order (and thus
    determinism) is unchanged -- the record consumes one sequence number
    exactly like the Event it replaces.
    """

    __slots__ = ("process", "_value", "_ok")

    #: read by :meth:`Process._detach`: a record sits on no callbacks list.
    _state = PROCESSED

    def __init__(self, process: "Process", value: Any, ok: bool):
        self.process = process
        self._value = value
        self._ok = ok
        process._waiting_on = self

    def _process(self) -> None:
        proc = self.process
        if proc._waiting_on is self:  # else an interrupt took this wakeup
            proc._resume(self)


class _InterruptResume:
    """Calendar entry that throws :class:`Interrupt` into a process."""

    __slots__ = ("process", "_value", "_ok")

    def __init__(self, process: "Process", cause: Any):
        self.process = process
        self._value = Interrupt(cause)
        self._ok = False

    def _process(self) -> None:
        proc = self.process
        if proc._state != PENDING:
            return  # process finished before the interrupt fired
        proc._detach()
        proc._resume(self)


class _Condition(Event):
    """Base for AnyOf/AllOf.  Fires when ``_check`` says it is satisfied."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # Register after validation so a raise leaves no dangling callbacks.
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev.ok}

    def _on_event(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    A process wraps a generator that yields :class:`Event` objects.  The
    process itself is an event that fires (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        self.generator = generator
        #: the Event (or resume record) the process is parked on.
        self._waiting_on: Any = None
        # Kick off the process via an immediately-scheduled resume record.
        sim._seq += 1
        sim._ready.append((sim.now, sim._seq, _Resume(self, None, True)))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed is handled gracefully (the interrupt
        wins; the original event's value is discarded for this wakeup).
        """
        if self._state != PENDING:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim.now, sim._seq, _InterruptResume(self, cause)))

    # -- engine internals ----------------------------------------------
    def _detach(self) -> None:
        target = self._waiting_on
        if target is not None and target._state != PROCESSED:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None

    def _resume(self, event) -> None:
        """Advance the generator one yield with ``event``'s outcome:
        send its value on ok, throw it otherwise.  ``event`` is the
        Event the process waited on or a resume record standing in for
        one (both carry ``_value``/``_ok``)."""
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.sim.strict:
                raise
            self.fail(exc)
            return
        if type(target) is not Event and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Events"
            )
        if target._state == PROCESSED:
            # Already-fired event: resume on the next scheduling round.
            sim = self.sim
            sim._seq += 1
            sim._ready.append((sim.now, sim._seq, _Resume(self, target._value, target._ok)))
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Simulator:
    """Event calendar and main loop.

    Parameters
    ----------
    strict:
        When True (the default), an uncaught exception inside a process
        propagates out of :meth:`run` immediately -- the right behaviour
        for tests.  When False the exception is stored on the process
        event, mimicking SimPy's behaviour for supervised process trees.
    """

    def __init__(self, strict: bool = True, seed: int = 0):
        self.now: float = 0.0
        self.strict = strict
        #: delayed events: heap of (time, seq, obj).
        self._queue: list[tuple[float, int, Any]] = []
        #: zero-delay events: deque of (time, seq, obj), always sorted
        #: by construction because ``now`` is monotonically non-decreasing.
        self._ready: deque[tuple[float, int, Any]] = deque()
        self._seq = 0
        self._seed = seed
        self._rng = None
        #: lifetime counts of :class:`Timer` callbacks (see :meth:`call_at`).
        self.timers_scheduled = 0
        self.timers_fired = 0
        self.timers_cancelled = 0
        #: total calendar entries processed (events, timeouts, resumes).
        self._event_count = 0
        #: optional :class:`repro.faults.FaultPlan` consulted by the fault
        #: tap points (control frames, notifies, grant maps); None = the
        #: taps are pure no-ops.  The engine itself never reads this.
        self.fault_plan = None

    @property
    def rng(self):
        """Seeded numpy Generator shared by all stochastic model elements
        (lazily created so pure-logic simulations never touch numpy RNG)."""
        if self._rng is None:
            from repro.sim.rng import make_rng

            self._rng = make_rng(self._seed)
        return self._rng

    @property
    def event_count(self) -> int:
        """Calendar entries processed since construction.

        Counts everything the dispatch loop pops -- events, timeouts,
        and the engine's internal resume records -- plus the CPU
        wake-ups run inline (see :class:`repro.sim.resources.CPUCores`),
        exactly as if they had been queued; so ``event_count / wall_s``
        is the engine-throughput figure tracked by
        ``benchmarks/bench_engine_throughput.py``.
        """
        return self._event_count

    def snapshot_state(self) -> dict:
        """The engine calendar and counters as a plain, JSON-able dict.

        Captures everything that determines future scheduling order
        except the generator frames themselves: ``now``, the sequence
        counter (exact tie-break order), the event count, the seed, the
        RNG bit-generator state, and a summary of the pending calendar
        (sizes plus the (time, seq, kind) triple of every entry).  Live
        coroutines cannot be serialized -- process continuation relies
        on :meth:`repro.sim.snapshot.SimSnapshot.fork` (OS-level fork)
        or deterministic replay; this dict is the *identity* of the
        simulator state, used for digests, inspection, and drift checks.
        """
        from repro.sim.rng import rng_state

        calendar = [
            [t, seq, type(obj).__name__]
            for (t, seq, obj) in sorted(self._queue)
        ]
        ready = [[t, seq, type(obj).__name__] for (t, seq, obj) in self._ready]
        return {
            "now": self.now,
            "seq": self._seq,
            "event_count": self._event_count,
            "seed": self._seed if isinstance(self._seed, int) else repr(self._seed),
            "rng": rng_state(self.rng),
            "queue_len": len(self._queue),
            "ready_len": len(self._ready),
            "calendar": calendar,
            "ready": ready,
            "has_fault_plan": self.fault_plan is not None,
        }

    # -- event factories ------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def call_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback()`` at absolute sim time ``time``; the returned
        :class:`Timer` can be cancelled until it fires."""
        if not self.now <= time < _INF:
            raise SimulationError(f"timer at {time} is not in [now={self.now}, inf)")
        return Timer(self, time, callback)

    def call_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback()`` ``delay`` seconds from now (see :meth:`call_at`)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.call_at(self.now + delay, callback)

    def timer_counters(self) -> dict:
        """Lifetime :class:`Timer` counts: scheduled, fired, cancelled, live."""
        return {
            "scheduled": self.timers_scheduled,
            "fired": self.timers_fired,
            "cancelled": self.timers_cancelled,
            "live": self.timers_scheduled - self.timers_fired - self.timers_cancelled,
        }

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Run a generator as a concurrent process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any constituent fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every constituent has fired."""
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, obj: Any, delay: float = 0.0) -> None:
        """Place anything with a ``_process()`` method on the calendar."""
        if delay == 0.0:
            self._seq += 1
            self._ready.append((self.now, self._seq, obj))
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, obj))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        ready = self._ready
        queue = self._queue
        if ready:
            return ready[0][0] if not queue or ready[0] < queue[0] else queue[0][0]
        return queue[0][0] if queue else _INF

    def _idle(self) -> bool:
        """True when the calendar holds no entry."""
        return not self._ready and not self._queue

    def _drain(self, limit: float, stop: Optional[Event], budget: int) -> None:
        """The dispatch loop behind :meth:`step` and every ``run*`` method.

        Fires calendar entries in global ``(time, seq)`` order until the
        calendar empties, the next entry lies past ``limit``, ``stop``
        has fired (checked before each entry), or ``budget`` entries
        have been taken from the calendar (-1 = unbounded).  ``now`` is
        left at the last entry fired.
        """
        ready = self._ready
        queue = self._queue
        popleft = ready.popleft
        heappop = heapq.heappop
        count = 0
        try:
            while count != budget:
                if stop is not None and stop._state != PENDING:
                    return
                if ready:
                    entry = ready[0]
                    lane = ready
                    if queue and queue[0] < entry:
                        entry = queue[0]
                        lane = queue
                elif queue:
                    entry = queue[0]
                    lane = queue
                else:
                    return
                t = entry[0]
                if t > limit:
                    return
                if lane is ready:
                    popleft()
                else:
                    heappop(queue)
                self.now = t
                count += 1
                entry[2]._process()
        finally:
            self._event_count += count

    def step(self) -> None:
        """Process the globally oldest calendar entry (by ``(time, seq)``).

        Raises IndexError on an empty calendar.  A CPU segment whose
        wake-up would fire next anyway runs its waiters inline (see
        :class:`repro.sim.resources.CPUCores`), so one step can fire a
        segment completion together with its wake-up; ``event_count``
        still rises by two.
        """
        count = self._event_count
        self._drain(_INF, None, 1)
        if self._event_count == count:
            raise IndexError("step on an empty calendar")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or ``until`` is reached.

        When ``until`` is given, ``now`` is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls compose like wall-clock intervals.
        """
        if until is None:
            self._drain(_INF, None, -1)
            return
        if until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        self._drain(until, None, -1)
        self.now = until

    def run_until_complete(self, process: Process, timeout: Optional[float] = None) -> Any:
        """Run until ``process`` finishes and return its value.

        Raises the process's exception if it failed, and
        :class:`SimulationError` if the calendar empties (or ``timeout``
        simulated seconds elapse) before it finishes.
        """
        deadline = _INF if timeout is None else self.now + timeout
        self._drain(deadline, process, -1)
        if process._state == PENDING:
            if self._idle():
                raise SimulationError(f"deadlock: {process.name} never finished")
            raise SimulationError(f"timeout waiting for {process.name}")
        if not process.ok:
            raise process.value
        return process.value
