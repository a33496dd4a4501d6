"""Shared-resource primitives built on the event engine.

* :class:`Resource` -- counting semaphore with FIFO fairness.
* :class:`Store` -- FIFO item buffer with blocking get (and optional
  bounded capacity with blocking put).
* :class:`CPUCores` -- the physical-CPU model: ``n`` identical cores
  executing work segments on behalf of *domains*, charging a
  domain-switch penalty whenever a core switches from one domain to
  another.  This penalty is how the simulation reproduces the
  TLB/cache-miss overhead the paper attributes to excessive switching
  between guest domains and the driver domain (Sect. 2).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Hashable, Optional

from repro.sim.engine import PENDING, PROCESSED, TRIGGERED, Event, SimulationError, Simulator

__all__ = ["CPUCores", "Resource", "Store"]


class Resource:
    """Counting semaphore.  ``yield res.acquire()`` ... ``res.release()``."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Request a unit; the returned event fires when granted."""
        ev = Event(self.sim, "resource.acquire")
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a unit, admitting the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release of an idle resource")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    @property
    def queued(self) -> int:
        """Number of acquirers currently waiting."""
        return len(self._waiters)


class Store:
    """FIFO item buffer.

    ``put`` appends an item; when ``capacity`` is bounded and the buffer
    is full, the returned event fires only once space frees up.  ``get``
    returns an event that fires with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Append an item; blocks (event pending) while a bounded store is full."""
        ev = Event(self.sim, "store.put")
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when a bounded store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        """Take the oldest item; the event fires when one is available."""
        ev = Event(self.sim, "store.get")
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(found, item)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class _Core:
    __slots__ = ("index", "busy", "last_domain")

    def __init__(self, index: int):
        self.index = index
        self.busy = False
        self.last_domain: Optional[Hashable] = None


class _Completion(Event):
    """The Event :meth:`CPUCores.execute` returns, which is also the
    calendar entry ending its segment: one object per segment.

    Its first firing (state PENDING) ends the segment: it frees the core,
    releases the domain's vCPU slot, admits the next queued segment, then
    triggers itself exactly like ``succeed()`` -- one sequence number for
    a wake-up at ``(now, seq)``.  When that wake-up would be the next
    calendar entry anyway (run queue empty, heap head later than ``now``),
    the waiters run inline and the wake-up is still counted in
    ``event_count``; otherwise the wake-up goes on the run queue and the
    second firing (state TRIGGERED) runs the waiters like any Event.

    ``st`` is the domain's ``[running, limit]`` accounting record (see
    :attr:`CPUCores._dom`), carried here so releasing the segment is a
    list update instead of a second dict lookup on the domain key.
    """

    __slots__ = ("cpus", "core", "st")

    def __init__(self, cpus: "CPUCores"):
        # Event.__init__ inlined (one segment per CPU charge).
        self.sim = cpus.sim
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._ok = True
        self.name = "cpu"
        self.cpus = cpus

    def _process(self) -> None:
        if self._state != PENDING:
            Event._process(self)  # the queued wake-up
            return
        cpus = self.cpus
        self.core.busy = False
        self.st[0] -= 1
        if cpus._queue:
            cpus._admit()
        self._state = TRIGGERED
        sim = self.sim
        sim._seq += 1
        now = sim.now
        queue = sim._queue
        if sim._ready or (queue and queue[0][0] <= now):
            sim._ready.append((now, sim._seq, self))
            return
        sim._event_count += 1
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)


class _CallCompletion:
    """Calendar entry ending a CPU segment by *calling* a function.

    The :meth:`CPUCores.execute_call` variant of :class:`_Completion`:
    the completion invokes ``fn()`` directly instead of waking waiters,
    so the whole segment lifecycle is ONE calendar entry and no Event.
    Used by the event-channel upcall path, where the continuation is
    always a plain handler call with no waiters.
    """

    __slots__ = ("cpus", "core", "st", "fn")

    def __init__(self, cpus: "CPUCores", fn):
        self.cpus = cpus
        self.fn = fn

    def _process(self) -> None:
        cpus = self.cpus
        self.core.busy = False
        self.st[0] -= 1
        if cpus._queue:
            cpus._admit()
        self.fn()


class CPUCores:
    """``n`` identical cores shared by simulation *domains*.

    Work is submitted with :meth:`execute`, which returns an event firing
    when the segment completes.  Scheduling is FIFO with one twist: a
    free core that last ran the requesting domain is preferred, and when
    no such core exists the segment pays ``switch_penalty`` extra --
    modelling the TLB/cache refill cost of a domain switch.

    This is intentionally simpler than Xen's credit scheduler; the
    quantity that matters for the paper's evaluation is the *count and
    cost of domain switches* on the data path, which this captures.
    """

    def __init__(self, sim: Simulator, n_cores: int, switch_penalty: float = 0.0):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.cores = [_Core(i) for i in range(n_cores)]
        self.switch_penalty = switch_penalty
        self._queue: Deque[tuple[list, Hashable, float, Any]] = deque()
        #: per-domain accounting: domain -> ``[running, limit]`` where
        #: ``running`` is the count of in-flight segments and ``limit``
        #: the vCPU cap (None = all cores; guests in the paper's testbed
        #: are 1-vCPU, Dom0 and native hosts get all cores).  One dict
        #: lookup on the hottest path; completions carry the list.
        self._dom: dict[Hashable, list] = {}
        self.total_busy_time = 0.0
        self.total_switches = 0

    def set_vcpu_limit(self, domain: Hashable, n: int) -> None:
        """Cap a domain's concurrent segments (its vCPU count)."""
        if n < 1:
            raise ValueError("vCPU limit must be >= 1")
        st = self._dom.get(domain)
        if st is None:
            self._dom[domain] = [0, n]
        else:
            st[1] = n

    @property
    def _vcpu_limit(self) -> dict[Hashable, int]:
        """Per-domain vCPU caps as a plain dict (introspection/tests)."""
        return {d: st[1] for d, st in self._dom.items() if st[1] is not None}

    def execute(self, domain: Hashable, cost: float) -> Event:
        """Run ``cost`` seconds of work for ``domain``; event fires at end."""
        if cost < 0:
            raise ValueError(f"negative work cost: {cost}")
        done = _Completion(self)
        self._dispatch(domain, cost, done)
        return done

    def execute_call(self, domain: Hashable, cost: float, fn) -> None:
        """Run ``cost`` seconds of work for ``domain``; call ``fn()`` at end.

        The fire-and-forget variant of :meth:`execute` for continuations
        nobody waits on (event-channel upcall handlers): completing the
        segment calls ``fn`` directly instead of waking an Event's
        waiters, so the segment costs one calendar entry and allocates
        no Event.  Scheduling (core affinity, vCPU limits, switch
        penalty, FIFO queueing) is identical to :meth:`execute`.
        """
        if cost < 0:
            raise ValueError(f"negative work cost: {cost}")
        self._dispatch(domain, cost, _CallCompletion(self, fn))

    def execute_batch(self, domain: Hashable, costs) -> Event:
        """Run several work parts for ``domain`` as ONE segment.

        The segment's cost is the sum of ``costs``; core affinity is
        resolved once and at most one ``switch_penalty`` is charged for
        the whole batch -- this is the batched-cost-charging primitive
        the per-packet paths use to coalesce a drained burst into a
        single calendar entry.  The returned event fires when the whole
        batch completes.
        """
        total = 0.0
        for cost in costs:
            if cost < 0:
                raise ValueError(f"negative work cost: {cost}")
            total += cost
        return self.execute(domain, total)

    @property
    def queued(self) -> int:
        """Work segments waiting for a core or a vCPU slot."""
        return len(self._queue)

    def _dispatch(self, domain: Hashable, cost: float, comp) -> None:
        """Start a segment ending in ``comp``, or queue it.

        The one copy of core selection: while ``domain`` is under its
        vCPU limit, prefer a free core that last ran it, else take the
        first free core.  A started segment pays ``switch_penalty`` when
        its core last ran another domain, and its completion goes on the
        calendar directly (``Simulator._schedule`` inlined; the total is
        never negative here).
        """
        st = self._dom.get(domain)
        if st is None:
            st = self._dom[domain] = [0, None]
        if st[1] is None or st[0] < st[1]:
            best = None
            for core in self.cores:
                if core.busy:
                    continue
                if core.last_domain == domain:
                    best = core
                    break
                if best is None:
                    best = core
            if best is not None:
                total = cost
                last = best.last_domain
                if last is not None and last != domain:
                    total += self.switch_penalty
                    self.total_switches += 1
                best.busy = True
                best.last_domain = domain
                st[0] += 1
                self.total_busy_time += total
                comp.core = best
                comp.st = st
                sim = self.sim
                sim._seq += 1
                if total == 0.0:
                    sim._ready.append((sim.now, sim._seq, comp))
                else:
                    heappush(sim._queue, (sim.now + total, sim._seq, comp))
                return
        self._queue.append((st, domain, cost, comp))

    def _admit(self) -> None:
        """Start the first queued segment whose domain is under its
        limit (called by a completion right after it frees a core; with
        1-vCPU guests the queue is rarely empty here)."""
        queue = self._queue
        for i, (st, domain, cost, comp) in enumerate(queue):
            if st[1] is None or st[0] < st[1]:
                del queue[i]
                self._dispatch(domain, cost, comp)
                return
