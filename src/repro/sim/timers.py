"""Hierarchical timer wheel: the engine's second calendar source.

Open-loop serving pushes one short-lived timer per request (arrival
ticks, RTO deadlines, per-request SLO deadlines) through the calendar.
On the ``(time, seq)`` heap that is O(log n) per insert and -- worse --
a cancelled deadline (the overwhelmingly common case: the response beat
the deadline) either stays in the heap until it fires as a no-op or
forces an O(n) re-heapify.  The classic kernel answer is a hierarchical
timer wheel: O(1) insert into a tick-indexed slot, O(1) lazy
cancellation (the entry is tombstoned in place and dropped when its
slot is scanned -- never re-heapified), amortised O(1) expiry.

Bit-identical merge contract
----------------------------
:class:`Simulator` merges the wheel with the delay heap and the
immediate run queue exactly like the heap and deque are merged today:
the globally oldest ``(time, seq)`` entry fires next, every entry
consumes one sequence number at creation, and seq uniqueness breaks
same-time ties.  A simulation that moves a timer from ``sim.timeout``
onto ``sim.wheel.timeout`` at the same call site therefore replays
**bit-identically** -- same firing order, same seq consumption -- which
is how the PR 1-9 goldens survive the TCP RTO path moving here.

Structure
---------
Time is quantised to ticks of ``2**-14`` s (~61 us -- fine enough that
sub-tick ordering only matters within one slot, which is sorted on
expiry).  Four levels of 256 slots cover ~15.6 ms / 4 s / 17 min / 73 h
of future; farther timers wait in an overflow heap.  Slots are filed by
*absolute* tick with frame matching against the cursor (the next
uncollected tick), so cascading a higher-level slot re-files its
entries exactly one level down and can never loop.  Per-level bitmaps
(one int, one bit per non-empty slot) make "next non-empty slot" a
couple of integer ops, so advancing over empty time is O(levels), not
O(ticks).

Expired slots drain, sorted by ``(time, seq)``, into the ``_due`` list
consumed through an index pointer; late inserts behind the cursor
bisect into place.  Tombstones (lazily cancelled timers) are skipped at
the head and dropped wholesale whenever their slot is scanned; when the
last live timer goes, the whole structure resets so tombstone memory is
bounded by the live high-water mark.
"""

from __future__ import annotations

from bisect import insort
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.engine import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["TimerWheel", "WheelTimeout", "WheelTimer"]

#: tick quantum in seconds (power of two: ``t / TICK`` is float-exact).
TICK = 2.0**-14  # ~61 us
_LEVEL_BITS = 8
_SLOTS = 1 << _LEVEL_BITS  # 256 slots per level
_MASK = _SLOTS - 1
_LEVELS = 4

_KEY = (lambda e: e.key)
_INF = float("inf")


class WheelTimeout(Event):
    """Drop-in :class:`~repro.sim.engine.Timeout` living on the wheel.

    Consumes one sequence number at creation and fires at the same
    ``(time, seq)`` a heap Timeout would -- substituting one for the
    other at a call site cannot change simulation order.
    """

    __slots__ = ("delay", "time", "seq", "key", "cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name="wheel-timeout")
        self.delay = delay
        self._state = 1  # TRIGGERED
        self._ok = True
        self._value = value
        self.cancelled = False
        sim.wheel._insert(self, sim.now + delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WheelTimeout({self.delay}) {hex(id(self))}>"


class WheelTimer:
    """A cancellable callback timer (not an Event -- nothing waits on it).

    The serving deadline pattern: armed per request, cancelled by the
    response in the common case.  ``cancel()`` is O(1) -- the entry is
    tombstoned where it lies and reaped when its slot is scanned.
    """

    __slots__ = ("time", "seq", "key", "cancelled", "callback", "_wheel")

    def __init__(self, wheel: "TimerWheel", time: float, callback: Callable[[], None]):
        self.callback = callback
        self.cancelled = False
        self._wheel = wheel
        wheel._insert(self, time)

    def cancel(self) -> bool:
        """Tombstone the timer; True if it had not fired (or been
        cancelled) yet."""
        if self.cancelled:
            return False
        wheel = self._wheel
        if wheel is None:
            return False  # already fired
        self.cancelled = True
        wheel._cancelled(self)
        return True

    def _process(self) -> None:
        self._wheel = None
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<WheelTimer t={self.time} {state}>"


class TimerWheel:
    """Hierarchical timer wheel bound to one :class:`Simulator`.

    Created lazily via ``sim.wheel``; a simulator that never touches it
    pays nothing.  It keeps ``sim._wnext`` a lower bound on its earliest
    live entry (-inf when the next ``head()`` may have to collect), which
    is how the engine's dispatch loop knows when to probe it.
    """

    __slots__ = (
        "sim",
        "_slots",
        "_bitmaps",
        "_cursor",
        "_due",
        "_due_pos",
        "_overflow",
        "_live",
        "scheduled",
        "fired",
        "cancels",
        "cascades",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: per-level slot lists: _slots[level][slot] -> list of entries.
        self._slots = [[[] for _ in range(_SLOTS)] for _ in range(_LEVELS)]
        #: per-level non-empty-slot bitmap (bit s set <=> slot s non-empty).
        self._bitmaps = [0] * _LEVELS
        #: next tick not yet collected into ``_due``.
        self._cursor = 0
        #: expired/overdue entries sorted by (time, seq), consumed via
        #: ``_due_pos`` (popping a Python list head is O(n); an index is O(1)).
        self._due: list = []
        self._due_pos = 0
        #: far-future entries: sorted list of entries (by key).
        self._overflow: list = []
        #: live (uncancelled, unfired) entries anywhere in the wheel.
        self._live = 0
        self.scheduled = 0
        self.fired = 0
        self.cancels = 0
        self.cascades = 0

    # -- public API ------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> WheelTimeout:
        """A yieldable timeout scheduled on the wheel (see
        :class:`WheelTimeout` for the heap-equivalence contract)."""
        return WheelTimeout(self.sim, delay, value)

    def call_at(self, time: float, callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` to run at absolute sim time ``time``; returns
        a handle whose ``cancel()`` is O(1)."""
        if time < self.sim.now:
            raise SimulationError(f"cannot schedule into the past ({time} < {self.sim.now})")
        return WheelTimer(self, time, callback)

    def call_after(self, delay: float, callback: Callable[[], None]) -> WheelTimer:
        """Arm ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return WheelTimer(self, self.sim.now + delay, callback)

    def __len__(self) -> int:
        return self._live

    def counters(self) -> dict:
        """Lifetime counters for trace/report plumbing."""
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancels,
            "cascades": self.cascades,
            "live": self._live,
        }

    def snapshot_state(self) -> dict:
        """Pending live entries as (time, seq, kind) triples plus
        counters -- digest material, mirroring the engine calendar."""
        entries = [e for e in self._due[self._due_pos :] if not e.cancelled]
        entries.extend(e for e in self._overflow if not e.cancelled)
        for level in self._slots:
            for slot in level:
                entries.extend(e for e in slot if not e.cancelled)
        entries.sort(key=_KEY)
        return {
            "live": self._live,
            "cursor": self._cursor,
            "pending": [[e.time, e.seq, type(e).__name__] for e in entries],
            "counters": self.counters(),
        }

    # -- engine-facing ---------------------------------------------------
    def head(self):
        """The earliest live entry (its ``.key`` is ``(time, seq)``), or
        None when the wheel is empty.  Ensures that entry sits at
        ``_due[_due_pos]`` so :meth:`pop_head` is O(1)."""
        due = self._due
        pos = self._due_pos
        n = len(due)
        while True:
            while pos < n and due[pos].cancelled:
                pos += 1
            if pos < n:
                self._due_pos = pos
                entry = due[pos]
                self.sim._wnext = entry.time
                return entry
            # _due exhausted: everything live (if anything) is in the
            # wheel proper at ticks >= cursor, strictly after every
            # consumed entry.  Collect the next non-empty slot.
            self._due_pos = pos
            if self._live == 0:
                self._reset()
                self.sim._wnext = _INF
                return None
            self._collect()
            due = self._due
            pos = self._due_pos  # _collect may compact the consumed prefix
            n = len(due)

    def pop_head(self):
        """Remove and return the entry :meth:`head` reported (caller
        must have just called :meth:`head`)."""
        due = self._due
        pos = self._due_pos
        entry = due[pos]
        pos += 1
        self._due_pos = pos
        self._live -= 1
        self.fired += 1
        if self._live == 0:
            self._reset()
            self.sim._wnext = _INF
        elif pos < len(due) and not due[pos].cancelled:
            self.sim._wnext = due[pos].time
        else:
            # The next head() may have to collect (or skip tombstones):
            # probe it on the very next dispatch iteration.
            self.sim._wnext = -_INF
        return entry

    # -- internals -------------------------------------------------------
    def _reset(self) -> None:
        """Drop consumed/tombstoned storage once nothing live remains
        (slots may still hold tombstones; _due holds consumed entries)."""
        if self._due:
            self._due = []
            self._due_pos = 0
        bitmaps = self._bitmaps
        for level in range(_LEVELS):
            if bitmaps[level]:
                bitmaps[level] = 0
                self._slots[level] = [[] for _ in range(_SLOTS)]
        if self._overflow:
            self._overflow = []

    def _insert(self, entry, time: float) -> None:
        sim = self.sim
        if not isfinite(time):
            raise SimulationError(f"timer at non-finite time {time}")
        sim._seq += 1
        entry.time = time
        entry.seq = sim._seq
        entry.key = (time, sim._seq)
        self.scheduled += 1
        if self._live == 0:
            # Empty wheel: re-anchor the cursor at now so frames stay
            # tight around the present (minimises overflow residency).
            self._reset()
            now_tick = int(sim.now / TICK)
            if now_tick > self._cursor:
                self._cursor = now_tick
            # The next head() collects this entry's slot.
            sim._wnext = -_INF
        elif time < sim._wnext:
            sim._wnext = time
        self._live += 1
        self._file(entry, int(time / TICK))

    def _file(self, entry, tick: int) -> None:
        """Place ``entry`` by absolute tick, frame-matched to the cursor."""
        cursor = self._cursor
        if tick < cursor:
            # Overdue relative to collection (never relative to ``now``:
            # fire times are >= now and consumed keys are <= (now, seq)),
            # so this lands at or after _due_pos -- order is preserved.
            insort(self._due, entry, lo=self._due_pos, key=_KEY)
            return
        delta = tick ^ cursor  # high bits differ <=> different frame
        for level in range(_LEVELS):
            if delta < (1 << ((level + 1) * _LEVEL_BITS)):
                slot = (tick >> (level * _LEVEL_BITS)) & _MASK
                self._slots[level][slot].append(entry)
                self._bitmaps[level] |= 1 << slot
                return
        insort(self._overflow, entry, key=_KEY)

    def _cancelled(self, entry) -> None:
        """Account a tombstoned entry (storage reaped lazily)."""
        self.cancels += 1
        self._live -= 1
        if self._live == 0:
            self._reset()
            self.sim._wnext = _INF
        else:
            # The tombstone may have been the head of ``_due``.
            self.sim._wnext = -_INF

    def _collect(self) -> None:
        """Advance the cursor to the next non-empty slot and drain it
        (sorted, tombstones dropped) into ``_due``.  Caller guarantees
        ``_live > 0`` and ``_due`` exhausted."""
        bitmaps = self._bitmaps
        slots = self._slots
        while True:
            cursor = self._cursor
            # Push-down phase: a higher-level slot sitting exactly at the
            # cursor's position covers the *current* sub-frame (it was
            # filed before the cursor rolled in; the roll-in always lands
            # on the sub-frame boundary, sub-bits zero).  It must drain
            # into the lower levels before anything lower is consumed,
            # or newer same-frame inserts (which file straight to level
            # 0) would fire ahead of older entries still parked above.
            cascaded = False
            for level in range(1, _LEVELS):
                frame = level * _LEVEL_BITS
                pos = (cursor >> frame) & _MASK
                if not bitmaps[level] & (1 << pos):
                    continue
                entries = slots[level][pos]
                slots[level][pos] = []
                bitmaps[level] &= ~(1 << pos)
                self.cascades += 1
                file = self._file
                for e in entries:
                    if not e.cancelled:
                        file(e, int(e.time / TICK))
                cascaded = True
                break
            if cascaded:
                continue
            pos0 = cursor & _MASK
            bm = bitmaps[0] >> pos0
            if bm:
                slot = pos0 + ((bm & -bm).bit_length() - 1)
                entries = slots[0][slot]
                slots[0][slot] = []
                bitmaps[0] &= ~(1 << slot)
                self._cursor = (cursor & ~_MASK) + slot + 1
                live = sorted((e for e in entries if not e.cancelled), key=_KEY)
                if live:
                    if self._due_pos:
                        # Compact consumed prefix before extending.
                        del self._due[: self._due_pos]
                        self._due_pos = 0
                    self._due.extend(live)
                    return
                continue
            # Level-0 frame exhausted: cascade the next higher-level slot
            # down, rebasing the cursor to that slot's frame start.
            # The push-down phase above guarantees the cursor's own slot
            # at every level is empty here, so this scan (inclusive of
            # the cursor position, which the shift keeps cheap) only ever
            # finds strictly-future sub-frames -- the rebase below never
            # moves the cursor backwards.
            for level in range(1, _LEVELS):
                pos = (cursor >> (level * _LEVEL_BITS)) & _MASK
                bm = bitmaps[level] >> pos
                if not bm:
                    continue
                slot = pos + ((bm & -bm).bit_length() - 1)
                entries = slots[level][slot]
                slots[level][slot] = []
                bitmaps[level] &= ~(1 << slot)
                frame = level * _LEVEL_BITS
                base = cursor >> (frame + _LEVEL_BITS) << (frame + _LEVEL_BITS)
                self._cursor = base | (slot << frame)
                self.cascades += 1
                file = self._file
                for e in entries:
                    if e.cancelled:
                        continue
                    file(e, int(e.time / TICK))
                break
            else:
                # Only the overflow heap is left: rebase to the earliest
                # overflow entry's top-level frame and re-file what fits.
                overflow = self._overflow
                first = next(e for e in overflow if not e.cancelled)
                top = (_LEVELS - 1) * _LEVEL_BITS + _LEVEL_BITS
                self._cursor = int(first.time / TICK) >> top << top
                self.cascades += 1
                keep = []
                file = self._file
                horizon = (self._cursor >> top) + 1 << top
                for e in overflow:
                    if e.cancelled:
                        continue
                    tick = int(e.time / TICK)
                    if tick < horizon:
                        file(e, tick)
                    else:
                        keep.append(e)
                self._overflow = keep
