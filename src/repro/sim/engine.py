"""The event loop: a time-ordered queue of events and the simulated clock."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout, NORMAL
from repro.sim.process import Process

# Priority and insertion order share one integer sort key: the priority
# lives above bit 48, the sequence number below.  One fewer tuple slot
# per queue entry and one fewer comparison per sift — this loop is the
# hottest code in every DES cross-check.
_SEQ_BITS = 48
_SEQ_MASK = (1 << _SEQ_BITS) - 1

_heappush = heapq.heappush


class Simulator:
    """A discrete-event simulator with a nanosecond clock.

    Events are executed in ``(time, priority, insertion order)`` order,
    so simultaneous events are deterministic.
    """

    __slots__ = ("_now", "_queue", "_seq", "_event_count", "tracer")

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self._event_count: int = 0
        # Span tracer hook (repro.trace).  None on untraced runs; every
        # instrumentation point guards with one ``is not None`` check,
        # so tracing is pay-as-you-go and adds no simulation events.
        self.tracer = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events fired so far (a cheap progress metric)."""
        return self._event_count

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        """An event firing ``delay`` ns from now."""
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator)

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay,
                                (priority << _SEQ_BITS) | (seq & _SEQ_MASK),
                                event))

    # -- running -----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop and fire exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _order, event = heapq.heappop(self._queue)
        self._now = when
        self._event_count += 1
        event._fire()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` more events have fired.

        ``until`` is an absolute simulated timestamp.  The clock is
        fast-forwarded to exactly ``until`` only when the queue is
        exhausted or the horizon is actually reached — a run stopped
        early by the ``max_events`` budget keeps the clock at the last
        fired event, so chunked ``run(until=..., max_events=...)``
        loops observe consistent time.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        if until is None and max_events is None:
            # Hot path: the horizon and budget guards are hoisted out of
            # the loop entirely — a drain-to-empty run (every serving
            # run, every cross-check) pays only pop + fire per event.
            try:
                while queue:
                    when, _order, event = pop(queue)
                    self._now = when
                    fired += 1
                    event._fire()
            finally:
                self._event_count += fired
            return
        try:
            while queue:
                if max_events is not None and fired >= max_events:
                    return
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    return
                when, _order, event = pop(queue)
                self._now = when
                fired += 1
                event._fire()
        finally:
            self._event_count += fired
        if until is not None:
            self._now = until
