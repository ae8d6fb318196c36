"""A batched event queue: amortize ordering across equal timestamps.

Serving workloads are burst-synchronous — scheduler ticks, open-loop
arrivals and fan-out completions land dozens of events on the *same*
nanosecond.  The default :class:`~repro.sim.engine.Simulator` pays a
heap sift per event; :class:`BatchSimulator` instead keeps one heap
entry per *distinct timestamp* and a per-timestamp bucket of packed
``(priority, seq)`` keys, sorted once per batch (C timsort, or a numpy
``argsort`` for large batches when numpy is installed —
the scalar path is always available and CI runs it with numpy absent).

The observable event order is identical to the default engine,
including the subtle case of an URGENT event scheduled *at the current
timestamp by a firing event*: the remaining batch is re-merged and
re-sorted so the urgent newcomer still overtakes queued NORMAL events.
``tests/sim/test_batchq.py`` fuzzes this equivalence.

The serving path no longer uses this class: every serving engine runs
on the binary-heap :class:`~repro.sim.engine.Simulator`, which measured
faster on the serving mix (most timestamps there hold a single event,
so the buckets only add dict and sort traffic).  It stays, fuzzed
against the heap and pinned bit-identical at the serving level by
``tests/sched/test_engine_parity.py``, until item 4 of ``ROADMAP.md``
(one of each mechanism) deletes it together with the benchmark's
event-ledger import of it.
"""

from __future__ import annotations

from typing import Any, Optional

import heapq

from repro.sim.engine import Simulator, _SEQ_BITS, _SEQ_MASK
from repro.sim.errors import SimulationError
from repro.sim.events import Event, NORMAL

#: Bucket size from which the numpy key sort takes over (when present).
_VECTOR_MIN = 256

_NUMPY: Any = None
_NUMPY_CHECKED = False


def _load_numpy():
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


class BatchSimulator(Simulator):
    """Drop-in :class:`Simulator` with a time-bucketed event queue."""

    __slots__ = ("_times", "_buckets")

    def __init__(self):
        super().__init__()
        self._times: list = []       # heap of timestamps (stale dups ok)
        self._buckets: dict = {}     # timestamp -> [(key, event), ...]

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._seq += 1
        when = self._now + delay
        key = (priority << _SEQ_BITS) | (self._seq & _SEQ_MASK)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(key, event)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((key, event))

    @staticmethod
    def _sort(batch: list) -> None:
        np = _load_numpy()
        if np is not None and len(batch) >= _VECTOR_MIN:
            keys = np.fromiter((key for key, _event in batch),
                               dtype=np.int64, count=len(batch))
            batch[:] = [batch[j] for j in np.argsort(keys, kind="stable")]
        else:
            batch.sort()

    # -- running ------------------------------------------------------------

    def peek(self) -> float:
        times, buckets = self._times, self._buckets
        while times and times[0] not in buckets:
            heapq.heappop(times)             # stale re-push, skip
        return times[0] if times else float("inf")

    def step(self) -> None:
        when = self.peek()
        if when == float("inf"):
            raise SimulationError("step() on an empty event queue")
        batch = self._buckets[when]
        at = min(range(len(batch)), key=lambda j: batch[j][0])
        _key, event = batch.pop(at)
        if not batch:
            del self._buckets[when]
        self._now = when
        self._event_count += 1
        event._fire()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        times, buckets = self._times, self._buckets
        pop = heapq.heappop
        fired = 0
        try:
            while times:
                when = times[0]
                batch = buckets.get(when)
                if batch is None:
                    pop(times)               # stale re-push, skip
                    continue
                if until is not None and when > until:
                    self._now = until
                    return
                pop(times)
                del buckets[when]
                self._now = when
                self._sort(batch)
                i = 0
                while i < len(batch):
                    if max_events is not None and fired >= max_events:
                        rest = batch[i:]
                        extra = buckets.pop(when, None)
                        if extra is not None:
                            rest.extend(extra)
                        if rest:
                            buckets[when] = rest
                            heapq.heappush(times, when)
                        return
                    extra = buckets.pop(when, None)
                    if extra is not None:
                        # A firing event scheduled at the current
                        # timestamp: merge so priorities still win.
                        batch = batch[i:] + extra
                        self._sort(batch)
                        i = 0
                    _key, event = batch[i]
                    i += 1
                    fired += 1
                    event._fire()
        finally:
            self._event_count += fired
        if until is not None:
            self._now = until
