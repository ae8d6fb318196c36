"""The sort-and-scan rolling window, kept as an oracle for SloTracker.

:class:`ScanWindow` is the rolling view :class:`~repro.sched.SloTracker`
used to compute from scratch on every ``window()`` call: the same
pruning rule (pop from the front while the oldest entry ends before the
horizon), the same order statistics and sums, re-sorted and re-scanned
each time.  The property tests drive it and the incremental tracker
with the same calls and require equal :class:`WindowStats`.
"""

import heapq
from collections import deque

from hypothesis import strategies as st

from repro.core.paths import CommPath
from repro.sched import SloSpec, TenantSpec
from repro.sched.slo import WindowStats
from repro.sched.tenant import CompletionRecord
from repro.units import to_gbps
from repro.workloads import OpMix

DEADLINE = 10_000.0
WINDOW_NS = 30_000.0


def spec(name):
    return TenantSpec(name=name, payload=512, interval_ns=1_000.0,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=DEADLINE))


class ScanWindow:
    """Rolling windows recomputed from the raw event stream per query."""

    def __init__(self, tenants, window_ns):
        self.window_ns = window_ns
        self.deadline = {t.name: t.slo.deadline for t in tenants}
        self.events = {t.name: deque() for t in tenants}
        self.rejects = {t.name: deque() for t in tenants}

    def observe(self, record, payload):
        self.events[record.tenant].append(
            (record.end_ns, record.latency_ns, payload, record.ok))

    def observe_reject(self, tenant, now):
        self.rejects[tenant].append(now)

    def merge(self, other):
        for name, deadline in other.deadline.items():
            if name not in self.deadline:
                self.deadline[name] = deadline
                self.events[name] = deque(other.events[name])
                self.rejects[name] = deque(other.rejects[name])
                continue
            self.events[name] = deque(heapq.merge(
                self.events[name], other.events[name],
                key=lambda ev: ev[0]))
            self.rejects[name] = deque(heapq.merge(
                self.rejects[name], other.rejects[name]))
        return self

    def window(self, tenant, now):
        deadline = self.deadline[tenant]
        horizon = now - self.window_ns
        events = self.events[tenant]
        while events and events[0][0] < horizon:
            events.popleft()
        rejects = self.rejects[tenant]
        while rejects and rejects[0] < horizon:
            rejects.popleft()
        latencies = sorted(lat for _end, lat, _p, ok in events if ok)
        good_bytes = sum(p for _end, lat, p, ok in events
                         if ok and lat <= deadline)
        violations = sum(1 for _end, lat, _p, ok in events
                         if ok and lat > deadline)
        if latencies:
            p50 = latencies[max(0, int(0.50 * len(latencies)) - 1)
                            if len(latencies) > 1 else 0]
            p99 = latencies[min(len(latencies) - 1,
                                max(0, int(0.99 * len(latencies))))]
        else:
            p50 = p99 = 0.0
        span = min(self.window_ns, now) or 1.0
        return WindowStats(
            tenant=tenant, window_ns=self.window_ns, count=len(latencies),
            p50_ns=p50, p99_ns=p99, goodput_gbps=to_gbps(good_bytes / span),
            rejected=len(rejects), violations=violations)


#: Latencies on both sides of the deadline, the deadline itself, and
#: repeats (a small pool makes exact ties common).
_LATENCIES = st.one_of(
    st.sampled_from([0.0, 1_000.0, DEADLINE - 1.0, DEADLINE,
                     DEADLINE + 1.0, 25_000.0]),
    st.integers(0, 30_000).map(float))
#: End times relative to the clock: before it (late, out of order)
#: and after it.
_OFFSETS = st.integers(-int(WINDOW_NS), int(WINDOW_NS) // 2).map(float)


def calls(tenants):
    """Random interleavings of observe / observe_reject / window calls."""
    name = st.sampled_from(tenants)
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["ok", "lost"]), name, _OFFSETS,
                  _LATENCIES, st.integers(1, 4096)),
        st.tuples(st.just("reject"), name, _OFFSETS),
        st.tuples(st.just("window"),
                  st.integers(0, int(WINDOW_NS)).map(float)),
    ), min_size=20, max_size=120)


def drive(tracker, reference, ops, clock=0.0):
    """Apply ``ops`` to both; after every call compare every tenant's
    window at the (non-decreasing) clock.  Returns the final clock."""
    tenants = sorted(reference.deadline)
    for op in ops:
        kind = op[0]
        if kind == "window":
            clock += op[1]
        elif kind == "reject":
            at = max(0.0, clock + op[2])
            tracker.observe_reject(op[1], at)
            reference.observe_reject(op[1], at)
        else:
            _kind, tenant, offset, latency, payload = op
            end = max(latency, clock + offset)
            record = CompletionRecord(
                tenant=tenant, seq=0, op="read", path=CommPath.SNIC2,
                start_ns=end - latency, end_ns=end, ok=kind == "ok")
            tracker.observe(record, payload)
            reference.observe(record, payload)
        for tenant in tenants:
            assert (tracker.window(tenant, clock)
                    == reference.window(tenant, clock)), (op, tenant, clock)
    return clock
