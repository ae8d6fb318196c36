"""Unit tests for the rolling SLO windows."""

from hypothesis import given, settings

from repro.sched import SloSpec, SloTracker, TenantSpec
from repro.sched.tenant import CompletionRecord
from repro.core.paths import CommPath
from repro.workloads import OpMix
from tests.sched.slo_reference import (
    WINDOW_NS, ScanWindow, calls, drive, spec as reference_spec)


def _spec(name="t", deadline=10_000.0):
    return TenantSpec(name=name, payload=512, interval_ns=1_000.0,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=deadline))


def _record(tenant="t", start=0.0, end=5_000.0, ok=True):
    return CompletionRecord(tenant=tenant, seq=0, op="read",
                            path=CommPath.SNIC2, start_ns=start, end_ns=end,
                            ok=ok)


def test_empty_window_is_idle():
    tracker = SloTracker([_spec()])
    stats = tracker.window("t", 50_000.0)
    assert stats.idle
    assert stats.count == 0
    assert stats.p99_ns == 0.0


def test_window_percentiles_and_goodput():
    spec = _spec()
    tracker = SloTracker([spec], window_ns=100_000.0)
    for i in range(10):
        tracker.observe(_record(start=0.0, end=1_000.0 * (i + 1)), 512)
    stats = tracker.window("t", 10_000.0)
    assert stats.count == 10
    assert stats.p50_ns == 5_000.0
    assert stats.p99_ns == 10_000.0
    assert stats.violations == 0
    assert stats.goodput_gbps > 0


def test_violations_counted_against_deadline():
    tracker = SloTracker([_spec(deadline=4_000.0)])
    tracker.observe(_record(end=3_000.0), 512)
    tracker.observe(_record(start=1_000.0, end=9_000.0), 512)
    stats = tracker.window("t", 10_000.0)
    assert stats.violations == 1


def test_old_events_age_out_of_the_window():
    tracker = SloTracker([_spec()], window_ns=10_000.0)
    tracker.observe(_record(end=1_000.0), 512)
    tracker.observe(_record(start=90_000.0, end=95_000.0), 512)
    stats = tracker.window("t", 100_000.0)
    assert stats.count == 1
    # Lifetime totals survive the pruning.
    assert tracker.completed["t"] == 2


def test_lost_and_rejected_accounting():
    tracker = SloTracker([_spec()])
    tracker.observe(_record(ok=False), 512)
    tracker.observe_reject("t", 1_000.0)
    stats = tracker.window("t", 10_000.0)
    assert stats.count == 0
    assert stats.rejected == 1
    assert tracker.lost["t"] == 1
    assert tracker.rejected["t"] == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ops=calls(["t", "u"]))
def test_incremental_window_matches_sort_and_scan(ops):
    """The running window sums and sorted latencies give the same
    WindowStats as re-sorting and re-scanning the window every call,
    for any interleaving of observes (ok and lost, out-of-order ends,
    latencies on and around the deadline), rejects and window queries."""
    specs = [reference_spec("t"), reference_spec("u")]
    drive(SloTracker(specs, window_ns=WINDOW_NS),
          ScanWindow(specs, WINDOW_NS), ops)
