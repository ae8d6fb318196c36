"""Unit tests for SloTracker.merge (the sharded-run fold)."""

import pytest
from hypothesis import given, settings

from repro.core.paths import CommPath
from repro.sched import SloSpec, SloTracker, TenantSpec
from repro.sched.tenant import CompletionRecord
from repro.workloads import OpMix
from tests.sched.slo_reference import (
    WINDOW_NS, ScanWindow, calls, drive, spec as reference_spec)


def _spec(name, deadline=10_000.0):
    return TenantSpec(name=name, payload=512, interval_ns=1_000.0,
                      requests=100, mix=OpMix(read=1.0, write=0.0),
                      slo=SloSpec(p99_ns=deadline))


def _record(tenant, end, latency=5_000.0, ok=True):
    return CompletionRecord(tenant=tenant, seq=0, op="read",
                            path=CommPath.SNIC2, start_ns=end - latency,
                            end_ns=end, ok=ok)


def test_merge_rejects_mismatched_windows():
    a = SloTracker([_spec("a")], window_ns=100_000.0)
    b = SloTracker([_spec("b")], window_ns=50_000.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_disjoint_tenants_unions_totals():
    a = SloTracker([_spec("a")])
    b = SloTracker([_spec("b")])
    a.observe(_record("a", end=10_000.0), payload=512)
    b.observe(_record("b", end=20_000.0), payload=512)
    b.observe(_record("b", end=30_000.0, ok=False), payload=512)
    b.observe_reject("b", 25_000.0)
    a.merge(b)
    assert a.completed == {"a": 1, "b": 1}
    assert a.lost == {"a": 0, "b": 1}
    assert a.rejected == {"a": 0, "b": 1}
    assert a.window("b", 40_000.0).count == 1
    assert a.window("b", 40_000.0).rejected == 1


def test_merge_same_tenant_matches_single_tracker_quantiles():
    """Split one completion stream over two trackers; the merge must
    report the same window quantiles as one tracker seeing it all."""
    latencies = [1_000.0, 9_000.0, 3_000.0, 7_000.0, 5_000.0,
                 2_000.0, 8_000.0, 4_000.0, 6_000.0, 10_000.0]
    reference = SloTracker([_spec("t")])
    left = SloTracker([_spec("t")])
    right = SloTracker([_spec("t")])
    for i, latency in enumerate(latencies):
        record = _record("t", end=10_000.0 + i * 5_000.0, latency=latency)
        reference.observe(record, payload=512)
        (left if i % 2 == 0 else right).observe(record, payload=512)
    left.merge(right)
    for now in (30_000.0, 60_000.0, 90_000.0, 120_000.0, 200_000.0):
        want = reference.window("t", now)
        got = left.window("t", now)
        assert got == want, f"divergence at now={now}"


def test_merge_keeps_events_time_ordered_for_pruning():
    """Out-of-phase shard streams must interleave, not concatenate —
    otherwise window pruning (a popleft loop) stops early."""
    left = SloTracker([_spec("t")])
    right = SloTracker([_spec("t")])
    # left holds the *late* events, right the early ones.
    for end in (150_000.0, 160_000.0):
        left.observe(_record("t", end=end), payload=512)
    for end in (10_000.0, 20_000.0):
        right.observe(_record("t", end=end), payload=512)
    left.merge(right)
    # A window at 170us spans only the late pair; the early events sit
    # in front of them and must be pruned on the way.
    stats = left.window("t", 170_000.0)
    assert stats.count == 2
    assert left.completed["t"] == 4        # totals survive pruning


def test_merge_window_boundary_is_inclusive_like_single_tracker():
    """An event exactly at now - window survives pruning on both the
    merged and the reference tracker (prune is strict '<')."""
    window = 100_000.0
    now = 150_000.0
    boundary = now - window
    reference = SloTracker([_spec("t")], window_ns=window)
    left = SloTracker([_spec("t")], window_ns=window)
    right = SloTracker([_spec("t")], window_ns=window)
    at_boundary = _record("t", end=boundary)
    just_before = _record("t", end=boundary - 1.0)
    reference.observe(just_before, payload=512)
    reference.observe(at_boundary, payload=512)
    left.observe(just_before, payload=512)
    right.observe(at_boundary, payload=512)
    left.merge(right)
    assert left.window("t", now) == reference.window("t", now)
    assert left.window("t", now).count == 1


def test_merge_reject_streams_interleave():
    left = SloTracker([_spec("t")])
    right = SloTracker([_spec("t")])
    for now in (50_000.0, 90_000.0):
        left.observe_reject("t", now)
    for now in (60_000.0, 80_000.0):
        right.observe_reject("t", now)
    left.merge(right)
    # Pruning at 170us keeps only rejects >= 70us; the 50/60us pair
    # must both be dropped even though they came from different shards.
    assert left.window("t", 170_000.0).rejected == 2
    assert left.rejected["t"] == 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(left_ops=calls(["shared", "left"]),
       right_ops=calls(["shared", "right"]),
       after_ops=calls(["shared", "left", "right"]))
def test_merge_rebuilds_incremental_window_for_shared_tenant(
        left_ops, right_ops, after_ops):
    """Two trackers that share a tenant, each fed and queried on its
    own, merge into one whose rolling window still matches the
    sort-and-scan reference on every later call."""
    def pair(names):
        specs = [reference_spec(name) for name in names]
        return (SloTracker(specs, window_ns=WINDOW_NS),
                ScanWindow(specs, WINDOW_NS))

    left, left_ref = pair(["shared", "left"])
    right, right_ref = pair(["shared", "right"])
    left_clock = drive(left, left_ref, left_ops)
    right_clock = drive(right, right_ref, right_ops)
    left.merge(right)
    left_ref.merge(right_ref)
    drive(left, left_ref, after_ops, clock=max(left_clock, right_clock))
