"""Tests for the hardware-counter telemetry."""

import pytest

from repro.net.cluster import SimCluster
from repro.net.topology import paper_testbed
from repro.rdma import RdmaContext
from repro.telemetry import CounterSnapshot, Telemetry
from repro.units import KB, MB


def make(nic="snic"):
    cluster = SimCluster(paper_testbed(), nic=nic)
    return cluster, RdmaContext(cluster), Telemetry(cluster)


def test_snapshot_contains_link_counters():
    _cluster, _ctx, telemetry = make()
    snap = telemetry.snapshot()
    assert "pcie1.tlps" in snap.counters
    assert "pcie0.bytes" in snap.counters
    assert "net.server.tx_bytes" in snap.counters
    assert snap.timestamp == 0.0


def test_rnic_mode_snapshot():
    _cluster, _ctx, telemetry = make(nic="rnic")
    snap = telemetry.snapshot()
    assert "hostlink.tlps" in snap.counters
    assert "pcie1.tlps" not in snap.counters


def test_delta_tracks_a_transfer():
    cluster, ctx, telemetry = make()
    server = ctx.reg_mr("soc", 64 * KB)
    local = ctx.reg_mr("client0", 64 * KB)
    qp, _ = ctx.connect_rc("client0", "soc")
    before = telemetry.snapshot()
    qp.post_write(1, local, server, 4 * KB)
    cluster.sim.run()
    after = telemetry.snapshot()
    delta = after - before
    # 4 KB at the SoC's 128 B MTU: 32 TLPs toward the switch.
    assert delta.deltas["pcie1.tlps_to_nic"] == 32
    assert delta.deltas["pcie0.tlps"] == 0
    assert delta.deltas["net.client0.tx_bytes"] > 4 * KB


def test_rates_have_sane_units():
    cluster, ctx, telemetry = make()
    host_mr = ctx.reg_mr("host", 4 * MB)
    soc_mr = ctx.reg_mr("soc", 4 * MB)
    qp, _ = ctx.connect_rc("soc", "host")
    before = telemetry.snapshot()
    qp.post_write(1, soc_mr, host_mr, 4 * MB)
    cluster.sim.run()
    after = telemetry.snapshot()
    delta = after - before
    # A sustained S2H transfer: PCIe1 sees hundreds of Mpps-scale TLPs.
    assert delta.mpps("pcie1.tlps") > 50
    assert 10 < delta.gbps("pcie1.bytes") < 600
    assert delta.rate("missing-counter") == 0.0


def test_snapshot_order_enforced():
    cluster, ctx, telemetry = make()
    first = telemetry.snapshot()
    cluster.sim.timeout(10)
    cluster.sim.run()
    second = telemetry.snapshot()
    with pytest.raises(ValueError):
        _ = first - second
    assert (second - first).elapsed_ns == 10.0


def test_report_formats_rates():
    cluster, ctx, telemetry = make()
    server = ctx.reg_mr("host", 64 * KB)
    local = ctx.reg_mr("client0", 64 * KB)
    qp, _ = ctx.connect_rc("client0", "host")
    before = telemetry.snapshot()
    qp.post_read(1, local, server, 4 * KB)
    cluster.sim.run()
    report = telemetry.report(before, telemetry.snapshot())
    assert "Mpps" in report and "Gbps" in report
    assert "pcie1.tlps" in report


def test_zero_window_rates_are_zero():
    snap = CounterSnapshot(timestamp=5.0, counters={"x": 3})
    delta = snap - CounterSnapshot(timestamp=5.0, counters={"x": 1})
    assert delta.rate("x") == 0.0


def test_delta_with_counter_appearing_mid_run():
    # Counters like rdma.retransmits only exist after the first fault:
    # a key present only in the later snapshot must read as its value.
    before = CounterSnapshot(timestamp=0.0, counters={"a": 5.0})
    after = CounterSnapshot(timestamp=10.0,
                            counters={"a": 7.0, "rdma.retransmits": 3.0})
    delta = after - before
    assert delta.deltas == {"a": 2.0, "rdma.retransmits": 3.0}


def test_delta_with_counter_disappearing_mid_run():
    # A key present only in the earlier snapshot reads as a negative
    # movement, not a KeyError and not a silent drop.
    before = CounterSnapshot(timestamp=0.0, counters={"a": 5.0, "gone": 4.0})
    after = CounterSnapshot(timestamp=10.0, counters={"a": 5.0})
    delta = after - before
    assert delta.deltas == {"a": 0.0, "gone": -4.0}


def test_delta_keys_are_sorted_regardless_of_origin():
    before = CounterSnapshot(timestamp=0.0, counters={"z": 1.0, "m": 1.0})
    after = CounterSnapshot(timestamp=1.0, counters={"a": 2.0, "m": 3.0})
    delta = after - before
    assert list(delta.deltas) == ["a", "m", "z"]
    assert delta.deltas == {"a": 2.0, "m": 2.0, "z": -1.0}


def test_reversed_snapshot_order_error_names_both_timestamps():
    first = CounterSnapshot(timestamp=1.0, counters={})
    second = CounterSnapshot(timestamp=9.0, counters={})
    with pytest.raises(ValueError, match=r"9.*1|reversed"):
        _ = first - second
    # Equal timestamps are a legal (zero-width) window, not an error.
    assert (first - CounterSnapshot(timestamp=1.0,
                                    counters={})).elapsed_ns == 0.0


def test_perf_report_lists_caches_by_name():
    """Caches register in import order; the report does not follow it."""
    import repro.core.latency  # noqa: F401  (registers "latency")
    import repro.core.throughput  # noqa: F401  ("demand", "solver")
    from repro.telemetry import perf_report

    names = [line.split()[0] for line in perf_report().splitlines()[3:]]
    assert {"demand", "latency", "solver"} <= set(names)
    assert names == sorted(names)
