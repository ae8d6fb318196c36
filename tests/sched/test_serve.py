"""Integration tests for the serving engine: determinism and failover."""

import pytest

from repro.faults import FaultPlan, SocCrash
from repro.faults.plan import LinkDown
from repro.sched import SloTracker, mixed_tenant_workload, run_serve
from repro.sched.serve import ServeSession, TenantReport
from repro.units import to_gbps


def test_scheduler_is_deterministic():
    """Same seed, same workload: bit-identical decisions and completions."""
    a = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=7))
    b = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=7))
    assert [d.as_tuple() for d in a.decisions] == \
           [d.as_tuple() for d in b.decisions]
    assert {n: t.completed for n, t in a.tenants.items()} == \
           {n: t.completed for n, t in b.tenants.items()}
    assert a.path_gbps == b.path_gbps
    for name in a.tenants:
        assert a.tenants[name].p99_ns == b.tenants[name].p99_ns


def test_different_seeds_still_converge_on_placements():
    report = run_serve(mixed_tenant_workload(duration_ns=200_000.0, seed=3))
    places = {d.tenant: d.to_path.value for d in report.decisions
              if d.kind == "place"}
    assert places == {"alpha": "snic-2", "beta": "snic-1",
                      "delta": "snic-1", "gamma": "snic-3-h2s"}


def test_mid_run_soc_crash_fails_over_exactly_once_per_tenant():
    """A SoC crash mid-run migrates each SoC-resident tenant host-ward
    exactly once, loses nothing, and keeps serving."""
    plan = FaultPlan(faults=(SocCrash(server="server0", at=300_000.0),))
    report = run_serve(mixed_tenant_workload(duration_ns=600_000.0),
                       faults=plan)

    failovers = [d for d in report.decisions if d.kind == "failover"]
    # alpha (path 2) and gamma (path 3) terminate on the SoC; beta and
    # delta live on host memory and must not move.
    assert sorted(d.tenant for d in failovers) == ["alpha", "gamma"]
    for d in failovers:
        assert d.time_ns >= 300_000.0
        assert d.to_responder == "host"
        assert d.reason == "soc-crash"

    assert report.lost == 0
    assert report.tenants["alpha"].final_path == "snic-1"
    assert report.tenants["alpha"].migrations == 1
    assert report.tenants["gamma"].final_path == "degraded"
    assert report.tenants["gamma"].migrations == 1
    assert report.tenants["beta"].migrations == 0
    assert report.tenants["delta"].migrations == 0
    # The degraded relay kept completing bulk requests after the crash.
    assert report.tenants["gamma"].degraded > 0
    # Every tenant finished its stream: nothing wedged on dead QPs.
    for t in report.tenants.values():
        assert t.completed > 0


def test_static_mode_records_no_decisions():
    report = run_serve(mixed_tenant_workload(duration_ns=150_000.0),
                       adaptive=False)
    assert report.decisions == []
    assert not report.adaptive
    assert report.lost == 0


def _list_based_reports(session, records):
    """``TenantReport``s and ``path_gbps`` recomputed from the full list
    of completion records, the way the report was built before the
    runtime kept running aggregates instead of the list."""
    tenants = {}
    for spec in session.tenants:
        mine = [r for r in records if r.tenant == spec.name]
        ok = sorted(r.latency_ns for r in mine if r.ok)
        in_slo = [r for r in mine
                  if r.ok and r.latency_ns <= spec.slo.deadline]
        span = (max((r.end_ns for r in mine), default=0.0)
                - min((r.start_ns for r in mine), default=0.0)) or 1.0
        lease = session.runtime.lease(spec.name)
        tenants[spec.name] = TenantReport(
            name=spec.name,
            final_path=("degraded" if lease.degraded else lease.path.value),
            completed=len(ok),
            rejected=session.tracker.rejected[spec.name],
            lost=sum(1 for r in mine if not r.ok),
            degraded=sum(1 for r in mine if r.degraded),
            p50_ns=ok[len(ok) // 2] if ok else 0.0,
            p99_ns=(ok[min(len(ok) - 1, int(0.99 * len(ok)))]
                    if ok else 0.0),
            goodput_gbps=to_gbps(spec.payload * len(ok) / span),
            slo_goodput_gbps=to_gbps(spec.payload * len(in_slo) / span),
            slo_attainment=(len(in_slo) / len(ok)) if ok else 0.0,
            migrations=sum(1 for d in session.decisions
                           if d.tenant == spec.name
                           and d.kind in ("migrate", "failover")),
        )
    warmup_ns = 2 * session.interval_ns
    payload = {t.name: t.payload for t in session.tenants}
    by_path = {}
    for r in records:
        if r.ok and r.end_ns > warmup_ns:
            by_path.setdefault(r.path.value, []).append(r)
    path_gbps = {
        path: to_gbps(sum(payload[r.tenant] for r in mine)
                      / ((max(r.end_ns for r in mine) - warmup_ns) or 1.0))
        for path, mine in by_path.items()}
    return tenants, path_gbps


_CRASH_AND_LINK_DOWN = FaultPlan(faults=(
    SocCrash(server="server0", at=100_000.0),
    LinkDown(target="net.client1", start=120_000.0, end=250_000.0)))


@pytest.mark.parametrize("engine,faults", [
    ("event", None), ("hybrid", None), ("event", _CRASH_AND_LINK_DOWN)],
    ids=["event", "hybrid", "soc-crash"])
def test_streaming_aggregates_reproduce_list_based_report(
        monkeypatch, engine, faults):
    """Every TenantReport field and path_gbps, built from running
    aggregates, equals the list-based formulas over every completion
    record the tracker was fed."""
    records = []
    observe = SloTracker.observe

    def capture(tracker, record, payload):
        records.append(record)
        observe(tracker, record, payload)

    monkeypatch.setattr(SloTracker, "observe", capture)
    session = ServeSession(mixed_tenant_workload(duration_ns=300_000.0),
                           engine=engine, faults=faults)
    session.run_to_completion()
    report = session.finalize()
    tenants, path_gbps = _list_based_reports(session, records)
    assert report.tenants == tenants
    assert list(report.path_gbps.items()) == list(path_gbps.items())
    if engine == "hybrid":
        assert report.hybrid_stats["analytic_completions"] > 0
    if faults is not None:
        assert sum(t.degraded for t in tenants.values()) > 0
        assert sum(t.lost for t in tenants.values()) > 0


def test_runtime_completion_log_is_removed():
    """The runtime keeps running aggregates, not a per-request log; the
    report's tenants and windows carry what the log was read for."""
    session = ServeSession(mixed_tenant_workload(duration_ns=50_000.0))
    session.run_to_completion()
    assert not hasattr(session.runtime, "completions")
    assert session.finalize().windows
