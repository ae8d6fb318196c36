"""Host memory must not grow with simulated sizes or simulated requests.

A simulated resource never costs a proportional host resource: the
working sets of the mixed workload (two of 32 GiB) and of the rack's
sampled population, and the regions every worker registers, describe
address ranges only; a long hybrid run keeps running aggregates of its
completions rather than one record per request.
"""

import gc
import tracemalloc
from pathlib import Path

from repro.api.schema import ClusterScenario
from repro.cluster.run import compile_scenario
from repro.sched.serve import ServeSession, mixed_tenant_workload
from repro.units import GB

RACK_SCENARIO = (Path(__file__).resolve().parents[2] / "examples"
                 / "rack_scenario.json")


def test_building_the_mixed_workload_costs_no_simulated_bytes():
    """Two tenants address 32 GiB each and every worker registers its
    regions at placement; building the session stays under 2 MiB."""
    ServeSession(mixed_tenant_workload())      # imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tenants = mixed_tenant_workload()
        session = ServeSession(tenants)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(t.working_set_bytes >= 32 * GB for t in tenants) == 2
    assert all(t.local_mrs and t.remote_mrs
               for t in session.runtime._tenants.values())
    assert grown < 2 << 20


def test_building_the_rack_population_costs_no_simulated_bytes():
    """The canonical rack samples 112 tenants whose working sets add up
    to tens of GiB; each machine's session builds in under 2 MiB."""
    scenario = ClusterScenario.from_file(RACK_SCENARIO)
    plan, _where, tenants, *_rest = compile_scenario(scenario)
    assert sum(t.working_set_bytes for t in tenants) > 32 * GB
    shard = plan.shards[0]
    ServeSession(shard.tenants, nic=shard.nic)  # imports and caches
    grown = {}
    tracemalloc.start()
    try:
        for shard in plan.shards:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            session = ServeSession(shard.tenants, nic=shard.nic)
            grown[shard.name] = tracemalloc.get_traced_memory()[1] - before
            del session
    finally:
        tracemalloc.stop()
    assert len(grown) > 1
    assert max(grown.values()) < 2 << 20, grown


def test_hybrid_run_holds_under_64_bytes_per_completed_request():
    """After a 6 ms hybrid run (~33k requests, nearly all synthesized by
    the analytic recurrence) the memory still held per request is under
    64 B: one archived latency, no per-request record."""
    session = ServeSession(mixed_tenant_workload(duration_ns=6_000_000.0),
                           engine="hybrid")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session.run_to_completion()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracker = session.tracker
    requests = sum(tracker.completed.values()) + sum(tracker.lost.values())
    assert session.controller.analytic_completions > requests // 2
    assert held / requests < 64
