"""Serving-engine parity: the heap queue vs the batched queue.

Every serving engine (``"event"`` and ``"hybrid"`` on top of it) runs
on the binary-heap :class:`repro.sim.engine.Simulator`.
:class:`repro.sim.batchq.BatchSimulator` must still reproduce it bit
for bit at the serving level; these tests swap it in for one of two
runs by patching ``repro.sim.engine.Simulator``, which ``ServeSession``
looks up when it builds its cluster.
"""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.schema import ClusterScenario, SchemaError
from repro.faults.plan import FaultPlan, SocCrash
from repro.sched.serve import ServeSession, mixed_tenant_workload, run_serve
from repro.sim import engine
from repro.sim.batchq import BatchSimulator
from repro.sim.engine import Simulator


def _key(report):
    return {name: (t.completed, t.rejected, t.lost, t.p50_ns, t.p99_ns,
                   t.goodput_gbps, t.slo_goodput_gbps)
            for name, t in report.tenants.items()}


def _run_batched(monkeypatch, *args, **kwargs):
    """``run_serve`` with the batched queue in place of the heap."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "Simulator", BatchSimulator)
        return run_serve(*args, **kwargs)


@pytest.mark.parametrize("name", ["event", "hybrid"])
def test_every_engine_runs_on_the_heap_queue(name):
    session = ServeSession(mixed_tenant_workload(duration_ns=50_000.0),
                           engine=name)
    assert type(session.cluster.sim) is Simulator


def test_des_heap_engine_is_removed():
    """``"des-heap"`` was a second spelling of ``"event"``; it is gone
    from sessions and from cluster-scenario documents alike."""
    with pytest.raises(ValueError, match="unknown serve engine"):
        ServeSession(mixed_tenant_workload(duration_ns=50_000.0),
                     engine="des-heap")
    doc = json.loads((pathlib.Path(__file__).resolve().parents[2]
                      / "examples" / "rack_scenario.json").read_text())
    doc["engine"] = "des-heap"
    with pytest.raises(SchemaError, match="engine"):
        ClusterScenario.from_dict(doc)


def test_batched_queue_swaps_in_through_the_engine_module(monkeypatch):
    monkeypatch.setattr(engine, "Simulator", BatchSimulator)
    session = ServeSession(mixed_tenant_workload(duration_ns=50_000.0))
    assert type(session.cluster.sim) is BatchSimulator


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown serve engine"):
        run_serve(mixed_tenant_workload(duration_ns=50_000.0),
                  engine="warp-drive")


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=40))
def test_batch_and_heap_engines_bit_identical(monkeypatch, seed):
    """Property: across stream seeds, the batched queue reproduces the
    heap engine bit-for-bit — counts, latencies and decision log."""
    heap = run_serve(mixed_tenant_workload(duration_ns=400_000.0,
                                           seed=seed))
    batch = _run_batched(monkeypatch,
                         mixed_tenant_workload(duration_ns=400_000.0,
                                               seed=seed))
    assert _key(batch) == _key(heap)
    assert [d.as_tuple() for d in batch.decisions] \
        == [d.as_tuple() for d in heap.decisions]
    assert batch.path_gbps == heap.path_gbps
    assert batch.elapsed_ns == heap.elapsed_ns


def test_parity_holds_under_faults(monkeypatch):
    plan = FaultPlan(faults=(SocCrash(at=150_000.0),))
    heap = run_serve(mixed_tenant_workload(duration_ns=500_000.0, seed=3),
                     faults=plan)
    batch = _run_batched(monkeypatch,
                         mixed_tenant_workload(duration_ns=500_000.0,
                                               seed=3),
                         faults=plan)
    assert _key(batch) == _key(heap)
    assert [d.as_tuple() for d in batch.decisions] \
        == [d.as_tuple() for d in heap.decisions]
