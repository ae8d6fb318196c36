"""Deterministic fault injection for the simulated testbed.

The subsystem is three layers:

* :mod:`repro.faults.plan` — typed, serializable fault specifications
  (:class:`FaultPlan` and friends);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which arms a
  plan against a live cluster by wrapping exactly the targeted link
  instances (pay-as-you-go: an empty plan touches nothing);
* :mod:`repro.faults.cluster` — :class:`ClusterInjector`, which arms
  cluster-scope faults (machine crashes, fabric partition/loss/delay/
  reorder) against a sharded run's cross-shard fabric;
* :mod:`repro.faults.bench` — goodput/latency-under-loss benchmarks.

See ``docs/robustness.md`` for the fault model and the RC reliability
protocol that absorbs these faults.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".cluster": "ClusterInjector",
    ".injector": "FaultInjector",
    ".plan": "Fault FaultPlan FabricDelay FabricLoss FabricPartition"
             " FabricReorder LinkDown LinkFlap MachineCrash NodeStall"
             " PacketLoss SocCrash is_cluster_fault",
})

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "ClusterInjector",
    "PacketLoss",
    "LinkDown",
    "LinkFlap",
    "NodeStall",
    "SocCrash",
    "MachineCrash",
    "FabricPartition",
    "FabricLoss",
    "FabricDelay",
    "FabricReorder",
    "is_cluster_fault",
]
