"""Rack-scale serving: many machines, one scheduler, one scenario.

* :class:`MachineSpec` — one machine and its NIC device (off-path
  SmartNIC or plain RNIC).
* :func:`bin_pack_placement` / :func:`round_robin_placement` — tenant →
  machine placement against per-machine Fig-11 budgets (and the static
  baseline).
* :class:`ClusterScheduler` — barrier-time migration over the lockstep
  fabric (SLO-breach offload, crash retarget), deterministic at any
  ``jobs``.
* :func:`run_cluster` / :class:`ClusterReport` — compile a declarative
  :class:`~repro.api.schema.ClusterScenario` and run it end to end.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".machine": "MachineSpec",
    ".run": "ClusterReport compile_scenario run_cluster",
    ".scheduler": "ClusterDecision ClusterScheduler bin_pack_placement"
                  " round_robin_placement",
})

__all__ = [
    "ClusterDecision",
    "ClusterReport",
    "ClusterScheduler",
    "MachineSpec",
    "bin_pack_placement",
    "compile_scenario",
    "round_robin_placement",
    "run_cluster",
]
