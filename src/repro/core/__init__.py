"""The paper's contribution: the SmartNIC communication-path
characterization framework.

Public surface:

* :class:`~repro.core.paths.CommPath` / :class:`~repro.core.paths.Opcode`
  — the communication paths of Fig 2 and the verbs studied.
* :mod:`repro.core.packets` — the Table-3 closed-form PCIe packet model.
* :mod:`repro.core.throughput` — operational-law peak-throughput solver.
* :mod:`repro.core.latency` — end-to-end latency composition (Fig 4 upper).
* :mod:`repro.core.flows` — concurrent-flow scenarios (Fig 5, §4).
* :mod:`repro.core.anomalies` — detectors for the four anomalies.
* :mod:`repro.core.advisor` — the offloading advice engine (Advice #1-4).
* :mod:`~repro.core.harness` — measurement harness driving solver and DES.
* :mod:`repro.core.options` — the shared :class:`RunOptions` knobs.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".paths": "CommPath Opcode PathEnds",
    ".packets": "PacketCountModel PathPacketCounts",
    ".throughput": "Flow Scenario SolverResult ThroughputSolver",
    ".options": "RunOptions",
    ".sweeps": "StageTimings SweepRunner",
    ".latency": "LatencyModel LatencyBreakdown",
    ".flows": "FlowPattern ConcurrencyAnalyzer",
    ".anomalies": "Anomaly AnomalyReport detect_all detect_skew_vulnerability"
                  " detect_hol_collapse detect_pcie_underutilization"
                  " detect_doorbell_regression",
    ".advisor": "Advisor Advice OffloadPlan WorkloadProfile",
    ".harness": "Measurement Sweep LatencyBench ThroughputBench",
    ".whatif": "CxlPath3Model bluefield3_testbed speed_ratios with_cci_soc",
    ".loaded": "LoadedLatencyModel LoadedPoint",
    ".plot": "ascii_plot plot_sweeps",
})

__all__ = [
    "CommPath",
    "Opcode",
    "PathEnds",
    "PacketCountModel",
    "PathPacketCounts",
    "Flow",
    "Scenario",
    "SolverResult",
    "ThroughputSolver",
    "RunOptions",
    "StageTimings",
    "SweepRunner",
    "LatencyModel",
    "LatencyBreakdown",
    "FlowPattern",
    "ConcurrencyAnalyzer",
    "Anomaly",
    "AnomalyReport",
    "detect_all",
    "detect_skew_vulnerability",
    "detect_hol_collapse",
    "detect_pcie_underutilization",
    "detect_doorbell_regression",
    "Advisor",
    "Advice",
    "OffloadPlan",
    "WorkloadProfile",
    "Measurement",
    "Sweep",
    "LatencyBench",
    "ThroughputBench",
    "CxlPath3Model",
    "bluefield3_testbed",
    "speed_ratios",
    "with_cci_soc",
    "LoadedLatencyModel",
    "LoadedPoint",
    "ascii_plot",
    "plot_sweeps",
]
