"""repro — the off-path SmartNIC characterization study, in simulation.

Reproduces "Characterizing Off-path SmartNIC for Accelerating Distributed
Systems" (OSDI 2023): a component-level model of a Bluefield-2-class
off-path SmartNIC (PCIe fabric, NIC cores, SoC, host memory), a verbs
stack over a discrete-event simulator, and the characterization
framework — latency/throughput models for the three communication paths,
anomaly detectors and the offloading advisor.

Typical entry points::

    from repro import Session          # the one-object facade
    from repro import paper_testbed, Flow, CommPath, Opcode, ThroughputSolver
    from repro.core import LatencyModel, Advisor
    from repro.net.cluster import SimCluster
    from repro.rdma import RdmaContext

:class:`Session` (also at :mod:`repro.api`) is the stable public
surface — see docs/api.md.
"""

from importlib import import_module as _import_module


def _lazy_exports(namespace, exports):
    """PEP 562 hooks for the package whose globals are ``namespace``.

    ``exports`` maps a module (relative to the package when it starts
    with a dot) to the space-separated names it provides.  The first
    access to any of them imports that module and caches all of its
    names in the package namespace, so later lookups are plain
    attribute reads.  That also rebinds a name the import just shadowed
    with its submodule (``replicate`` in :mod:`repro.stats`).  Returns
    the package's ``__getattr__`` and ``__dir__``.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names.split()}

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = _import_module(origin[name], package)
        for export in exports[origin[name]].split():
            namespace[export] = getattr(module, export)
        return namespace[name]

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.api": "RunOptions Session",
    "repro.core.paths": "CommPath Opcode",
    "repro.core.throughput": "Flow Scenario SolverResult ThroughputSolver",
    "repro.core.latency": "LatencyModel",
    "repro.core.packets": "PacketCountModel",
    "repro.core.flows": "ConcurrencyAnalyzer",
    "repro.core.advisor": "Advisor WorkloadProfile",
    "repro.core.anomalies": "detect_all",
    "repro.net.topology": "Testbed paper_testbed",
})

__version__ = "1.0.0"

__all__ = [
    "Session",
    "RunOptions",
    "CommPath",
    "Opcode",
    "Flow",
    "Scenario",
    "SolverResult",
    "ThroughputSolver",
    "LatencyModel",
    "PacketCountModel",
    "ConcurrencyAnalyzer",
    "Advisor",
    "WorkloadProfile",
    "detect_all",
    "Testbed",
    "paper_testbed",
    "__version__",
]
