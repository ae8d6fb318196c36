"""Memory substrate: DRAM geometry, LLC with DDIO, combined subsystem.

Models the §3.2 skew anomaly: a host CPU with DDIO absorbs NIC accesses
in the LLC regardless of how narrow the address range is, while the SoC
(no DDIO) serves them from a single DRAM channel whose bank-level
parallelism collapses when the accessed range is small.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".address": "AddressRegion UniformAddresses",
    ".dram": "DRAMConfig DRAMModel",
    ".cache": "LLCConfig",
    ".subsystem": "MemorySubsystem",
    ".cachesim": "CacheStats SetAssociativeCache",
    ".dramsim": "DramBankSim DramTimingParams",
})

__all__ = [
    "AddressRegion",
    "UniformAddresses",
    "DRAMConfig",
    "DRAMModel",
    "LLCConfig",
    "MemorySubsystem",
    "CacheStats",
    "SetAssociativeCache",
    "DramBankSim",
    "DramTimingParams",
]
