"""Hardware substrate models: PCIe, memory subsystem, CPUs.

These are the first-principles components the paper's anomalies are
caused by; the NIC devices in :mod:`repro.nic` are wired out of them.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".cpu": "CPUSpec HOST_XEON_GOLD_5317 CLIENT_XEON_E5_2650 ARM_CORTEX_A72",
})

__all__ = [
    "CPUSpec",
    "HOST_XEON_GOLD_5317",
    "CLIENT_XEON_E5_2650",
    "ARM_CORTEX_A72",
]
