"""NIC devices: RNIC (ConnectX-style) and off-path SmartNIC (Bluefield-style).

A :class:`~repro.nic.smartnic.SmartNIC` wires the substrate together the
way Fig 2(c) shows: NIC cores behind PCIe1, a PCIe switch, the host
behind PCIe0, and the SoC hanging directly off the switch.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".specs": "NICCoreSpec RNICSpec SmartNICSpec DoorbellCosts CONNECTX6"
              " CONNECTX4 BLUEFIELD2 BLUEFIELD3 HOST_MEMORY SOC_MEMORY"
              " CLIENT_MEMORY",
    ".core": "NICCores Endpoint",
    ".soc": "SoC",
    ".rnic": "RNIC",
    ".smartnic": "SmartNIC",
})

__all__ = [
    "NICCoreSpec",
    "RNICSpec",
    "SmartNICSpec",
    "DoorbellCosts",
    "CONNECTX6",
    "CONNECTX4",
    "BLUEFIELD2",
    "BLUEFIELD3",
    "HOST_MEMORY",
    "SOC_MEMORY",
    "CLIENT_MEMORY",
    "NICCores",
    "Endpoint",
    "SoC",
    "RNIC",
    "SmartNIC",
]
