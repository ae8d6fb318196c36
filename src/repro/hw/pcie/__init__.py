"""PCIe substrate: TLPs, links, switch, DMA, MMIO.

The key facts the paper's analysis rests on, all modelled here:

* A PCIe *memory write* is **posted** — no completion travels back
  (Fig 3: WRITE omits the completion).
* A PCIe *memory read* is **non-posted** — a small request TLP goes out
  and the data returns as completion TLPs, so a READ crosses the link
  twice.
* Payloads are segmented into TLPs no larger than the negotiated
  **Maximum Payload Size** (called "PCIe MTU" in the paper, Table 3):
  512 B toward the host, 128 B toward the wimpy SoC endpoint.
* Every switch hop adds 150-200 ns one way (§3.1).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".tlp": "TLP_HEADER_BYTES TLP_READ_REQUEST_BYTES TlpKind Tlp"
            " negotiate_mps segment_count segment_sizes wire_bytes"
            " read_wire_cost write_wire_cost",
    ".config": "PCIeGen PCIeLinkSpec PCIE_GEN3 PCIE_GEN4 PCIE_GEN5",
    ".link": "PCIeLink",
    ".switch": "PCIeSwitch SwitchPort",
    ".mmio": "MMIOModel",
    ".dma": "DmaEngine",
})

__all__ = [
    "TLP_HEADER_BYTES",
    "TLP_READ_REQUEST_BYTES",
    "TlpKind",
    "Tlp",
    "negotiate_mps",
    "segment_count",
    "segment_sizes",
    "wire_bytes",
    "read_wire_cost",
    "write_wire_cost",
    "PCIeGen",
    "PCIeLinkSpec",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "PCIeLink",
    "PCIeSwitch",
    "SwitchPort",
    "MMIOModel",
    "DmaEngine",
]
