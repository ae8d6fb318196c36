"""A PCIe link instance inside a discrete-event simulation.

Wraps a full-duplex channel with TLP segmentation and per-direction
TLP/byte counters (the simulated equivalent of the Bluefield hardware
counters the paper reads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event
from repro.sim.links import DuplexChannel
from repro.sim.monitor import Counter
from repro.hw.pcie.config import PCIeLinkSpec
from repro.hw.pcie.tlp import TLP_HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class PCIeLink:
    """One physical PCIe link between two components.

    Direction convention: ``forward=True`` means *downstream-to-upstream*
    is up to the caller; the NIC wiring in :mod:`repro.nic.smartnic`
    documents which end is which.  Propagation latency is per traversal.
    """

    def __init__(self, sim: "Simulator", spec: PCIeLinkSpec,
                 latency: float = 0.0, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.channel = DuplexChannel(sim, spec.bandwidth, latency, name=self.name)
        self.tlps_fwd = Counter()
        self.tlps_rev = Counter()
        self.data_bytes_fwd = Counter()
        self.data_bytes_rev = Counter()

    def send_tlp(self, payload: int, forward: bool = True) -> Event:
        """Transfer one TLP carrying ``payload`` data bytes."""
        counter = self.tlps_fwd if forward else self.tlps_rev
        data = self.data_bytes_fwd if forward else self.data_bytes_rev
        counter.add(1)
        data.add(payload)
        return self.channel.send(payload + TLP_HEADER_BYTES, forward=forward)

    def send_data(self, nbytes: int, mps: int, forward: bool = True) -> Event:
        """Transfer ``nbytes`` segmented into TLPs of at most ``mps``.

        Returns the delivery event of the *last* TLP.  A zero-byte
        transfer completes after one propagation delay with no TLPs.
        """
        # One channel send per TLP (a per-instance ``channel.send``
        # wrapper, such as a fault injector's, sees every TLP), but the
        # TLP and byte counters are bumped once for the whole burst.
        send = self.channel.send
        full, rest = divmod(nbytes, mps)
        tlps = full + (1 if rest else 0)
        if tlps == 0:
            last = send(0, forward=forward)
        else:
            wire = mps + TLP_HEADER_BYTES
            for _ in range(full):
                last = send(wire, forward=forward)
            if rest:
                last = send(rest + TLP_HEADER_BYTES, forward=forward)
            counter = self.tlps_fwd if forward else self.tlps_rev
            data = self.data_bytes_fwd if forward else self.data_bytes_rev
            counter.total += tlps
            counter.events += tlps
            data.total += nbytes
            data.events += tlps
        tracer = self.sim.tracer
        if tracer is not None:
            # One span per traversal, not per TLP: delivery time of the
            # last TLP is known at submission, so no event is added and
            # the span starts at submission (gap-free under contention;
            # queueing shows up as a longer span, not a hole).
            simplex = self.channel.fwd if forward else self.channel.rev
            tracer.point(f"pcie:{self.name}", "pcie", self.sim.now,
                         self.sim.now + simplex.last_delivery_delay(),
                         link=self.name, bytes=nbytes, tlps=tlps,
                         direction="fwd" if forward else "rev")
        return last

    # -- counters (hardware-counter style) ---------------------------------------

    @property
    def total_tlps(self) -> float:
        """Total TLPs carried in both directions."""
        return self.tlps_fwd.total + self.tlps_rev.total

    @property
    def total_data_bytes(self) -> float:
        """Total data payload bytes carried in both directions."""
        return self.data_bytes_fwd.total + self.data_bytes_rev.total
