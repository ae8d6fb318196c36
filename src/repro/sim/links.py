"""Bandwidth-limited channels for modelling serial links.

A :class:`SimplexChannel` serializes transfers at a fixed byte rate and
delivers them after a propagation latency — the standard
store-and-forward pipe.  A :class:`DuplexChannel` is a pair of independent
simplex channels, one per direction, matching full-duplex links such as
PCIe lanes and InfiniBand ports where opposite-direction traffic does not
compete (§3.1 of the paper: READ+WRITE multiplex to ~2x one direction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class _Lost:
    """Sentinel delivered by a transfer that was dropped in flight.

    A fault injector (see :mod:`repro.faults`) may replace a channel's
    delivery event with one carrying :data:`LOST`; consumers that care
    about reliability compare the yielded value against it.  Fault-free
    channels never produce it.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<LOST>"


LOST = _Lost()


class SimplexChannel:
    """One direction of a serial link.

    ``bandwidth`` is in bytes/ns; ``latency`` is the propagation delay in
    ns added after serialization.  Transfers are serialized FIFO: a
    transfer begins when all previously submitted bytes have left the
    sender.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._free_at: float = 0.0
        self.bytes_sent = Counter()
        self.transfers = Counter()

    def busy_until(self) -> float:
        """Simulated time at which the sender side becomes idle."""
        return max(self._free_at, self.sim.now)

    def send(self, nbytes: float) -> Event:
        """Submit a transfer; the returned event fires at delivery time."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        # Called once per TLP: the body is ``Counter.add`` and
        # ``Event.succeed`` inlined, with the same float arithmetic.
        sim = self.sim
        now = sim._now
        free_at = self._free_at
        if now > free_at:
            free_at = now
        free_at += nbytes / self.bandwidth
        self._free_at = free_at
        sent = self.bytes_sent
        sent.total += nbytes
        sent.events += 1
        transfers = self.transfers
        transfers.total += 1
        transfers.events += 1
        done = Event(sim)
        done._value = nbytes
        sim._schedule(done, free_at + self.latency - now)
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` ns spent serializing bytes."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent.total / self.bandwidth) / elapsed)

    def last_delivery_delay(self) -> float:
        """Delay from now until the most recently submitted transfer
        would deliver (used by fault injectors to time a LOST marker)."""
        return max(0.0, self._free_at - self.sim.now) + self.latency


class DuplexChannel:
    """A full-duplex link: two independent simplex channels.

    Directions are named ``fwd`` (A->B) and ``rev`` (B->A); which physical
    end is "A" is the caller's convention.
    """

    def __init__(self, sim: "Simulator", bandwidth: float, latency: float = 0.0,
                 name: str = ""):
        self.name = name
        self.fwd = SimplexChannel(sim, bandwidth, latency, name=f"{name}.fwd")
        self.rev = SimplexChannel(sim, bandwidth, latency, name=f"{name}.rev")

    def send(self, nbytes: float, forward: bool = True) -> Event:
        """Transfer in the given direction; fires at delivery."""
        channel = self.fwd if forward else self.rev
        return channel.send(nbytes)

    @property
    def bytes_sent(self) -> float:
        """Total bytes carried in both directions."""
        return self.fwd.bytes_sent.total + self.rev.bytes_sent.total
