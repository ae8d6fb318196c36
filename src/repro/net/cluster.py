"""A discrete-event instantiation of the testbed: nodes, links, fabric.

:class:`SimCluster` turns a :class:`~repro.net.topology.Testbed` into
live simulation objects: one node per client machine, a host (and, for
the SmartNIC build-out, a SoC) per server, duplex network channels
through the InfiniBand switch, and each SmartNIC's internal PCIe fabric.
The RDMA stack (:mod:`repro.rdma`) executes verbs against these objects,
so latency and byte movement are simulated rather than computed.

Multiple servers are supported (``n_servers``), matching the testbed's
three SRV machines: server 0 owns nodes ``host``/``soc``; additional
servers own ``host1``/``soc1`` and so on.  Cross-server RDMA goes over
the fabric like any client traffic; path-③ semantics apply only within
one server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.hw.cpu import CPUSpec
from repro.net.topology import Testbed
from repro.nic.core import Endpoint
from repro.nic.rnic import RNIC
from repro.nic.smartnic import SmartNIC
from repro.sim import DuplexChannel, Resource, Simulator
from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.rdma.qp import QueuePair

# Concurrent processing units inside a server NIC's verb pipeline.
# With service time = units / verb_rate per op, the aggregate saturates
# exactly at the spec's verb rate while single requests see only one
# unit's worth of service time.
NIC_PIPELINE_UNITS = 16


@dataclass
class Node:
    """One CPU complex with memory that can own QPs.

    ``kind`` is ``"client"``, ``"host"`` or ``"soc"``.  ``memory`` is a
    real byte store so applications move actual data.  Server nodes
    carry the name of the server they live on.
    """

    name: str
    kind: str
    cpu: CPUSpec
    memory_bytes: int
    server: Optional[str] = None
    cluster: Optional["SimCluster"] = field(repr=False, default=None)
    # Set by a fault injector's SoC-crash (or recovery); a crashed
    # node's memory is unreachable and inbound packets are lost.
    crashed: bool = field(repr=False, default=False)

    def __post_init__(self):
        if self.kind not in ("client", "host", "soc"):
            raise ValueError(f"unknown node kind: {self.kind}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory must be positive: {self.memory_bytes}")
        if (self.server is None) == (self.kind != "client"):
            raise ValueError("server nodes need a server name; clients none")

    @property
    def on_server(self) -> bool:
        return self.kind in ("host", "soc")

    @property
    def endpoint(self) -> Optional[Endpoint]:
        if self.kind == "host":
            return Endpoint.HOST
        if self.kind == "soc":
            return Endpoint.SOC
        return None

    def same_server_as(self, other: "Node") -> bool:
        return (self.server is not None and other.server is not None
                and self.server == other.server)


@dataclass
class ServerInstance:
    """One SRV machine: its NIC build-out and shared NIC pipeline."""

    name: str
    snic: Optional[SmartNIC]
    rnic: Optional[RNIC]
    channel: DuplexChannel
    pipeline: Resource
    service_ns: float

    @property
    def cores(self):
        if self.snic is not None:
            return self.snic.spec.cores
        return self.rnic.spec.cores

    def dma_route(self, endpoint: Endpoint):
        """(dma_engine, route, mps) for a DMA to ``endpoint`` memory."""
        if self.snic is not None:
            return (self.snic.dma, self.snic.route_to(endpoint),
                    self.snic.mps_for(endpoint))
        if endpoint is not Endpoint.HOST:
            raise ValueError("the RNIC build-out has no SoC endpoint")
        return (self.rnic.dma, self.rnic.route_to_host(),
                self.rnic.host_mps)


class SimCluster:
    """The live simulation of one testbed.

    ``nic`` selects the server build-out: ``"snic"`` (the Bluefield,
    with a SoC node and internal fabric) or ``"rnic"`` (the ConnectX
    baseline — host only, a single PCIe link).
    """

    def __init__(self, testbed: Testbed, sim: Optional[Simulator] = None,
                 n_clients: int = 2, client_memory: int = 1 * GB,
                 host_memory: int = 4 * GB, nic: str = "snic",
                 n_servers: int = 1):
        if n_clients < 1:
            raise ValueError(f"need at least one client: {n_clients}")
        if n_clients > testbed.n_clients:
            raise ValueError(
                f"testbed has only {testbed.n_clients} client machines")
        if nic not in ("snic", "rnic"):
            raise ValueError(f"unknown NIC build-out: {nic!r}")
        if not 1 <= n_servers <= 3:
            raise ValueError("the testbed has 1-3 SRV machines (Table 2)")
        self.testbed = testbed
        self.sim = sim or Simulator()
        self.nic_mode = nic

        self.nodes: Dict[str, Node] = {}
        self._channels: Dict[str, DuplexChannel] = {}
        self.servers: Dict[str, ServerInstance] = {}

        # QP bookkeeping is scoped to this cluster (not process-global)
        # so back-to-back simulations get identical QPNs and can never
        # observe each other's QPs.
        self._qp_registry: Dict[int, "QueuePair"] = {}
        self._qpn_counter = itertools.count(100)
        # Reliability/fault counters, read by Telemetry.snapshot().
        self.stats: Dict[str, float] = {}
        self.fault_injector: Optional["FaultInjector"] = None

        fabric = testbed.fabric
        for k in range(n_servers):
            suffix = "" if k == 0 else str(k)
            server_name = f"server{k}"
            snic = rnic = None
            if nic == "snic":
                snic = testbed.snic if k == 0 else SmartNIC(
                    testbed.snic.spec, host_memory=testbed.snic.host_memory)
                if snic.sim is not self.sim:
                    snic.instantiate(self.sim)
                cores = snic.spec.cores
            else:
                rnic = testbed.rnic if k == 0 else RNIC(
                    testbed.rnic.spec, host_memory=testbed.rnic.host_memory)
                if rnic.sim is not self.sim:
                    rnic.instantiate(self.sim)
                cores = rnic.spec.cores
            channel = DuplexChannel(
                self.sim, cores.network_bandwidth,
                latency=fabric.one_way_latency() / 2,
                name=f"net.{server_name}")
            server = ServerInstance(
                name=server_name, snic=snic, rnic=rnic, channel=channel,
                pipeline=Resource(self.sim, capacity=NIC_PIPELINE_UNITS),
                service_ns=NIC_PIPELINE_UNITS / cores.verb_rate_host_only)
            self.servers[server_name] = server
            self._add_node(Node(f"host{suffix}", "host", testbed.host_cpu,
                                host_memory, server=server_name))
            if snic is not None:
                self._add_node(Node(f"soc{suffix}", "soc", snic.soc.cpu,
                                    snic.soc.dram_bytes, server=server_name))

        for i in range(n_clients):
            name = f"client{i}"
            self._add_node(Node(name, "client", testbed.client_cpu,
                                client_memory))
            client_bw = min(testbed.client_nic.cores.network_bandwidth,
                            fabric.port_bandwidth)
            self._channels[name] = DuplexChannel(
                self.sim, client_bw, latency=fabric.one_way_latency(),
                name=f"net.{name}")

    # -- server access -----------------------------------------------------------

    @property
    def _server0(self) -> ServerInstance:
        return self.servers["server0"]

    @property
    def snic(self) -> Optional[SmartNIC]:
        """Server 0's SmartNIC (None in the RNIC build-out)."""
        return self._server0.snic

    @property
    def rnic(self) -> Optional[RNIC]:
        """Server 0's RNIC (None in the SmartNIC build-out)."""
        return self._server0.rnic

    @property
    def server_cores(self):
        """Server 0's NIC core spec (single-server convenience)."""
        return self._server0.cores

    @property
    def nic_pipeline(self) -> Resource:
        return self._server0.pipeline

    def server_of(self, node: Node) -> ServerInstance:
        """The server instance a server-side node lives on."""
        if node.server is None:
            raise ValueError(f"{node.name} is not a server node")
        return self.servers[node.server]

    def dma_route(self, target: Union[Node, Endpoint]):
        """(dma_engine, route, mps) for a DMA into ``target``.

        Accepts a server-side node, or a bare endpoint (resolved on
        server 0 for single-server convenience).
        """
        if isinstance(target, Node):
            return self.server_of(target).dma_route(target.endpoint)
        return self._server0.dma_route(target)

    # -- queue-pair registry -------------------------------------------------------

    def register_qp(self, qp: "QueuePair") -> int:
        """Assign the next QPN of this cluster and index the QP."""
        qpn = next(self._qpn_counter)
        self._qp_registry[qpn] = qp
        return qpn

    def qp_by_qpn(self, qpn: int) -> "QueuePair":
        """Resolve a QP number (e.g. a completion's source) to its QP."""
        from repro.rdma.qp import QPError

        try:
            return self._qp_registry[qpn]
        except KeyError:
            raise QPError(f"unknown QPN {qpn}") from None

    def qps_on(self, node: Node) -> List["QueuePair"]:
        """All QPs owned by ``node``, in creation order."""
        return [qp for qp in self._qp_registry.values() if qp.node is node]

    # -- reliability / fault bookkeeping -------------------------------------------

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Increment a cluster-level counter (telemetry surface)."""
        self.stats[key] = self.stats.get(key, 0.0) + amount

    def install_faults(self, plan: "FaultPlan",
                       seed: int = 0) -> "FaultInjector":
        """Install a fault plan; returns the (already armed) injector."""
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self, plan, seed=seed)
        injector.install()
        return injector

    # -- node access -------------------------------------------------------------

    def _add_node(self, node: Node) -> None:
        node.cluster = self
        self.nodes[node.name] = node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    def clients(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "client"]

    def channel(self, node: Node) -> DuplexChannel:
        """The network channel a node's traffic traverses."""
        if node.on_server:
            return self.server_of(node).channel
        return self._channels[node.name]

    def memory_subsystem_of(self, node: Node):
        """The memory hierarchy behind a node's DMA endpoint.

        ``None`` for clients (their memory is not a modelled DMA target);
        used by the span tracer to attribute memory touches to the LLC
        or DRAM access path.
        """
        if not node.on_server:
            return None
        server = self.server_of(node)
        if server.snic is not None:
            return server.snic.memory_of(node.endpoint)
        return server.rnic.host_memory

    @property
    def server_channel(self) -> DuplexChannel:
        """Server 0's network channel (single-server convenience)."""
        return self._server0.channel
