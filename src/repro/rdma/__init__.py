"""A verbs-style RDMA stack over the simulated cluster.

API shape follows libibverbs: protection domains, registered memory
regions with rkeys, queue pairs (RC for one-sided READ/WRITE, UD for
two-sided SEND/RECV), completion queues, and doorbell batching.  Verbs
execute as discrete-event processes over the cluster's channels and the
SmartNIC's internal PCIe fabric, moving real bytes between real buffers.

Quick tour::

    cluster = SimCluster(paper_testbed())
    ctx = RdmaContext(cluster)
    server_mr = ctx.reg_mr("soc", 1 << 20)
    qp = ctx.connect_rc("client0", "soc")
    done = qp.post_read(wr_id=1, remote_mr=server_mr, remote_offset=0,
                        length=64)
    cluster.sim.run()
    completion = qp.send_cq.poll()[0]
"""

from repro.rdma.opcodes import WorkOpcode, CompletionStatus
from repro.rdma.mr import (MemoryRegion, ProtectionDomain, AccessError,
                           SimMemoryExhausted)
from repro.rdma.cq import CompletionQueue, Completion
from repro.rdma.qp import QueuePair, QPType, QPState, QPError
from repro.rdma.srq import SharedReceiveQueue
from repro.rdma.doorbell import DoorbellBatcher
from repro.rdma.verbs import RdmaContext

__all__ = [
    "WorkOpcode",
    "CompletionStatus",
    "MemoryRegion",
    "ProtectionDomain",
    "AccessError",
    "SimMemoryExhausted",
    "CompletionQueue",
    "Completion",
    "QueuePair",
    "QPType",
    "QPState",
    "QPError",
    "SharedReceiveQueue",
    "DoorbellBatcher",
    "RdmaContext",
]
