"""Example distributed systems built on the RDMA stack.

* :mod:`repro.apps.kvstore` — the Fig 1 scenario: a distributed
  in-memory key-value store served either with one-sided READs (network
  amplification) or with the index offloaded to the SmartNIC SoC.
* :mod:`repro.apps.rpc` — a two-sided UD echo/RPC server (the Fig 4
  SEND/RECV responder).
* :mod:`repro.apps.offload` — a bulk host->SoC offload engine applying
  Advice #3 (segmentation) and Advice #4 (SoC-side doorbell batching).
* :mod:`repro.apps.logship` — log shipping with a token-bucket budget
  on path ③ (the §4 partitioning rule as an application).
* :mod:`repro.apps.replicated_kv` — a two-server replicated KV store:
  budgeted path-③ shipping, SoC-to-SoC relay, offloaded replica reads.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".kvstore": "KVServer OneSidedKVClient OffloadedKVClient",
    ".rpc": "RpcServer RpcClient",
    ".offload": "OffloadEngine OffloadConfig OffloadStats",
    ".logship": "LogShipper ShipStats TokenBucket WriterStats client_writer",
    ".replicated_kv": "ReplicatedKV ReplicationStats",
})

__all__ = [
    "KVServer",
    "OneSidedKVClient",
    "OffloadedKVClient",
    "RpcServer",
    "RpcClient",
    "OffloadEngine",
    "OffloadConfig",
    "OffloadStats",
    "LogShipper",
    "ShipStats",
    "TokenBucket",
    "WriterStats",
    "client_writer",
    "ReplicatedKV",
    "ReplicationStats",
]
