"""Network fabric and testbed topology (Table 2)."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".fabric": "FabricSpec DEFAULT_FABRIC",
    ".topology": "Testbed paper_testbed",
    ".cluster": "Node ServerInstance SimCluster",
})

__all__ = ["FabricSpec", "DEFAULT_FABRIC", "Testbed", "paper_testbed",
           "Node", "ServerInstance", "SimCluster"]
