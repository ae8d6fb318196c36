"""Workload generators: payload sweeps, access patterns, op mixes."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".payloads": "FIG4_PAYLOADS FIG7_RANGES FIG8_PAYLOADS FIG9_PAYLOADS"
                 " FIG10_BATCHES FIG11_MACHINES power_of_two_sweep",
    ".access": "UniformPattern RangeLimitedPattern ZipfPattern",
    ".mix": "OpMix RequestStream",
    ".traces": "Trace TraceRecord",
    ".population": "PopulationSample PopulationSpec RandomVar"
                   " sample_population",
})

__all__ = [
    "Trace",
    "TraceRecord",
    "FIG4_PAYLOADS",
    "FIG7_RANGES",
    "FIG8_PAYLOADS",
    "FIG9_PAYLOADS",
    "FIG10_BATCHES",
    "FIG11_MACHINES",
    "power_of_two_sweep",
    "UniformPattern",
    "RangeLimitedPattern",
    "ZipfPattern",
    "OpMix",
    "RequestStream",
    "PopulationSample",
    "PopulationSpec",
    "RandomVar",
    "sample_population",
]
