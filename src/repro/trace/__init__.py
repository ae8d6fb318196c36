"""Span tracing and latency attribution for the simulated SNIC datapath.

The paper's anomalies are all "where did the nanoseconds go" stories;
this package answers them span by span: attach a :class:`Tracer` to a
:class:`~repro.net.cluster.SimCluster`, run verbs, and get one
nanosecond-resolution span tree per work request — doorbell MMIO, NIC
pipeline, every PCIe link/switch hop, DMA transactions, wire time, CQE
delivery.  On fault-free runs the spans of each tree exactly tile the
end-to-end latency, which makes the tracer double as the strongest
correctness oracle the DES has (see ``tests/trace/``).

Quick start::

    from repro.core.paths import CommPath, Opcode
    from repro.trace import run_traced_verbs, attribution_report

    tracer = run_traced_verbs(CommPath.SNIC3_H2S, Opcode.WRITE, 4096)
    print(attribution_report(tracer.traces))

Export for chrome://tracing / https://ui.perfetto.dev::

    from repro.trace import write_chrome_trace
    write_chrome_trace(tracer.traces, "trace.json")
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".capture": "PATH_NODES run_traced_verbs",
    ".export": "chrome_trace chrome_trace_json write_chrome_trace",
    ".report": "Attribution attribution_report span_tree_text",
    ".span": "INSTANT_CATEGORIES Span VerbTrace",
    ".tracer": "TraceError Tracer classify_path",
})

__all__ = [
    "Attribution",
    "INSTANT_CATEGORIES",
    "PATH_NODES",
    "Span",
    "TraceError",
    "Tracer",
    "VerbTrace",
    "attribution_report",
    "chrome_trace",
    "chrome_trace_json",
    "classify_path",
    "run_traced_verbs",
    "span_tree_text",
    "write_chrome_trace",
]
