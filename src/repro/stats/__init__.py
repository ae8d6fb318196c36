"""``repro.stats``: the statistical rigor layer.

Four pieces, layered so the rest of the toolkit can depend on the
kernels without dragging in the serving stack:

* :mod:`repro.stats.kernels` — :class:`Estimate` (mean ± CI),
  Student-t quantiles, batch-means intervals, order-statistic
  quantiles.  Pure stdlib, no repro imports.
* :mod:`repro.stats.warmup` — MSER initialization-transient
  truncation for window series.
* :mod:`repro.stats.invariants` — the machine-checked catalog: flow
  conservation, Little's law, utilization ≤ capacity, report sanity.
* :mod:`repro.stats.replicate` / :mod:`repro.stats.validate` —
  cross-seed replication (pooled + cached) and the ``repro validate``
  verification report.  They reach into :mod:`repro.sched` and
  :mod:`repro.sim`, which themselves use the kernels; like every
  package export they are imported on first access (PEP 562).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".invariants": "InvariantResult check_report violations",
    ".kernels": "Estimate agreement batch_means mean_estimate quantile"
                " student_t_cdf student_t_ppf",
    ".warmup": "WarmupResult apply_warmup mser_truncation",
    ".replicate": "Replication replicate report_estimate",
    ".validate": "ValidationRow VerificationReport run_validation",
})

__all__ = [
    "Estimate",
    "InvariantResult",
    "Replication",
    "ValidationRow",
    "VerificationReport",
    "WarmupResult",
    "agreement",
    "apply_warmup",
    "batch_means",
    "check_report",
    "mean_estimate",
    "mser_truncation",
    "quantile",
    "replicate",
    "report_estimate",
    "run_validation",
    "student_t_cdf",
    "student_t_ppf",
    "violations",
]
