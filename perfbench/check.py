"""The output check: what makes one benchmark run a failed run.

A run fails when it raised, when any row of
:func:`repro.stats.invariants.check_report` fails, or when its result
digest differs from the reference digest for its workload and seed.
The digest covers what a user reads off the report: per tenant the
completed, rejected and lost counts, p50, p99 and final path; the
decision logs; and every telemetry counter (``pcieN.tlps`` included).
Host timings never enter it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Optional, Sequence


def digest(report, cluster_decisions: Sequence = ()) -> str:
    """SHA-256 over the checked fields, floats at full precision."""
    document = {
        "elapsed_ns": report.elapsed_ns,
        "tenants": [[name, t.completed, t.rejected, t.lost, t.p50_ns,
                     t.p99_ns, t.final_path]
                    for name, t in sorted(report.tenants.items())],
        "decisions": [list(d.as_tuple()) for d in report.decisions],
        "cluster_decisions": [list(d.as_tuple())
                              for d in cluster_decisions],
        "counters": sorted(report.counters.items()),
    }
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_failures(report) -> List[str]:
    """Every failed :func:`~repro.stats.invariants.check_report` row."""
    from repro.stats.invariants import check_report

    return [str(row) for row in check_report(report) if not row.ok]


def verdict(error: Optional[str], failures: Iterable[str],
            got_digest: Optional[str],
            want_digest: Optional[str]) -> List[str]:
    """Why a run failed; an empty list means it passed."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    reasons = [f"invariant: {row}" for row in failures]
    if want_digest is not None and got_digest != want_digest:
        reasons.append(f"digest {got_digest[:12]} != reference "
                       f"{want_digest[:12]}")
    return reasons


def check_report_run(report, cluster_decisions: Sequence = (),
                     want_digest: Optional[str] = None) -> List[str]:
    """The whole check on an in-memory report (used by the tests)."""
    return verdict(None, invariant_failures(report),
                   digest(report, cluster_decisions), want_digest)
