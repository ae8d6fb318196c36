"""One repetition of one workload, in a fresh interpreter.

``run.py`` launches this script once per repetition so that set-up time
includes interpreter start and the ``repro`` imports, and so that peak
RSS belongs to this job alone.  The last line of standard output is a
JSON object with the phase marks, resource use, the result digest and,
with ``--profile`` or ``--ledger``, the per-layer numbers.

    python3 perfbench/rep.py --workload serve-des --seed 0 --jobs 1 \\
        --launch "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check      # noqa: E402  (benchmark modules, after the path set-up)
import layers     # noqa: E402
import workloads  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def counts_from_report(report, cluster_decisions) -> dict:
    """Per-layer counts the report itself carries."""
    counters = report.counters
    hybrid = report.hybrid_stats or {}
    completed = sum(t.completed for t in report.tenants.values())

    def total(suffix):
        return sum(v for k, v in counters.items()
                   if k.startswith("pcie") and k.endswith(suffix)
                   and k[4:-len(suffix)].isdigit())

    return {
        "hw.pcie_tlps": int(total(".tlps")),
        "hw.pcie_bytes": int(total(".bytes")),
        "rdma.retransmits": int(counters.get("rdma.retransmits", 0)),
        "sched.decisions": len(report.decisions),
        "sched.rejected": sum(t.rejected for t in report.tenants.values()),
        "hybrid.flips": int(hybrid.get("flips", 0)),
        "hybrid.splices": int(hybrid.get("splices", 0)),
        "hybrid.analytic_completions": int(
            hybrid.get("analytic_completions", 0)),
        "hybrid.analytic_share": (hybrid.get("analytic_completions", 0)
                                  / completed if completed else 0.0),
        "shard.xshard_sent": int(counters.get("xshard.sent", 0)),
        "cluster.moves": len(cluster_decisions),
        "cluster.ctl_sent": int(counters.get("clustersched.ctl_sent", 0)),
    }


def _cache_hit_ratio() -> float:
    from repro.core.cache import counter_snapshot

    hits = misses = 0.0
    for key, value in counter_snapshot().items():
        if key.endswith(".hits"):
            hits += value
        elif key.endswith(".misses"):
            misses += value
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    traced = parser.add_mutually_exclusive_group()
    traced.add_argument("--profile", action="store_true",
                        help="traced run: cProfile self time per layer")
    traced.add_argument("--ledger", action="store_true",
                        help="traced run: events by scheduling layer")
    args = parser.parse_args(argv)

    out = {"workload": args.workload, "seed": args.seed, "jobs": args.jobs,
           "error": None}
    probes = layers.Probes().install()
    profile = layers.Profile() if args.profile else None
    ledger = layers.EventLedger() if args.ledger else None
    try:
        with profile or contextlib.nullcontext(), \
                ledger or contextlib.nullcontext():
            outcome = workloads.run(args.workload, args.seed, args.jobs,
                                    probes)
    except Exception:
        out["error"] = traceback.format_exc()
        print(json.dumps(out))
        return 0
    finally:
        probes.uninstall()
    self_use = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = outcome.report
    checked_at = time.monotonic()
    failures = check.invariant_failures(report)
    got = check.digest(report, outcome.cluster_decisions)
    check_s = time.monotonic() - checked_at

    out.update({
        "setup_s": outcome.sim_start - args.launch,
        "sim_s": outcome.sim_end - outcome.sim_start,
        "wall_s": outcome.done - args.launch,
        "sim_ns": report.elapsed_ns,
        "cpu_s": _cpu_s(self_use) + _cpu_s(workers),
        "worker_cpu_s": _cpu_s(workers),
        # ru_maxrss is in KiB on Linux; for children it is the largest
        # single reaped worker, not a sum.
        "peak_rss_mb": max(self_use.ru_maxrss, workers.ru_maxrss) / 1024.0,
        "digest": got,
        "invariant_failures": failures,
        "events_executed": outcome.events_executed,
        "probe_s": dict(probes.seconds),
        "check_s": check_s,
        "counts": counts_from_report(report, outcome.cluster_decisions),
    })
    out["counts"]["shard.windows"] = probes.calls["shard.window_s"]
    if profile is not None:
        out["self_s"] = profile.self_seconds()
        out["counts"].update(profile.call_counts())
        out["counts"]["core.cache_hit_ratio"] = _cache_hit_ratio()
    if ledger is not None:
        out["events"] = {
            "fired": sum(ledger.fired.values()),
            "unwaited": sum(ledger.unwaited.values()),
            "fired_by_layer": ledger.by_layer(ledger.fired),
            "unwaited_by_layer": ledger.by_layer(ledger.unwaited),
            "top_unwaited_sites": ledger.top_sites(),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
