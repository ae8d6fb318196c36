"""The benchmark's three workloads, driven through the public API.

Each workload is one job that runs to completion; the seed is the only
input that varies.  Spans are sized so one job takes a few host seconds
on a 2-core machine.  See ``README.md`` for why each was chosen.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
RACK_SCENARIO = ROOT / "examples" / "rack_scenario.json"

#: Simulated span of one job, in ns.
SPAN_NS = {
    "serve-des": 1_500_000.0,
    "serve-hybrid": 24_000_000.0,
    "rack": 2_000_000.0,
}
WORKLOADS = tuple(SPAN_NS)

#: The ``jobs`` argument of the rack's ``run_cluster``.  Any value above
#: 1 selects the multiprocess lockstep driver, which starts one worker
#: process per shard (12 for the rack) whatever the value; capping the
#: workers at the core count would need a change to ``repro.sim.shard``.
#: On a one-core host the runner passes 1 (the in-process driver).
RACK_JOBS = 2


class Outcome(NamedTuple):
    """One finished job: the report the user reads, and phase marks."""

    report: object                       # ServeReport (merged for rack)
    cluster_decisions: List[object]
    sim_start: float                     # time.monotonic() marks
    sim_end: float
    done: float
    events_executed: Optional[int]       # None when shards ran elsewhere


def run(workload: str, seed: int, jobs: int, probes) -> Outcome:
    """Run one job of ``workload``; ``probes`` supplies the rack's marks."""
    if workload == "rack":
        return _rack(seed, jobs, probes)
    from repro.sched.serve import ServeSession, mixed_tenant_workload

    engine = "hybrid" if workload == "serve-hybrid" else "event"
    tenants = mixed_tenant_workload(duration_ns=SPAN_NS[workload],
                                    seed=seed)
    session = ServeSession(tenants, adaptive=True, engine=engine)
    sim_start = time.monotonic()
    session.run_to_completion()
    sim_end = time.monotonic()
    report = session.finalize()
    done = time.monotonic()
    return Outcome(report, [], sim_start, sim_end, done,
                   session.cluster.sim.events_executed)


def _rack(seed: int, jobs: int, probes) -> Outcome:
    from repro.api.schema import ClusterScenario
    from repro.cluster import run_cluster

    scenario = dataclasses.replace(ClusterScenario.from_file(RACK_SCENARIO),
                                   duration_ns=SPAN_NS["rack"],
                                   population_seed=seed)
    result = run_cluster(scenario, jobs=jobs)
    done = time.monotonic()
    return Outcome(result.serve, list(result.cluster_decisions),
                   probes.marks["sim_start"], probes.marks["sim_end"], done,
                   probes.events_executed if jobs == 1 else None)
