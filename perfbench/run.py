"""The repo benchmark: three serving workloads, end to end and per layer.

    python3 perfbench/run.py --workload serve-des --seed 0 --seconds 20 \\
        --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(``rep.py``), for about ``--seconds`` seconds, and checks every
repetition's output (``check.py``).  ``--trace 0`` reports the
end-to-end metrics as medians over the repetitions; ``--trace 1``
instead runs rounds of untraced and traced repetitions and reports the
per-layer metrics.  A table goes to standard output first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 1 when any repetition failed the
output check, and 2 when the program or the record of the workload
cannot be found.  ``README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from check import verdict  # noqa: E402
from layers import LAYER_ORDER  # noqa: E402
from workloads import (RACK_JOBS, RACK_SCENARIO, SPAN_NS,  # noqa: E402
                       WORKLOADS)

RECORD = HERE / "record.json"
#: Seeds recorded in ``record.json`` and used while the bounds were set.
SEEDS = tuple(range(10))
#: Recorded seeds kept out of setting the bounds.
HELD_OUT = (100,)
#: Fewest timed repetitions behind a median.
MIN_REPS = 3
#: A run starts no repetition that would end past this many seconds.
MAX_RUN_S = 150.0
#: One repetition may take this long before it counts as failed.
REP_TIMEOUT_S = 120.0
#: Counts recorded per workload and seed, reproduced exactly by every
#: traced run.
EXACT_COUNTS = ("kernel.events", "kernel.events_unwaited", "links.sends",
                "hw.pcie_tlps", "rdma.posts", "shard.windows",
                "hybrid.analytic_completions")

#: Rows of the ``--trace 0`` table that are not ``BENCHMARK.json`` metrics.
NOT_METRICS = ("fail_frac", "host_speed", "measured_wall_s")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_us_per_s", "us/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def launch(workload: str, seed: int, jobs: int, *flags: str,
           timeout: float = REP_TIMEOUT_S, host=None) -> dict:
    """Run ``rep.py`` once and return its JSON result.

    ``host``, a ``hostspeed.HostSpeed``, samples the host while the
    repetition runs.  A repetition that exits badly or prints no result
    comes back with ``error`` set, like one that raised.
    """
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs),
           "--launch", repr(started), *flags]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc, \
            host or contextlib.nullcontext():
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"timed out after {timeout:g} s", "jobs": jobs}
        except BaseException:
            proc.kill()
            raise
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {tail}", "jobs": jobs}
    return result


def end_to_end(rep: dict, speed: float) -> dict:
    """A repetition's metrics, times scaled by the host's ``speed``."""
    return {
        "wall_s": rep["wall_s"] * speed,
        "setup_s": rep["setup_s"] * speed,
        "sim_us_per_s": rep["sim_ns"] / 1e3 / rep["sim_s"] / speed,
        "cpu_s": rep["cpu_s"] * speed,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def load_record() -> dict:
    if not RECORD.exists():
        return {}
    return json.loads(RECORD.read_text()).get("workloads", {})


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def input_seed(seed: int) -> int:
    """The recorded seed whose inputs ``--seed`` runs.

    A recorded seed runs itself; any other runs the bound-setting seed
    ``seed mod len(SEEDS)``, so that every run is checked against a
    recorded digest.
    """
    return seed if seed in SEEDS + HELD_OUT else SEEDS[seed % len(SEEDS)]


class Checker:
    """Applies the output check to each repetition and keeps the tally.

    ``recorded`` is the ``record.json`` entry of the workload and seed:
    the reference digest and the exact counts.  ``record.py`` passes an
    empty entry and compares the repetitions' digests itself.
    """

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.want = recorded.get("digest")
        self.attempted = 0
        self.failures = []

    def __call__(self, rep: dict, counts: dict = None) -> bool:
        self.attempted += 1
        reasons = verdict(rep.get("error"), rep.get("invariant_failures", ()),
                          rep.get("digest"), self.want)
        want_counts = self.recorded.get("counts", {})
        if not reasons and rep.get("events_executed") is not None \
                and "kernel.events" in want_counts \
                and rep["events_executed"] != want_counts["kernel.events"]:
            reasons.append(f"events_executed {rep['events_executed']} != "
                           f"recorded {want_counts['kernel.events']}")
        for key in (counts or {}):
            if key in want_counts and counts[key] != want_counts[key]:
                reasons.append(f"{key} {counts[key]} != recorded "
                               f"{want_counts[key]}")
        if reasons:
            self.failures.append((rep.get("jobs"), reasons))
        return not reasons

    def failed_share(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


def rack_jobs() -> int:
    """``RACK_JOBS``, or 1 (the in-process driver) on a one-core host."""
    return max(1, min(RACK_JOBS, os.cpu_count() or 1))


def measure(workload: str, seed: int, seconds: float, checker) -> dict:
    """``--trace 0``: timed repetitions, medians of end-to-end metrics.

    Each repetition's times are scaled by the host speed over that
    repetition (``hostspeed``).  A jobs=1 repetition leaves the second
    core free, so the calibration loop spins beside it; the rack's
    workers use every core, so there the speed is the mean of samples
    taken just before and just after the repetition.
    """
    jobs = rack_jobs() if workload == "rack" else 1
    beside = jobs == 1 and (os.cpu_count() or 1) > 1
    start = time.monotonic()
    reps = []
    between = []
    while True:
        if beside:
            host = hostspeed.HostSpeed()
            rep = launch(workload, seed, jobs, host=host)
            rep["speed"] = host.speed
        else:
            between.append(hostspeed.sample())
            rep = launch(workload, seed, jobs)
        checker(rep)
        reps.append(rep)
        elapsed = time.monotonic() - start
        per = elapsed / len(reps)
        if elapsed + per > MAX_RUN_S or (len(reps) >= MIN_REPS
                                         and elapsed + per > seconds):
            break
    if not beside:
        between.append(hostspeed.sample())
        for rep, before, after in zip(reps, between, between[1:]):
            rep["speed"] = (before + after) / 2
    ok = [rep for rep in reps if rep.get("error") is None]
    scaled = [end_to_end(rep, rep["speed"]) for rep in ok]
    summary = {}
    for name, unit in END_TO_END:
        values = [row[name] for row in scaled] or [float("nan")]
        summary[name] = (quartiles(values), unit, len(ok))
    summary["fail_frac"] = ((checker.failed_share(), ) * 3, "1", len(reps))
    summary["host_speed"] = (quartiles([rep["speed"] for rep in ok]
                                       or [float("nan")]), "1", len(ok))
    summary["measured_wall_s"] = (quartiles([rep["wall_s"] for rep in ok]
                                            or [float("nan")]), "s", len(ok))
    return summary


class Round(NamedTuple):
    """One round of ``--trace 1`` repetitions of the same job."""

    light: dict      # untraced, jobs=1
    profiled: dict   # cProfile, jobs=1
    ledger: dict     # event ledger, jobs=1
    sharded: dict    # untraced at the rack's job count (= light otherwise)


def traced(workload: str, seed: int, seconds: float, checker) -> list:
    """``--trace 1``: rounds of untraced and traced repetitions.

    Each round runs an untraced jobs=1 repetition (the denominator of
    ``trace.overhead`` and the source of the probe timings), a
    cProfile repetition and an event-ledger repetition.  A worker's
    layer time is not visible from the parent, so ``rack`` is traced in
    process and its ``shard.*`` timings come from a fourth repetition
    at jobs=2.  Returns the rounds in which no repetition raised.
    """
    jobs = rack_jobs() if workload == "rack" else 1
    start = time.monotonic()
    rounds = []
    while True:
        light = launch(workload, seed, 1)
        checker(light)
        profiled = launch(workload, seed, 1, "--profile")
        ledger = launch(workload, seed, 1, "--ledger")
        sharded = light
        if workload == "rack" and jobs > 1:
            sharded = launch(workload, seed, jobs)
            checker(sharded)
        if ledger.get("error") is None:
            ledger["counts"]["kernel.events"] = ledger["events"]["fired"]
            ledger["counts"]["kernel.events_unwaited"] = (
                ledger["events"]["unwaited"])
        if profiled.get("error") is None and ledger.get("error") is None:
            ledger["counts"].update(profiled["counts"])
            counts = {key: ledger["counts"][key] for key in EXACT_COUNTS}
            # Tracing must add no simulated work.
            if ledger["events"]["fired"] != light.get("events_executed"):
                ledger["invariant_failures"].append(
                    f"traced run fired {ledger['events']['fired']} events, "
                    f"the untraced one {light.get('events_executed')}")
            first = next((r.ledger["exact"] for r in rounds
                          if "exact" in r.ledger), counts)
            if counts != first:
                ledger["invariant_failures"].append(
                    "exact counts differ between traced rounds")
            ledger["exact"] = counts
            checker(profiled)
            checker(ledger, counts)
        else:
            checker(profiled)
            checker(ledger)
        rounds.append(Round(light, profiled, ledger, sharded))
        elapsed = time.monotonic() - start
        per = elapsed / len(rounds)
        if elapsed + per > min(seconds, MAX_RUN_S):
            break
    return [r for r in rounds if all(x.get("error") is None for x in r)]


def _self_s(layer):
    return lambda r: r.profiled["self_s"].get(layer, 0.0)


def _count(key):
    return lambda r: r.ledger["counts"][key]


#: Per-layer metrics: name, unit, better, and how one round yields it.
#: Counts come from the traced repetitions, probe times from the
#: untraced ones; ``README.md`` describes each.
PER_LAYER = (
    ("kernel.events", "count", "lower", _count("kernel.events")),
    ("kernel.events_unwaited", "count", "lower",
     _count("kernel.events_unwaited")),
    ("kernel.waited_ratio", "ratio", "higher",
     lambda r: 1 - r.ledger["events"]["unwaited"]
     / r.ledger["events"]["fired"]),
    ("kernel.self_s", "s", "lower", _self_s("kernel")),
    ("kernel.host_ns_per_event", "ns", "lower",
     lambda r: 1e9 * r.light["sim_s"] / r.light["events_executed"]),
    ("links.sends", "count", "lower", _count("links.sends")),
    ("links.events", "count", "lower",
     lambda r: r.ledger["events"]["fired_by_layer"].get("links", 0)),
    ("links.events_unwaited", "count", "lower",
     lambda r: r.ledger["events"]["unwaited_by_layer"].get("links", 0)),
    ("links.self_s", "s", "lower", _self_s("links")),
    ("hw.send_data_calls", "count", "lower", _count("hw.send_data_calls")),
    ("hw.pcie_tlps", "count", "lower", _count("hw.pcie_tlps")),
    ("hw.pcie_bytes", "B", "lower", _count("hw.pcie_bytes")),
    ("hw.self_s", "s", "lower", _self_s("hw")),
    ("rdma.posts", "count", "lower", _count("rdma.posts")),
    ("rdma.retransmits", "count", "lower", _count("rdma.retransmits")),
    ("rdma.self_s", "s", "lower", _self_s("rdma")),
    ("sched.ticks", "count", "lower", _count("sched.ticks")),
    ("sched.decisions", "count", "lower", _count("sched.decisions")),
    ("sched.rejected", "count", "lower", _count("sched.rejected")),
    ("sched.slo_observes", "count", "lower", _count("sched.slo_observes")),
    ("sched.self_s", "s", "lower", _self_s("sched")),
    ("hybrid.flips", "count", "lower", _count("hybrid.flips")),
    ("hybrid.splices", "count", "lower", _count("hybrid.splices")),
    ("hybrid.analytic_completions", "count", "higher",
     _count("hybrid.analytic_completions")),
    ("hybrid.analytic_share", "ratio", "higher",
     _count("hybrid.analytic_share")),
    ("hybrid.self_s", "s", "lower", _self_s("hybrid")),
    ("shard.windows", "count", "lower", _count("shard.windows")),
    ("shard.wait_s", "s", "lower",
     lambda r: r.sharded["probe_s"]["shard.wait_s"]),
    ("shard.worker_cpu_s", "s", "lower",
     lambda r: r.sharded["worker_cpu_s"]),
    ("shard.xshard_sent", "count", "lower", _count("shard.xshard_sent")),
    ("shard.watchdog_s", "s", "lower",
     lambda r: r.sharded["probe_s"]["shard.watchdog_s"]),
    ("shard.self_s", "s", "lower", _self_s("shard")),
    ("cluster.sample_s", "s", "lower",
     lambda r: r.light["probe_s"]["cluster.sample_s"]),
    ("cluster.place_s", "s", "lower",
     lambda r: r.light["probe_s"]["cluster.place_s"]),
    ("cluster.moves", "count", "lower", _count("cluster.moves")),
    ("cluster.ctl_sent", "count", "lower", _count("cluster.ctl_sent")),
    ("cluster.self_s", "s", "lower", _self_s("cluster")),
    ("core.solves", "count", "lower", _count("core.solves")),
    ("core.cache_hit_ratio", "ratio", "higher",
     _count("core.cache_hit_ratio")),
    ("core.self_s", "s", "lower", _self_s("core")),
    ("report.finalize_s", "s", "lower",
     lambda r: (r.light["probe_s"]["report.finalize_s"]
                + r.light["probe_s"]["report.merge_s"])),
    ("report.check_s", "s", "lower", lambda r: r.light["check_s"]),
    ("trace.overhead", "ratio", "lower",
     lambda r: r.profiled["wall_s"] / r.light["wall_s"]),
)


def layer_rows(rounds) -> dict:
    """Per-layer metrics as medians over rounds (counts repeat exactly)."""
    return {name: (quartiles([fn(r) for r in rounds]), unit, len(rounds))
            for name, unit, _better, fn in PER_LAYER}


def print_layer_table(first: Round) -> None:
    """Self time and scheduled events per layer, from one round."""
    self_s = first.profiled["self_s"]
    program = {k: v for k, v in self_s.items() if k != "bench"}
    total = sum(program.values()) or 1.0
    events = first.ledger["events"]
    print(f"  {'layer':<10} {'self_s':>9} {'share':>7} {'events':>9} "
          f"{'unwaited':>9}")
    for layer in LAYER_ORDER + ("external",):
        if layer in program or layer in events["fired_by_layer"]:
            own = program.get(layer, 0.0)
            print(f"  {layer:<10} {own:>9.3f} {own / total:>7.1%} "
                  f"{events['fired_by_layer'].get(layer, 0):>9} "
                  f"{events['unwaited_by_layer'].get(layer, 0):>9}")
    print(f"  (traced self time; the benchmark's own probes took "
          f"{self_s.get('bench', 0.0):.3f} s more)")
    unwaited = events["unwaited"]
    for site, count, fired in events["top_unwaited_sites"]:
        print(f"  unwaited from {site}: {count} of its {fired} events, "
              f"{count / unwaited if unwaited else 0.0:.1%} of all unwaited")
    kernel_links = program.get("kernel", 0.0) + program.get("links", 0.0)
    print(f"  kernel+links share of self time: {kernel_links / total:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not RACK_SCENARIO.is_file():
        print(f"error: no repro source tree under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    seed = input_seed(args.seed)
    record = load_record().get(args.workload, {})
    recorded = record.get("seeds", {}).get(str(seed))
    if record.get("span_ns") != SPAN_NS[args.workload] or recorded is None:
        print(f"error: {RECORD.name} holds no record of {args.workload} "
              f"seed {seed} at its current span; rerun record.py",
              file=sys.stderr)
        return 2
    checker = Checker(recorded)
    if args.trace:
        rounds = traced(args.workload, seed, args.seconds, checker)
        rows = layer_rows(rounds) if rounds else {}
    else:
        rows = measure(args.workload, seed, args.seconds, checker)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{checker.attempted} runs checked against the record of seed "
          f"{seed}, {len(checker.failures)} failed")
    for jobs, reasons in checker.failures:
        print(f"  FAILED (jobs={jobs}): " + "; ".join(reasons))
    if args.trace and rounds:
        print_layer_table(rounds[0])
    for name, ((q1, median, q3), unit, n) in rows.items():
        print(f"  {name:<28} {median:>14.6g} {unit:<6} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n={n}]")
    failed = len(checker.failures)
    correct = failed == 0 and bool(rows)
    metrics = {name: {"value": median, "unit": unit}
               for name, ((_q1, median, _q3), unit, _n) in rows.items()
               if name not in NOT_METRICS}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
