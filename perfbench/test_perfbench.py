"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q

* the module-to-layer map covers every module under ``src/repro``
  exactly once;
* the output check fails a run whose counters were tampered with (the
  ``broken-counter`` saboteur of ``repro.stats.replicate``) and a run
  whose digest differs in one tenant's ``completed`` — its negative
  controls — and passes the untampered run;
* ``BENCHMARK.json`` lists exactly the metrics the runner prints;
* time metrics scale with the measured host speed, rates inversely;
* every ``--seed`` runs the inputs of a seed in ``record.json``;
* ``record.json`` holds a bound-setting and a held-out seed for every
  workload, with the exact counts and the host of each.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check      # noqa: E402
import hostspeed  # noqa: E402
import layers     # noqa: E402
import run        # noqa: E402

SPAN_NS = 200_000.0


def test_every_module_maps_to_exactly_one_layer():
    modules = layers.source_modules()
    assert "repro.sim.links" in modules
    for module in modules:
        entries = layers.matching_entries(module)
        assert len(entries) == 1, f"{module} is covered by {entries}"
    for entry in layers.LAYERS:
        assert any(layers.claims(entry, m) for m in modules), \
            f"map entry {entry!r} covers no module"
    assert set(layers.LAYERS.values()) == set(layers.LAYER_ORDER)


def test_layer_of_file_resolves_source_and_benchmark_files():
    src = layers.SRC / "repro"
    assert layers.layer_of_file(str(src / "sim" / "links.py")) == "links"
    assert layers.layer_of_file(str(src / "hw" / "pcie" / "link.py")) == "hw"
    assert layers.layer_of_file(str(src / "sim" / "__init__.py")) == "kernel"
    assert layers.layer_of_file(str(HERE / "run.py")) == "bench"
    assert layers.layer_of_file(json.__file__) is None


@pytest.fixture(scope="module")
def clean():
    from repro.sched.serve import ServeSession, mixed_tenant_workload

    session = ServeSession(mixed_tenant_workload(duration_ns=SPAN_NS,
                                                 seed=0),
                           adaptive=True, engine="event")
    session.run_to_completion()
    report = session.finalize()
    return report, check.digest(report)


def test_untampered_run_passes(clean):
    report, want = clean
    assert check.check_report_run(report, want_digest=want) == []


def test_broken_counter_is_a_failed_run(clean):
    from repro.stats.replicate import _run_one

    _report, want = clean
    sabotaged = _run_one("broken-counter", 0, SPAN_NS, "event")
    reasons = check.check_report_run(sabotaged, want_digest=want)
    assert any(r.startswith("invariant: flow-conservation") for r in reasons)
    assert any(r.startswith("digest") for r in reasons)


def test_digest_differing_in_one_tenants_completed_is_a_failed_run(clean):
    report, want = clean
    alpha = report.tenants["alpha"]
    tampered = dataclasses.replace(report, tenants={
        **report.tenants,
        "alpha": dataclasses.replace(alpha, completed=alpha.completed + 1)})
    reasons = check.check_report_run(tampered, want_digest=want)
    assert any(r.startswith("digest") for r in reasons), reasons


def test_checker_counts_failed_repetitions():
    checker = run.Checker({"digest": "a" * 64,
                           "counts": {"kernel.events": 5}})
    good = {"jobs": 1, "digest": "a" * 64, "invariant_failures": [],
            "events_executed": 5}
    assert checker(good)
    assert not checker(dict(good, digest="b" * 64))
    assert not checker(dict(good, events_executed=6))
    assert not checker({"jobs": 2, "error": "Traceback\nValueError: x"})
    assert not checker(good, {"kernel.events": 4})
    assert (checker.attempted, len(checker.failures)) == (5, 4)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_times_scale_with_host_speed():
    rep = {"wall_s": 2.0, "setup_s": 0.5, "sim_ns": 1e6, "sim_s": 1.0,
           "cpu_s": 1.5, "peak_rss_mb": 80.0}
    assert run.end_to_end(rep, 1.0) == {
        "wall_s": 2.0, "setup_s": 0.5, "sim_us_per_s": 1000.0,
        "cpu_s": 1.5, "peak_rss_mb": 80.0}
    fast = run.end_to_end(rep, 2.0)
    assert (fast["wall_s"], fast["setup_s"], fast["cpu_s"]) == (4.0, 1.0, 3.0)
    assert (fast["sim_us_per_s"], fast["peak_rss_mb"]) == (500.0, 80.0)
    host = hostspeed.sample()
    assert 0.0 < host < 100.0


def test_every_seed_runs_a_recorded_seed():
    record = run.load_record()
    for seed in (0, 9, 10, 57, 100, 101, 12345):
        ran = run.input_seed(seed)
        if seed in run.SEEDS + run.HELD_OUT:
            assert ran == seed
        else:
            assert ran in run.SEEDS
        for entry in record.values():
            assert str(ran) in entry["seeds"]


def test_record_has_a_held_out_seed_per_workload():
    record = run.load_record()
    assert set(record) == set(run.WORKLOADS)
    for workload, entry in record.items():
        assert entry["span_ns"] == run.SPAN_NS[workload]
        held = [e["held_out"] for e in entry["seeds"].values()]
        assert any(held) and not all(held), workload
        for seed in entry["seeds"].values():
            assert set(seed["counts"]) == set(run.EXACT_COUNTS)
            assert {"cores", "ram_gib", "python", "numpy"} <= set(seed["host"])
