"""Cross-seed replication: caching, pooling, and the estimates.

The pool path must produce the same reports as the serial path, the
cache must make a re-replication free, and the estimates must read the
window archive the serving layer now exports.
"""

import dataclasses
import importlib
import math

import pytest

from repro.stats.kernels import Estimate
from repro.stats.replicate import (
    METRICS,
    REPLICATE_CACHE,
    Replication,
    replicate,
    replicate_families,
    report_estimate,
)

DURATION_NS = 300_000.0


@pytest.fixture(scope="module")
def adaptive_rep():
    return replicate("adaptive", seeds=(0, 1, 2), duration_ns=DURATION_NS)


def test_one_report_per_seed(adaptive_rep):
    assert adaptive_rep.n == 3
    assert adaptive_rep.seeds == (0, 1, 2)
    assert len(adaptive_rep.reports) == 3
    assert adaptive_rep.tenant_names() == ("alpha", "beta", "delta",
                                           "gamma")


def test_replicate_accepts_count_or_sequence():
    by_count = replicate("adaptive", seeds=3, duration_ns=DURATION_NS)
    by_seq = replicate("adaptive", seeds=(0, 1, 2),
                       duration_ns=DURATION_NS)
    assert by_count.seeds == by_seq.seeds
    for a, b in zip(by_count.reports, by_seq.reports):
        assert a.total_slo_goodput_gbps == b.total_slo_goodput_gbps


def test_second_replication_is_cache_hits(adaptive_rep):
    hits_before = REPLICATE_CACHE.hits
    again = replicate("adaptive", seeds=(0, 1, 2),
                      duration_ns=DURATION_NS)
    assert REPLICATE_CACHE.hits >= hits_before + 3
    for a, b in zip(adaptive_rep.reports, again.reports):
        assert a is b   # literally the cached object


# The module, not the ``repro.stats.replicate`` function of the same name.
replicate_module = importlib.import_module("repro.stats.replicate")
_RUN_ONE = replicate_module._run_one


def _seed_marked_run(family, seed, duration_ns, engine):
    """One replicate whose report carries its seed in ``counters``."""
    report = _RUN_ONE(family, seed, duration_ns, engine)
    report.counters["test.seed"] = seed
    return report


def test_pool_matches_serial(monkeypatch):
    """The pool returns the serial reports, in the order seeds were given.

    Every standard family gives identical reports across seeds (the seed
    only picks addresses, and no timing model depends on the address),
    so order would be invisible; each report is marked with its seed to
    make the replicates differ.  Pool workers are forked, so they run
    the marked ``_run_one`` too.
    """
    monkeypatch.setattr(replicate_module, "_run_one", _seed_marked_run)
    seeds = (2, 0, 1)
    serial = replicate("adaptive", seeds=seeds, duration_ns=100_000.0,
                       use_cache=False)
    pooled = replicate("adaptive", seeds=seeds, duration_ns=100_000.0,
                       jobs=2, use_cache=False)
    marks = [r.counters["test.seed"] for r in serial.reports]
    assert marks == list(seeds)     # the replicates differ
    for serial_report, parallel in zip(serial.reports, pooled.reports):
        assert list(parallel.tenants) == list(serial_report.tenants)
        for name in serial_report.tenants:
            assert (dataclasses.asdict(parallel.tenants[name])
                    == dataclasses.asdict(serial_report.tenants[name])), name
        assert parallel.windows == serial_report.windows
        assert parallel.conservation == serial_report.conservation
        assert parallel.counters == serial_report.counters


def test_estimates_cover_every_metric(adaptive_rep):
    for metric in METRICS:
        est = adaptive_rep.estimate("alpha", metric)
        assert isinstance(est, Estimate)
        assert est.n == 3
        assert math.isfinite(est.mean)
    with pytest.raises(ValueError):
        adaptive_rep.estimate("alpha", "no-such-metric")


def test_within_run_reads_the_window_archive(adaptive_rep):
    est = adaptive_rep.within_run("gamma", field="p99_ns")
    assert est.n >= 2
    assert est.mean > 0
    assert math.isfinite(est.half_width)


def test_report_estimate_empty_tenant_is_unbounded(adaptive_rep):
    est = report_estimate(adaptive_rep.reports[0], "no-such-tenant")
    assert est.n == 0 and math.isinf(est.half_width)


def test_invariants_qualify_the_seed(adaptive_rep):
    results = adaptive_rep.invariants()
    assert results
    assert all(r.ok for r in results)
    subjects = {r.subject for r in results}
    assert any(s.endswith("@seed0") for s in subjects)
    assert any(s.endswith("@seed2") for s in subjects)


def test_broken_counter_family_fails_loudly():
    rep = replicate("broken-counter", seeds=1, duration_ns=DURATION_NS)
    bad = [r for r in rep.invariants() if not r.ok]
    assert bad
    assert {r.name for r in bad} >= {"flow-conservation", "littles-law"}
    assert any(r.subject == "alpha@seed0" for r in bad)


def test_family_catalog_and_unknown_family():
    families = replicate_families(duration_ns=DURATION_NS)
    assert "adaptive" in families and "broken-counter" in families
    with pytest.raises(ValueError):
        replicate("no-such-family", seeds=1, duration_ns=DURATION_NS)
    with pytest.raises(ValueError):
        replicate("adaptive", seeds=0)


def test_replication_requires_matched_lengths(adaptive_rep):
    with pytest.raises(ValueError):
        Replication(family="adaptive", duration_ns=DURATION_NS,
                    engine="event", seeds=(0, 1),
                    reports=adaptive_rep.reports)
