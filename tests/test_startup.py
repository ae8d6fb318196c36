"""Start-up cost: a run imports only the modules it executes.

Every package init resolves its exports on first access (PEP 562), the
CLI imports each command's dependencies inside its handler, and a
serving run never loads the sweep, plotting, app, trace-export,
replication or cluster layers.  Each check runs in a fresh interpreter,
because this test process has long since imported everything.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
_RACK = pathlib.Path(__file__).resolve().parents[1] / "examples" / \
    "rack_scenario.json"


def _run(code: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code, *args], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": _SRC}).stdout


def _loaded(statement: str) -> set:
    """Every module in ``sys.modules`` after ``statement`` runs."""
    out = _run(f"import sys\n{statement}\nprint(' '.join(sys.modules))")
    return set(out.split())


def _repro(modules: set) -> set:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


@pytest.mark.parametrize("statement, expected", [
    ("import repro", {"repro"}),
    ("import repro.core, repro.sim, repro.sched",
     {"repro", "repro.core", "repro.sim", "repro.sched"}),
])
def test_package_import_loads_only_package_inits(statement, expected):
    assert _repro(_loaded(statement)) == expected


@pytest.mark.parametrize("statement, never_run", [
    ("import repro.sched.serve",
     {"repro.core.harness", "repro.core.sweeps", "repro.core.plot",
      "repro.apps.kvstore", "repro.trace.export", "repro.trace.tracer",
      "repro.stats.kernels", "repro.stats.replicate", "repro.faults.plan",
      "repro.cluster", "repro.sim.shard", "concurrent.futures"}),
    # A rack without cluster faults never arms the injector.
    ("import repro.cluster.run, repro.sim.shard",
     {"repro.faults.cluster", "repro.faults.plan", "repro.trace.tracer",
      "repro.core.harness"}),
])
def test_run_skips_what_it_never_executes(statement, never_run):
    loaded = _loaded(statement)
    assert statement.split()[1].rstrip(",") in loaded
    assert not never_run & loaded


def test_cli_imports_only_what_its_parser_needs():
    loaded = _repro(_loaded("import repro.cli"))
    assert not {m for m in loaded
                if m.startswith(("repro.sched", "repro.sim",
                                 "repro.core.harness", "repro.stats"))}


def test_lazy_export_is_cached_in_the_package():
    out = _run("import repro.core as core\n"
               "first = core.Advisor\n"
               "print('Advisor' in vars(core), core.Advisor is first)")
    assert out.split() == ["True", "True"]


def test_unknown_export_raises_attribute_error():
    import repro.sim

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.sim.Nope


_WORKER_MODULES = """
import dataclasses, json, os, sys
import repro.sim.shard as shard
from repro.api.schema import ClusterScenario
from repro.cluster import run_cluster

real = shard._shard_worker

def watched(conn, *args, **kwargs):
    before = set(sys.modules)
    try:
        real(conn, *args, **kwargs)
    finally:
        late = sorted(m for m in set(sys.modules) - before
                      if m.startswith('repro'))
        # One write per worker: lines from 12 processes must not mix.
        os.write(1, (json.dumps(late) + '\\n').encode())

shard._shard_worker = watched
scenario = dataclasses.replace(ClusterScenario.from_file(sys.argv[1]),
                               duration_ns=100_000.0, engine=sys.argv[2])
run_cluster(scenario, jobs=2)
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="shard workers are forked only where fork is "
                           "the start method")
@pytest.mark.parametrize("engine", ["event", "hybrid"])
def test_rack_workers_import_nothing_after_fork(engine):
    """Every module a shard session runs is loaded in the parent before
    the workers fork, so 12 workers never compile one source 12 times."""
    out = _run(_WORKER_MODULES, str(_RACK), engine)
    late = [json.loads(line) for line in out.splitlines()]
    assert len(late) == 12          # one line per machine's worker
    assert late == [[]] * 12
