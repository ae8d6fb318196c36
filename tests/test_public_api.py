"""The stable public surface: export snapshots and removed aliases.

``repro`` and ``repro.api`` are the supported import points; this file
pins their exports so accidental additions/removals fail review, checks
the new spellings import cleanly under ``-W error::DeprecationWarning``
(the CI gate), and that the removed deprecated aliases stay removed.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.api
from repro.cli import main
from repro.core.options import RunOptions
from repro.core.sweeps import SweepRunner
from repro.net.topology import paper_testbed
from repro.sched.serve import ServeReport

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

# Frozen snapshots: changing the public surface is an API decision,
# not a side effect — update these lists deliberately.
REPRO_EXPORTS = [
    "Advisor",
    "CommPath",
    "ConcurrencyAnalyzer",
    "Flow",
    "LatencyModel",
    "Opcode",
    "PacketCountModel",
    "RunOptions",
    "Scenario",
    "Session",
    "SolverResult",
    "Testbed",
    "ThroughputSolver",
    "WorkloadProfile",
    "__version__",
    "detect_all",
    "paper_testbed",
]

API_EXPORTS = ["ClusterScenario", "MachineDoc", "RunOptions",
               "SchedulerDoc", "Session", "TenantDoc"]


def test_repro_export_snapshot():
    assert sorted(repro.__all__) == REPRO_EXPORTS


def test_api_export_snapshot():
    assert sorted(repro.api.__all__) == API_EXPORTS


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_new_spellings_are_warning_free():
    """The supported imports stay clean under -W error."""
    code = ("import repro, repro.api, repro.sched\n"
            "from repro import Session, RunOptions\n"
            "from repro.core.harness import LatencyBench, ThroughputBench\n")
    subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        check=True, env={**os.environ, "PYTHONPATH": _SRC})


def test_bench_module_is_removed():
    """``repro.core.bench`` is gone; ``repro.core.harness`` replaces it."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.bench")


@pytest.mark.parametrize("flag", [["--engine", "scalar"], ["--jobs", "2"],
                                  ["--disk-cache", "d"], ["--machines", "3"]])
def test_solver_speed_machinery_is_removed(flag):
    """One scalar solver: no numpy engine, no sweep pool, no disk cache,
    and ``engine`` names a serving engine only."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.batch")
    with pytest.raises(ValueError, match="unknown engine"):
        RunOptions(engine="vector")
    with pytest.raises(TypeError):
        SweepRunner(paper_testbed(), jobs=2)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fig4", *flag])
    assert exc.value.code == 2


def test_removed_aliases_stay_removed():
    """The deprecated spellings are gone for good, not half-present."""
    with pytest.raises(TypeError, match="vectorized"):
        SweepRunner(paper_testbed(), vectorized=True)
    assert not hasattr(ServeReport, "worst_p99_ns")
