"""One shared spelling for the measurement-run knobs.

Every harness historically grew its own option names: ``SweepRunner``
took its own keywords, the benches took a ``runner=`` injection, the
CLI spelled the same things ``--no-cache`` / ``--profile``, and cache
configuration lived in yet another function.  :class:`RunOptions` is
the single normalized form: build one, hand it to
:class:`~repro.core.harness.LatencyBench` /
:class:`~repro.core.harness.ThroughputBench` /
:class:`~repro.api.Session`, or parse it straight off an argparse
namespace with :meth:`RunOptions.from_args`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.sweeps import StageTimings, SweepRunner
    from repro.net.topology import Testbed

#: Serving engine names, shared by :class:`RunOptions`, ``ServeSession``,
#: the CLI and the cluster-scenario schema.
ENGINES = ("event", "hybrid")


@dataclass(frozen=True)
class RunOptions:
    """Normalized evaluation options for model sweeps and serving runs.

    * ``engine`` — serving engine, one of :data:`ENGINES`: ``"event"``
      (pure DES) or ``"hybrid"``, which switches
      :meth:`repro.api.Session.serve` and
      :meth:`~repro.api.Session.serve_cluster` to the analytic/DES
      hybrid engine (see docs/performance.md).  Solver sweeps ignore
      it: they have one backend.
    * ``jobs`` — worker processes for
      :meth:`~repro.api.Session.serve_cluster` (0 = the run's default).
    * ``cache`` — use the content-keyed solver result cache.
    * ``profile`` — collect per-stage wall-time (``StageTimings``).
    * ``machines`` — cluster-scenario machine-count override
      (0 = use the scenario document's rack as written).
    * ``population_seed`` — override the scenario's population
      sampling seed (None = use the document's).
    """

    engine: str = "event"
    jobs: int = 0
    cache: bool = True
    profile: bool = False
    machines: int = 0
    population_seed: Optional[int] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine: {self.engine!r} "
                             f"(expected one of {ENGINES})")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0: {self.jobs}")
        if self.machines < 0:
            raise ValueError(f"machines must be >= 0: {self.machines}")

    # -- consumers -----------------------------------------------------------

    def runner(self, testbed: Testbed,
               timings: Optional[StageTimings] = None) -> SweepRunner:
        """A :class:`SweepRunner` configured from these options.

        The runner honours ``cache`` in its own solves and changes no
        process-wide setting.  When ``profile`` is set (and no
        ``timings`` is passed) the runner gets a fresh
        :class:`StageTimings`; read it back from ``runner.timings``.
        """
        from repro.core.sweeps import StageTimings, SweepRunner

        if timings is None and self.profile:
            timings = StageTimings()
        return SweepRunner(testbed, timings=timings, use_cache=self.cache)

    # -- argparse bridge -----------------------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Install the shared sweep flags on an argparse parser."""
        parser.add_argument(
            "--profile", action="store_true",
            help="append a per-stage wall-time breakdown "
                 "(grid build / solve / aggregate)")
        parser.add_argument(
            "--no-cache", action="store_true",
            help="disable the content-keyed solver result cache")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Build options from a namespace produced by
        :meth:`add_arguments` (missing attributes keep their defaults)."""
        return cls(cache=not getattr(args, "no_cache", False),
                   profile=getattr(args, "profile", False))
