"""The sweep engine: evaluate many model points fast, optionally in parallel.

Every figure reproduction is a dense parameter sweep — payload, address
range, doorbell batch or requester count against the latency model or
the throughput solver.  :class:`SweepRunner` is the shared backend:

* **serial** mode evaluates points in order through the content-keyed
  result caches (:mod:`repro.core.cache`), so any point seen before —
  in this run, an earlier benchmark, or (with the disk cache) an
  earlier process — is a dictionary lookup;
* **vector** mode hands the whole point list to the numpy batch solver
  (:mod:`repro.core.batch`): one process, one demand tensor, no pool.
  Selected automatically (``engine="auto"``) whenever numpy is
  importable; solver-only sweeps then skip the process pool entirely;
* **parallel** mode fans chunks of points out to a
  ``concurrent.futures`` process pool.  Chunking and ``Executor.map``
  preserve submission order, so results are returned in exactly the
  serial order, and each point is solved by the same pure arithmetic —
  parallel, vector and serial sweeps are numerically identical.

Worker processes receive the testbed once (via the pool initializer),
not once per point.  Results computed in workers are folded back into
the parent's caches — and so are the workers' cache hit/miss counters,
so ``--cache-stats`` accounts for work wherever it happened.

Pass a :class:`StageTimings` to collect a per-stage wall-time breakdown
(grid build / demand assembly / solve / aggregate) — the ``sweep
--profile`` measurement hook.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import batch as batch_engine
from repro.core.cache import registered_caches
from repro.core.latency import LatencyBreakdown, LatencyModel
from repro.core.paths import CommPath, Opcode
from repro.core.throughput import (
    Flow,
    RESULT_CACHE,
    Scenario,
    SolverResult,
    ThroughputSolver,
)
from repro.net.topology import Testbed

#: A latency sweep point: (path, op, payload, range_bytes).
LatencyPoint = Tuple[CommPath, Opcode, int, float]

#: ``scalar``/``vector``/``auto`` pick the solver backend; ``hybrid``
#: additionally selects the analytic/DES serving engine in
#: :meth:`repro.api.Session.serve` (solver sweeps treat it as ``auto``).
ENGINES = ("scalar", "vector", "auto", "hybrid")


class StageTimings:
    """Accumulated wall-time per named sweep stage.

    Stages nest per call site, not per hierarchy: each ``stage(name)``
    context adds its elapsed time to ``name``'s bucket, so repeated
    sweeps through the same runner accumulate.
    """

    def __init__(self):
        self.seconds: "OrderedDict[str, float]" = OrderedDict()
        self.calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def report(self) -> str:
        """A fixed-width per-stage table for ``sweep --profile``."""
        lines = [f"{'stage':<18} {'ms':>10} {'calls':>7} {'share':>7}"]
        total = self.total
        for name, seconds in self.seconds.items():
            share = f"{seconds / total:6.1%}" if total > 0 else "     -"
            lines.append(f"{name:<18} {seconds * 1e3:>10.3f} "
                         f"{self.calls[name]:>7} {share:>7}")
        lines.append(f"{'total':<18} {total * 1e3:>10.3f}")
        return "\n".join(lines)


# -- pool worker plumbing (module-level so it pickles) ------------------------

_WORKER: dict = {}


def _counter_state() -> Dict[str, Tuple[int, int, int]]:
    return {cache.name: (cache.hits, cache.misses,
                         getattr(cache, "disk_hits", 0))
            for cache in registered_caches()}


def _counter_delta(before: Dict[str, Tuple[int, int, int]]
                   ) -> Dict[str, Tuple[int, int, int]]:
    return {name: tuple(now - then for now, then in zip(counters, before[name]))
            for name, counters in _counter_state().items()
            if name in before}


def _absorb_counters(delta: Dict[str, Tuple[int, int, int]]) -> None:
    for cache in registered_caches():
        counts = delta.get(cache.name)
        if counts and any(counts):
            cache.absorb(*counts)


def _pool_init(testbed: Testbed) -> None:
    _WORKER["testbed"] = testbed
    _WORKER["solver"] = ThroughputSolver()
    _WORKER["latency"] = LatencyModel(testbed)


def _pool_solve(flows: Sequence[Flow]):
    testbed, solver = _WORKER["testbed"], _WORKER["solver"]
    before = _counter_state()
    results = [solver.solve(Scenario(testbed, [flow])) for flow in flows]
    return results, _counter_delta(before)


def _pool_latency(points: Sequence[LatencyPoint]):
    model = _WORKER["latency"]
    before = _counter_state()
    results = [model.latency(path, op, payload, range_bytes)
               for path, op, payload, range_bytes in points]
    return results, _counter_delta(before)


def _chunks(items: Sequence, size: int) -> List[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class SweepRunner:
    """Evaluates sweep points serially, vectorized, or on a process pool.

    ``engine`` selects the solver backend: ``"scalar"`` keeps the
    per-point reference path (eligible for the ``jobs`` process pool),
    ``"vector"`` solves the whole point list as one numpy demand tensor
    (raising ``ValueError`` when numpy is missing), and ``"auto"`` —
    the default — picks vector when numpy is importable and the sweep
    has at least two points, scalar otherwise.  ``"hybrid"`` behaves
    like ``"auto"`` for solver work — it exists so one
    :class:`~repro.core.options.RunOptions` can also select the
    analytic/DES serving engine (see docs/performance.md).  All
    backends return numerically identical results in identical order.

    ``jobs <= 1`` keeps scalar evaluation in-process (what the
    cache-correctness guarantees are stated against); ``jobs > 1``
    spreads scalar points over that many worker processes.  The vector
    engine never uses the pool — one process, one tensor.
    """

    def __init__(self, testbed: Testbed, jobs: int = 0,
                 chunk_size: Optional[int] = None, engine: str = "auto",
                 timings: Optional[StageTimings] = None):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0: {jobs}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine: {engine!r} "
                             f"(expected one of {ENGINES})")
        if engine == "vector":
            batch_engine.require_numpy()
        self.testbed = testbed
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.engine = engine
        self.timings = timings
        self.solver = ThroughputSolver()
        self._latency_model = LatencyModel(testbed)

    # -- public API ---------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def stage(self, name: str):
        """A timing context for ``name`` (no-op without timings)."""
        if self.timings is None:
            return nullcontext()
        return self.timings.stage(name)

    def engine_for(self, n_points: int) -> str:
        """The backend a solver sweep of ``n_points`` will use."""
        if self.engine == "vector":
            return "vector"
        if (self.engine in ("auto", "hybrid") and n_points >= 2
                and batch_engine.numpy_available()):
            return "vector"
        return "scalar"

    def solve_flows(self, flows: Sequence[Flow]) -> List[SolverResult]:
        """One single-flow scenario per entry, in order."""
        flows = list(flows)
        if self.engine_for(len(flows)) == "vector":
            return batch_engine.BatchSolver().solve(
                self.testbed, [[flow] for flow in flows],
                timings=self.timings)
        start = time.perf_counter()
        if not self.parallel or len(flows) < 2 * self.jobs:
            testbed = self.testbed
            with self.stage("solve"):
                results = [self.solver.solve(Scenario(testbed, [flow]))
                           for flow in flows]
        else:
            with self.stage("solve"):
                results = self._map(_pool_solve, flows)
            # Fold worker results into the parent cache: later serial
            # queries of the same points become lookups.
            for flow, result in zip(flows, results):
                key = Scenario(self.testbed, [flow]).key
                if RESULT_CACHE.get(key) is None:
                    RESULT_CACHE.put(key, result)
        batch_engine.ENGINE_STATS.record("scalar", len(flows),
                                         time.perf_counter() - start)
        return results

    def solve_scenarios(self, flow_sets: Sequence) -> List[SolverResult]:
        """Multi-flow scenarios (one per entry), batched when possible."""
        flow_sets = list(flow_sets)
        engine = self.engine_for(len(flow_sets))
        return Scenario.solve_batch(self.testbed, flow_sets, engine=engine,
                                    timings=self.timings)

    def latencies(self, points: Sequence[LatencyPoint]
                  ) -> List[LatencyBreakdown]:
        """Latency breakdowns for (path, op, payload, range) points."""
        points = list(points)
        if not self.parallel or len(points) < 2 * self.jobs:
            model = self._latency_model
            with self.stage("solve"):
                return [model.latency(path, op, payload, range_bytes)
                        for path, op, payload, range_bytes in points]
        with self.stage("solve"):
            return self._map(_pool_latency, points)

    # -- plumbing -----------------------------------------------------------

    def _map(self, worker, items: Sequence) -> List:
        size = self.chunk_size or max(1, math.ceil(len(items)
                                                   / (self.jobs * 4)))
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 initializer=_pool_init,
                                 initargs=(self.testbed,)) as pool:
            nested = list(pool.map(worker, _chunks(items, size)))
        results: List = []
        for chunk_results, counter_delta in nested:
            results.extend(chunk_results)
            _absorb_counters(counter_delta)
        return results
