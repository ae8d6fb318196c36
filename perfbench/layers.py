"""Layer attribution for the benchmark: the module map and the probes.

``LAYERS`` is the one module-to-layer map.  Every module under
``src/repro`` belongs to exactly one layer (``test_perfbench.py`` checks
that), so a new module cannot drop out of the attribution unnoticed.

Two kinds of instrumentation live here, both installed from outside the
program by replacing attributes of its classes and modules at run time:

* :class:`Probes` — inclusive timers and call counts on a handful of
  functions that run a few times per window at most (placement, the
  lockstep barrier, finalize).  They are on in every run, traced or
  not, and also mark where set-up ends and the simulation starts.
* :class:`Profile` — the traced run: ``cProfile`` for every function's
  self time and call count, folded into layers through ``LAYERS``;
* :class:`EventLedger` — a second traced run that records which layer
  scheduled each event and whether anything waited on it when it fired.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import os
import pstats
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Module or package -> layer.  A package entry covers every module
#: under it; no module is covered by two entries.
LAYERS: Dict[str, str] = {
    # The event kernel: queues, events, processes, shared resources.
    "repro.sim": "kernel",
    "repro.sim.engine": "kernel",
    "repro.sim.batchq": "kernel",
    "repro.sim.events": "kernel",
    "repro.sim.process": "kernel",
    "repro.sim.resources": "kernel",
    "repro.sim.monitor": "kernel",
    "repro.sim.errors": "kernel",
    "repro.sim.rng": "kernel",
    # Serial links, the store-and-forward pipe every device uses.
    "repro.sim.links": "links",
    # Device models: PCIe, DRAM, caches, NIC cores, the network fabric.
    "repro.hw": "hw",
    "repro.nic": "hw",
    "repro.net": "hw",
    "repro.telemetry": "hw",
    "repro.rdma": "rdma",
    "repro.sched": "sched",
    "repro.sim.hybrid": "hybrid",
    "repro.sim.crosscheck": "hybrid",
    "repro.sim.shard": "shard",
    "repro.sim.xshard": "shard",
    "repro.sim.supervise": "shard",
    "repro.cluster": "cluster",
    "repro.workloads.population": "cluster",
    "repro.api.schema": "cluster",
    "repro.core": "core",
    "repro.units": "core",
    "repro.stats": "report",
    # Layers the three workloads barely touch; mapped so that the
    # attribution is total.
    "repro.workloads.access": "workloads",
    "repro.workloads.mix": "workloads",
    "repro.workloads.payloads": "workloads",
    "repro.workloads.traces": "workloads",
    "repro.workloads": "workloads",
    "repro.faults": "faults",
    "repro.apps": "apps",
    "repro.trace": "trace",
    "repro": "api",
    "repro.__main__": "api",
    "repro.cli": "api",
    "repro.api": "api",
    "repro.api.session": "api",
}

#: Entries that name a package but whose submodules map elsewhere; they
#: cover only the package's own ``__init__``.
_PACKAGE_ONLY = {"repro", "repro.sim", "repro.api", "repro.workloads"}

#: Layers in table order.  ``bench`` is the benchmark's own code (runner
#: and probes); ``external`` is library code with no repro caller.
LAYER_ORDER = ("kernel", "links", "hw", "rdma", "sched", "hybrid", "shard",
               "cluster", "core", "report", "workloads", "faults", "apps",
               "trace", "api")

SRC = Path(__file__).resolve().parent.parent / "src"
_BENCH_DIR = str(Path(__file__).resolve().parent)


def claims(entry: str, module: str) -> bool:
    """Does map entry ``entry`` cover ``module``?"""
    return entry == module or (entry not in _PACKAGE_ONLY
                               and module.startswith(entry + "."))


def matching_entries(module: str) -> Tuple[str, ...]:
    """Every map entry that covers ``module``; exactly one is correct."""
    return tuple(entry for entry in LAYERS if claims(entry, module))


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a dotted ``repro`` module name, or None."""
    entries = matching_entries(module)
    return LAYERS[entries[0]] if len(entries) == 1 else None


def source_modules() -> Tuple[str, ...]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return tuple(names)


_FILE_LAYER: Dict[str, Optional[str]] = {}


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a source file: a repro layer, ``bench``, or None."""
    try:
        return _FILE_LAYER[filename]
    except KeyError:
        pass
    layer = None
    path = os.path.abspath(filename)
    src = str(SRC) + os.sep
    if path.startswith(src):
        rel = Path(path[len(src):]).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts.pop()
        layer = layer_of_module(".".join(parts))
    elif path.startswith(_BENCH_DIR + os.sep):
        layer = "bench"
    _FILE_LAYER[filename] = layer
    return layer


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _code_key(module: str, qualname: str) -> tuple:
    code = inspect.unwrap(_resolve(module, qualname)).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


# -- always-on probes ---------------------------------------------------------


class Probes:
    """Inclusive timers on rarely-called functions, plus phase marks.

    ``marks["sim_start"]`` is the first lockstep window of a sharded
    run and ``marks["sim_end"]`` the start of the termination check
    (``ConservationWatchdog.assert_drained``), which both lockstep
    drivers make right after the last window and before any shard is
    finalized; serve workloads set both themselves around
    ``run_to_completion``.
    """

    TIMED = {
        "cluster.sample_s": ("repro.cluster.run", "sample_population"),
        "cluster.place_s": ("repro.cluster.run", "bin_pack_placement"),
        "report.merge_s": ("repro.sim.shard", "merge_reports"),
        "report.finalize_s": ("repro.sched.serve",
                              "ServeSession.finalize"),
        "shard.watchdog_s": ("repro.sim.supervise",
                             "ConservationWatchdog.check"),
        "shard.drain_s": ("repro.sim.supervise",
                          "ConservationWatchdog.assert_drained"),
        "shard.window_s": ("repro.sim.supervise", "WindowLog.record"),
        "shard.wait_s": ("multiprocessing.connection",
                         "Connection.poll"),
    }

    def __init__(self):
        self.seconds: Dict[str, float] = {key: 0.0 for key in self.TIMED}
        self.calls: Dict[str, int] = {key: 0 for key in self.TIMED}
        self.marks: Dict[str, float] = {}
        self.events_executed = 0
        self._saved = []
        self._pid = os.getpid()

    def install(self) -> "Probes":
        for key, (module, qualname) in self.TIMED.items():
            owner_name, _, attr = qualname.rpartition(".")
            owner = (_resolve(module, owner_name) if owner_name
                     else importlib.import_module(module))
            own = owner.__dict__.get(attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self._timed(key, getattr(owner, attr)))
        return self

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)    # it was inherited
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    def _timed(self, key, original):
        probes = self
        clock = time.monotonic

        def timed(*args, **kwargs):
            start = clock()
            if key == "shard.window_s":
                probes.marks.setdefault("sim_start", start)
            elif key == "shard.drain_s":
                probes.marks.setdefault("sim_end", start)
            try:
                return original(*args, **kwargs)
            finally:
                # Forked shard workers inherit the wrappers; only the
                # parent's own calls count.
                if os.getpid() == probes._pid:
                    probes.seconds[key] += clock() - start
                    probes.calls[key] += 1
                    if key == "report.finalize_s":
                        probes.events_executed += (
                            args[0].cluster.sim.events_executed)

        timed.__wrapped__ = original
        return timed


# -- the traced run -------------------------------------------------------------

#: Modules whose frames only relay a scheduling request; the event's
#: creating site is the first frame outside them.
_PLUMBING = tuple(os.path.join("repro", "sim", name)
                  for name in ("events.py", "engine.py", "batchq.py"))


class EventLedger:
    """Which layer scheduled each fired event, and whether it was waited on.

    An event is *unwaited* when it fires with no callback attached: no
    process yielded it and nothing subscribed to it, so scheduling it
    was pure queue work.
    """

    def __init__(self):
        self.fired: Counter = Counter()       # site -> events fired
        self.unwaited: Counter = Counter()    # site -> fired with no waiter
        self._site: Dict[int, tuple] = {}
        self._saved = []

    def __enter__(self) -> "EventLedger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> "EventLedger":
        from repro.sim.batchq import BatchSimulator
        from repro.sim.engine import Simulator
        from repro.sim.events import Event

        pending = self._site
        site_cache: Dict[object, tuple] = {}

        def site_of(frame) -> tuple:
            while frame is not None:
                code = frame.f_code
                if not code.co_filename.endswith(_PLUMBING):
                    break
                frame = frame.f_back
            if frame is None:
                return ("external", "?")
            code = frame.f_code
            site = site_cache.get(code)
            if site is None:
                layer = layer_of_file(code.co_filename) or "external"
                site = (layer, f"{Path(code.co_filename).stem}."
                               f"{code.co_qualname}")
                site_cache[code] = site
            return site

        for cls in (Simulator, BatchSimulator):
            original = cls.__dict__["_schedule"]

            def schedule(sim, event, delay=0.0, priority=1,
                         _original=original):
                _original(sim, event, delay, priority)
                pending[id(event)] = site_of(sys._getframe(1))

            self._saved.append((cls, "_schedule", original))
            cls._schedule = schedule

        fire = Event.__dict__["_fire"]
        fired, unwaited = self.fired, self.unwaited

        def _fire(event):
            site = pending.pop(id(event), ("external", "?"))
            fired[site] += 1
            if not event.callbacks:
                unwaited[site] += 1
            fire(event)

        self._saved.append((Event, "_fire", fire))
        Event._fire = _fire
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def by_layer(self, counter: Counter) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (layer, _where), n in counter.items():
            out[layer] = out.get(layer, 0) + n
        return out

    def top_sites(self, n: int = 5):
        """The ``n`` sites that scheduled the most unwaited events."""
        return [(f"{layer}:{where}", count, self.fired[(layer, where)])
                for (layer, where), count in self.unwaited.most_common(n)]


#: Public functions whose call counts are per-layer metrics.
COUNTED = {
    "links.sends": (("repro.sim.links", "SimplexChannel.send"),),
    "hw.send_data_calls": (("repro.hw.pcie.link", "PCIeLink.send_data"),),
    "rdma.posts": (("repro.rdma.qp", "QueuePair.post_read"),
                   ("repro.rdma.qp", "QueuePair.post_write"),
                   ("repro.rdma.qp", "QueuePair.post_send")),
    "sched.ticks": (("repro.sched.scheduler", "PathScheduler.tick"),),
    "sched.slo_observes": (("repro.sched.slo", "SloTracker.observe"),),
    "core.solves": (("repro.core.advisor", "Advisor.plan"),
                    ("repro.core.advisor", "Advisor.replan")),
    "shard.windows": (("repro.sim.supervise", "WindowLog.record"),),
}


class Profile:
    """cProfile over one job, folded into per-layer numbers.

    The event ledger runs in a repetition of its own: its wrappers sit
    on the kernel's hottest calls and would inflate the kernel's share
    of self time.
    """

    def __init__(self):
        self.profiler = cProfile.Profile()

    def __enter__(self) -> "Profile":
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, in (traced) host seconds.

        Library and builtin functions carry no layer of their own; each
        one's self time is split over the layers of its callers, in
        proportion to the time spent on each call edge.
        """
        stats = pstats.Stats(self.profiler).stats
        memo: Dict[tuple, Dict[str, float]] = {}

        def share(func, visiting) -> Dict[str, float]:
            if func in memo:
                return memo[func]
            layer = layer_of_file(func[0])
            if layer is not None:
                return {layer: 1.0}
            entry = stats.get(func)
            callers = entry[4] if entry else {}
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if func in visiting or not callers or total <= 0:
                return {"external": 1.0}
            out: Dict[str, float] = {}
            for caller, weight in weights.items():
                for layer_name, part in share(caller,
                                              visiting | {func}).items():
                    out[layer_name] = (out.get(layer_name, 0.0)
                                       + part * weight / total)
            memo[func] = out
            return out

        seconds: Dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for layer_name, part in share(func, frozenset()).items():
                seconds[layer_name] = seconds.get(layer_name, 0.0) + tt * part
        return seconds

    def call_counts(self) -> Dict[str, int]:
        stats = pstats.Stats(self.profiler).stats
        counts = {}
        for metric, functions in COUNTED.items():
            counts[metric] = sum(stats.get(_code_key(m, q), (0, 0))[1]
                                 for m, q in functions)
        return counts
