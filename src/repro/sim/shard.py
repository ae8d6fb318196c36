"""Sharded serving simulation: clusters on worker processes.

A serving run models one server and its clients; a datacenter-scale
experiment is many such machines.  Each machine is a *shard* with its
own event timeline; shards execute on separate worker processes and
merge afterwards.

The execution protocol is conservative time-windowed lockstep: the
parent advances every shard to the same simulated-time barrier
(``sync_window_ns``) before any shard may move past it.  Shards may
exchange traffic through the cross-shard fabric
(:mod:`repro.sim.xshard`): outboxes are collected at every barrier,
routed by a :class:`~repro.sim.xshard.ShardRouter`, and injected into
the destination shard at the start of the next round as URGENT arrivals
at their physical delivery instants.  The **one-window delivery
guarantee** — a message sent in window *W* is delivered in window
*W+1* — holds iff every inter-shard link latency is at least
``sync_window_ns``; :func:`run_sharded` validates exactly that.

One supervised driver runs the lockstep over two transports: with
``jobs=1`` (or a one-shard plan) every shard's session lives in the
parent; any other ``jobs`` value runs one worker process per shard,
reached over a pipe.  Both transports answer commands with the same
:func:`_serve`, so ``jobs=1`` is the bit-identity reference for the
worker path, asserted by ``tests/sim/test_shard.py``.

Cluster-scale chaos layers on top (``docs/robustness.md``):

* a :class:`ShardPlan` may carry ``cluster_faults`` — machine crashes
  and fabric partition/loss/delay/reorder specs
  (:mod:`repro.faults.plan`), interpreted by a
  :class:`~repro.faults.cluster.ClusterInjector` whose every decision
  is a pure hash of the plan seed and message identity, so ``jobs=N``
  stays bit-identical to ``jobs=1`` under any plan and an *empty* plan
  is bit-identical to no plan at all;
* the driver is a **supervisor**: a dead or stalled shard (pipe EOF
  or poll timeout for a worker, a discarded session in-process) is
  restarted, and the :class:`~repro.sim.supervise.WindowLog` — the
  per-window inbound-message journal, which together with the shard
  spec fully determines shard state — is replayed into it, landing
  bit-identical to the shard that died.  The same log serializes to
  disk for cross-process checkpoint/resume;
* a :class:`~repro.sim.supervise.ConservationWatchdog` audits every
  window of every sharded run: per-tenant arrivals must equal
  completed + rejected + lost + in-flight, and every fabric message
  sent must be handed over, pending, or accounted dropped.

Merging uses :meth:`repro.sched.slo.SloTracker.merge` for the SLO
windows, concatenates decision logs in time order, and sums per-path
bandwidth and telemetry counters (including the ``xshard.*`` fabric
counters).  ``elapsed_ns`` is the maximum over shards and is rounded
up to the sync window (documented divergence from an unsharded run;
per-tenant latencies and counts are exact).
"""

from __future__ import annotations

import copy
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.cluster import ClusterInjector
from repro.faults.plan import FaultPlan
from repro.sched.serve import ServeReport, ServeSession
from repro.sched.slo import SloTracker
from repro.sched.tenant import TenantSpec
from repro.sim.supervise import (ConservationWatchdog, FabricWedgedError,
                                 IncidentLog, ShardWorkerError,
                                 SupervisorConfig, WindowLog,
                                 plan_fingerprint)
from repro.sim.xshard import (CrossTraffic, ShardChannel, ShardRouter,
                              ShardTopology)


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a tenant set (and optional faults) on its own cluster.

    ``exports`` declares which of this shard's tenants send traffic to
    other machines (see :class:`~repro.sim.xshard.CrossTraffic`); the
    plan must then carry (or default) a topology whose link latencies
    admit the chosen sync window.
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    faults: Optional[FaultPlan] = None
    fault_seed: int = 0
    exports: Tuple[CrossTraffic, ...] = ()
    #: Which NIC this machine carries: ``"snic"`` (off-path SmartNIC,
    #: SoC present, all three comm paths) or ``"rnic"`` (plain RNIC —
    #: host-only, no SoC endpoints, no path-③ bulk offload).
    nic: str = "snic"

    def __post_init__(self):
        if not self.tenants:
            raise ValueError(f"shard {self.name!r} has no tenants")
        if self.nic not in ("snic", "rnic"):
            raise ValueError(f"shard {self.name!r}: unknown nic "
                             f"{self.nic!r}; expected 'snic' or 'rnic'")
        names = {t.name for t in self.tenants}
        seen = set()
        for export in self.exports:
            if export.tenant not in names:
                raise ValueError(
                    f"shard {self.name!r} exports unknown tenant "
                    f"{export.tenant!r}")
            if export.tenant in seen:
                raise ValueError(
                    f"shard {self.name!r} exports tenant "
                    f"{export.tenant!r} twice")
            seen.add(export.tenant)
            if export.dst_shard == self.name:
                raise ValueError(
                    f"shard {self.name!r} exports {export.tenant!r} "
                    "to itself")

    def export_map(self) -> Dict[str, CrossTraffic]:
        return {export.tenant: export for export in self.exports}


@dataclass(frozen=True)
class ShardPlan:
    """An ordered set of shards with globally unique tenant names.

    ``topology`` gives the inter-shard link latencies; when omitted and
    any shard exports traffic (or a cluster fault plan is present),
    :func:`run_sharded` defaults to a uniform
    :class:`~repro.sim.xshard.ShardTopology`.

    ``cluster_faults`` is the rack-scale chaos plan: machine crashes
    and fabric faults, all cluster-scope
    (:func:`repro.faults.plan.is_cluster_fault`).  An empty plan is
    bit-identical to no plan.
    """

    shards: Tuple[ShardSpec, ...]
    topology: Optional[ShardTopology] = None
    cluster_faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if not self.shards:
            raise ValueError("plan needs at least one shard")
        shard_names = [shard.name for shard in self.shards]
        if len(set(shard_names)) != len(shard_names):
            raise ValueError(
                f"duplicate shard names: {shard_names} — tenants must "
                "not overlap machines")
        seen: Dict[str, str] = {}
        for shard in self.shards:
            for spec in shard.tenants:
                if spec.name in seen:
                    raise ValueError(
                        f"tenant {spec.name!r} appears in shards "
                        f"{seen[spec.name]!r} and {shard.name!r}")
                seen[spec.name] = shard.name
        for shard in self.shards:
            for export in shard.exports:
                if export.dst_shard not in shard_names:
                    raise ValueError(
                        f"shard {shard.name!r} exports "
                        f"{export.tenant!r} to unknown shard "
                        f"{export.dst_shard!r}")
        if self.topology is not None:
            missing = set(shard_names) - set(self.topology.shards)
            if missing:
                raise ValueError(
                    f"topology is missing shard(s) {sorted(missing)}")
        if self.cluster_faults is not None:
            # Validates fault scope and shard names; the instance used
            # at run time is built by run_sharded with the topology.
            ClusterInjector(self.cluster_faults, shard_names)

    @property
    def cross_traffic(self) -> bool:
        return any(shard.exports for shard in self.shards)

    @property
    def chaotic(self) -> bool:
        """Whether a non-empty cluster fault plan is armed."""
        return self.cluster_faults is not None and not self.cluster_faults.empty

    def resolved_topology(self) -> Optional[ShardTopology]:
        """The topology to run under (uniform default when exporting
        or when cluster faults need the fabric oracle everywhere)."""
        if self.topology is not None:
            return self.topology
        if self.cross_traffic or self.chaotic:
            return ShardTopology.uniform([s.name for s in self.shards])
        return None

    @classmethod
    def partition(cls, tenants: Sequence[TenantSpec],
                  n_shards: int) -> "ShardPlan":
        """Round-robin the tenants over ``n_shards`` shards."""
        if n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {n_shards}")
        tenants = tuple(tenants)
        n_shards = min(n_shards, len(tenants))
        groups: List[List[TenantSpec]] = [[] for _ in range(n_shards)]
        for i, spec in enumerate(tenants):
            groups[i % n_shards].append(spec)
        return cls(shards=tuple(
            ShardSpec(name=f"shard{i}", tenants=tuple(group))
            for i, group in enumerate(groups)))


def _lowered(shard: ShardSpec, injector: ClusterInjector) -> ShardSpec:
    """Fold the shard's machine crashes into its own local fault plan.

    Inside the shard a machine death is an SoC crash (QPs error, the
    path policy fails host-ward) with the same recovery schedule; the
    host side is enforced by the runtime's dispatch-time liveness
    check and the fabric-level drops.
    """
    extra = injector.local_faults(shard.name)
    if not extra:
        return shard
    base = shard.faults if shard.faults is not None else FaultPlan()
    return replace(shard, faults=base.with_faults(*extra))


def _make_session(shard: ShardSpec, serve_kwargs: dict,
                  topology: Optional[ShardTopology],
                  injector: Optional[ClusterInjector] = None,
                  fault_timeout_ns: Optional[float] = None) -> ServeSession:
    if serve_kwargs.get("testbed") is not None:
        # SimCluster adopts the testbed's device objects and re-binds
        # them to its own simulator; in-process shards sharing one
        # Testbed would therefore fight over the same SmartNIC and the
        # run would never drain.  Every session gets its own copy
        # (worker processes get one implicitly, via pickling).
        serve_kwargs = dict(serve_kwargs)
        serve_kwargs["testbed"] = copy.deepcopy(serve_kwargs["testbed"])
    channel = None
    if topology is not None:
        channel = ShardChannel(shard.name, topology, shard.export_map(),
                               injector=injector,
                               fault_timeout_ns=fault_timeout_ns)
    return ServeSession(shard.tenants, faults=shard.faults,
                        fault_seed=shard.fault_seed, channel=channel,
                        nic=shard.nic, **serve_kwargs)


def _serve(session: ServeSession, message: tuple) -> tuple:
    """Answer one lockstep command: the whole shard protocol.

    ``("advance", barrier, inbound)`` delivers the shard's routed
    inbound messages, runs it to the barrier and replies with its
    drained state, its channel's idleness, the window's outbox and the
    heartbeat digest for the conservation watchdog.  ``("report",)``
    finalizes the session.  Both transports call this, so a worker
    process runs exactly the code that ``jobs=1`` runs.
    """
    if message[0] == "advance":
        _cmd, barrier, inbound = message
        channel = session.channel
        if channel is not None and inbound:
            channel.deliver(inbound)
        done = session.advance(barrier)
        outbox = channel.collect() if channel is not None else []
        idle = channel.idle if channel is not None else True
        return ("ok", done, idle, outbox, session.heartbeat())
    if message[0] == "report":
        return ("report", session.finalize(), session.tracker)
    raise ValueError(f"unknown command {message[0]!r}")  # pragma: no cover


def _shard_worker(conn, shard: ShardSpec, serve_kwargs: dict,
                  topology: Optional[ShardTopology],
                  injector: Optional[ClusterInjector] = None,
                  fault_timeout_ns: Optional[float] = None) -> None:
    """Child-process loop: answer each command with :func:`_serve`
    until the report is sent.

    A worker-side exception is shipped to the parent with the shard
    name and the full traceback, so a crashed shard is attributable
    without re-running.
    """
    try:
        session = _make_session(shard, serve_kwargs, topology,
                                injector, fault_timeout_ns)
        while True:
            reply = _serve(session, conn.recv())
            conn.send(reply)
            if reply[0] == "report":
                return
    except Exception:  # pragma: no cover - surfaced in parent
        try:
            conn.send(("error", shard.name, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _reap_worker(proc, shard_name: str, join_timeout_s: float = 5.0,
                 kill_grace_s: float = 2.0) -> None:
    """Put one worker process down for good: join, then terminate,
    then kill, each on its own timeout, warning with the shard's name
    if even SIGKILL could not reap it."""
    proc.join(timeout=join_timeout_s)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=kill_grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=kill_grace_s)
    if proc.is_alive():  # pragma: no cover - kernel refused SIGKILL
        warnings.warn(
            f"shard worker {shard_name!r} survived terminate and kill "
            f"(pid {proc.pid}); abandoning it")


def _wedged(done: Sequence[bool], idle: Sequence[bool],
            router: ShardRouter, moved: bool) -> bool:
    """A round where nothing can ever make progress again.

    Every shard is drained, no messages moved or are pending, yet some
    channel still awaits an ack — the event that would deliver it can
    no longer be generated anywhere.
    """
    return (all(done) and not moved and not router.in_flight
            and not all(idle))


class _WorkerGone(Exception):
    """A shard died or stalled — restartable, unlike a worker error."""


class _LocalShard:
    """A shard whose session lives in the parent (``jobs=1``).

    :meth:`post` only queues the command; :meth:`reply` runs it, so the
    shards of a round execute one after another in shard order.
    """

    def __init__(self, *spec):
        self._spec = spec
        self._message = None
        self.restart()

    def post(self, message: tuple) -> None:
        self._message = message

    def reply(self) -> tuple:
        if self._session is None:
            raise _WorkerGone("session discarded")
        return _serve(self._session, self._message)

    def restart(self) -> None:
        self._session = _make_session(*self._spec)

    def kill(self) -> Optional[str]:
        self._session = None
        return "session discarded"

    def close(self) -> None:
        pass


class _WorkerShard:
    """A shard on its own worker process, reached over a pipe.

    A reply that does not arrive within ``exchange_timeout_s``, or a
    closed pipe, raises :class:`_WorkerGone`; an exception shipped by
    the worker is deterministic (a restart would replay straight into
    it) and surfaces as :class:`ShardWorkerError` with its traceback.
    """

    def __init__(self, cfg: SupervisorConfig, shard: ShardSpec, *rest):
        self._cfg = cfg
        self._args = (shard, *rest)
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_worker,
                                args=(child_conn, *self._args), daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    def post(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass                   # death surfaces on the reply side

    def reply(self) -> tuple:
        timeout = self._cfg.exchange_timeout_s
        try:
            if not self.conn.poll(timeout):
                state = ("alive but stalled" if self.proc.is_alive()
                         else "dead")
                raise _WorkerGone(f"no barrier reply within {timeout:g}s "
                                  f"(process {state})")
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerGone(f"pipe to worker closed: {exc!r}")
        if reply[0] == "error":
            raise ShardWorkerError(reply[1], reply[2])
        return reply

    def restart(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.close()
        self._spawn()

    def kill(self) -> Optional[str]:
        if not self.proc.is_alive():
            return None
        self.proc.kill()
        return "SIGKILL"

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        _reap_worker(self.proc, self._args[0].name,
                     self._cfg.join_timeout_s, self._cfg.kill_grace_s)


def _controller_step(controller, router, injector, barrier: float,
                     window_no: int, heartbeats: Dict[str, dict],
                     done_map: Dict[str, bool]) -> None:
    """One cluster-controller tick at a closed barrier.

    The controller observes the window's heartbeats and may inject
    ``ctl`` directives onto the fabric; they ride the normal router →
    inbox path, so they are window-logged like any other message and a
    replayed shard re-receives them verbatim (the controller's own
    re-injections during replay are discarded with the regenerated
    outboxes).  Runs *before* the watchdog so the flow balance sees the
    injection and the router pending count move together.
    """
    if controller is None:
        return
    messages = controller.observe(window_no, barrier, heartbeats, done_map)
    if not messages:
        return
    if injector is not None:
        messages = injector.apply_outbox(messages)
    if messages:
        router.route(messages)


def _run_lockstep(endpoints: Sequence, names: Sequence[str],
                  sync_window_ns: float, router: Optional[ShardRouter],
                  injector: Optional[ClusterInjector],
                  cfg: SupervisorConfig, log: WindowLog,
                  incidents: IncidentLog, resumed: bool, controller=None):
    """Drive the shards' endpoints through the lockstep to completion.

    Each endpoint (:class:`_LocalShard` or :class:`_WorkerShard`) takes
    a command with ``post`` and answers it with ``reply``; a
    :class:`_WorkerGone` from ``reply`` is supervised here the same way
    for both: restart, replay the window log, re-post, await again.
    Returns the per-shard reports and SLO trackers.
    """
    n = len(endpoints)
    watchdog = ConservationWatchdog()
    heartbeats: Dict[str, dict] = {}
    done = [False] * n
    idle = [True] * n

    def await_reply(i: int, message: tuple, window_no: int,
                    lived: int) -> tuple:
        """Await shard ``i``'s reply to ``message``, which it received
        after living through the first ``lived`` logged windows.  A dead
        or stalled shard is restarted, re-lives those windows (each
        replayed window supervised the same way; its outbox is
        discarded, the router already saw it) and gets ``message``
        again."""
        endpoint = endpoints[i]
        while True:
            try:
                return endpoint.reply()
            except _WorkerGone as failure:
                incidents.record("respawn", names[i], window_no, str(failure))
                if incidents.respawns > cfg.max_respawns:
                    raise ShardWorkerError(
                        names[i], f"respawn budget ({cfg.max_respawns}) "
                                  f"exhausted; last failure: {failure}")
                endpoint.restart()
                for k in range(lived):
                    barrier_k, inbound_k = log.windows[k]
                    replayed = ("advance", barrier_k,
                                inbound_k.get(names[i], []))
                    endpoint.post(replayed)
                    await_reply(i, replayed, window_no, k)
                endpoint.post(message)

    def run_window(window_no: int, barrier: float, inbound: Dict[str, list],
                   victim: Optional[str] = None) -> bool:
        """One barrier round; True if any shard sent a message.

        Every live shard gets the new horizon (and its inbound messages)
        before any reply is awaited, so worker shards advance in
        parallel; the chaos hook kills ``victim`` in between.  Outboxes
        are routed in shard order, then the controller steps and the
        watchdog audits the closed window.
        """
        messages = {i: ("advance", barrier, inbound.get(name, []))
                    for i, name in enumerate(names)
                    if router is not None or not done[i]}
        for i, message in messages.items():
            endpoints[i].post(message)
        if victim is not None:
            how = endpoints[names.index(victim)].kill()
            if how is not None:
                incidents.record("kill-injected", victim, window_no,
                                 f"chaos hook: {how}")
        moved = False
        for i, message in messages.items():
            reply = await_reply(i, message, window_no, window_no - 1)
            _tag, done[i], idle[i], outbox, heartbeats[names[i]] = reply
            if outbox:
                moved = True
                if injector is not None:
                    outbox = injector.apply_outbox(outbox)
                if router is not None and outbox:
                    router.route(outbox)
        _controller_step(controller, router, injector, barrier, window_no,
                         heartbeats, dict(zip(names, done)))
        watchdog.check(
            barrier, heartbeats,
            router.pending_count if router is not None else 0,
            injector.dropped if injector is not None else 0,
            injected=controller.ctl_sent if controller is not None else 0)
        return moved

    barrier = 0.0
    window_no = 0
    if resumed:
        # Re-live the checkpointed prefix: logged inboxes are delivered
        # verbatim; routing each window's surviving outboxes (and
        # taking-and-discarding the regenerated inboxes) rebuilds the
        # router contents and the injector counters exactly.
        last = len(log.windows) - 1
        for k, (barrier, inbound) in enumerate(log.windows):
            window_no = k + 1
            run_window(window_no, barrier, inbound)
            if k < last and router is not None:
                next_barrier = log.windows[k + 1][0]
                for name in names:
                    inbox = router.take(name)
                    if injector is not None:
                        injector.shuffle_inbox(name, next_barrier, inbox)

    while not (all(done) and all(idle)
               and (router is None or not router.in_flight)):
        window_no += 1
        barrier += sync_window_ns
        inbound = {}
        moved = False
        for name in names:
            inbox = router.take(name) if router is not None else []
            if injector is not None:
                inbox = injector.shuffle_inbox(name, barrier, inbox)
            inbound[name] = inbox
            moved = moved or bool(inbox)
        log.record(barrier, inbound)
        if cfg.checkpoint_dir:
            log.save(cfg.checkpoint_dir)
        victim = cfg.kill_shard if window_no == cfg.kill_window else None
        moved = run_window(window_no, barrier, inbound, victim) or moved
        if router is not None and _wedged(done, idle, router, moved):
            raise FabricWedgedError(done=dict(zip(names, done)),
                                    idle=dict(zip(names, idle)),
                                    pending=router.pending_by_shard())
    watchdog.assert_drained(barrier, heartbeats)
    for endpoint in endpoints:
        endpoint.post(("report",))
    replies = [await_reply(i, ("report",), window_no, window_no)
               for i in range(n)]
    return ([reply[1] for reply in replies], [reply[2] for reply in replies])


def merge_reports(reports: Sequence[ServeReport],
                  trackers: Sequence[SloTracker]) -> ServeReport:
    """Fold per-shard reports (and trackers) into one cluster view."""
    if not reports:
        raise ValueError("nothing to merge")
    merged_tracker = trackers[0]
    for tracker in trackers[1:]:
        merged_tracker.merge(tracker)
    tenants: Dict[str, object] = {}
    for report in reports:
        overlap = tenants.keys() & report.tenants.keys()
        if overlap:
            raise ValueError(f"tenant(s) {sorted(overlap)} in two shards")
        tenants.update(report.tenants)
    # The merged tracker is the ground truth for totals; per-shard
    # reports must agree with it exactly.
    for name, tenant in tenants.items():
        if merged_tracker.completed[name] != tenant.completed:
            raise AssertionError(
                f"merge drift for {name!r}: tracker says "
                f"{merged_tracker.completed[name]}, report {tenant.completed}")
    decisions = sorted((d for report in reports for d in report.decisions),
                       key=lambda d: d.time_ns)
    path_gbps: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for report in reports:
        for path, gbps in report.path_gbps.items():
            path_gbps[path] = path_gbps.get(path, 0.0) + gbps
        for key, value in report.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    hybrid_stats = None
    if any(report.hybrid_stats for report in reports):
        hybrid_stats = {}
        for report in reports:
            for key, value in (report.hybrid_stats or {}).items():
                hybrid_stats[key] = hybrid_stats.get(key, 0) + value
    # Tenants are disjoint across shards, so the per-tenant window
    # archives and conservation terms merge by plain union.
    windows: Dict[str, tuple] = {}
    conservation: Dict[str, tuple] = {}
    for report in reports:
        windows.update(report.windows)
        conservation.update(report.conservation)
    return ServeReport(
        adaptive=all(report.adaptive for report in reports),
        elapsed_ns=max(report.elapsed_ns for report in reports),
        tenants=tenants,
        decisions=decisions,
        path_gbps=path_gbps,
        counters=counters,
        engine=reports[0].engine,
        hybrid_stats=hybrid_stats,
        windows=windows,
        conservation=conservation,
    )


def run_sharded(plan: ShardPlan, jobs: Optional[int] = None,
                sync_window_ns: Optional[float] = None,
                supervisor: Optional[SupervisorConfig] = None,
                controller=None, **serve_kwargs) -> ServeReport:
    """Execute a shard plan and return the merged report.

    ``jobs`` picks the transport, not a worker count: 1 (or less)
    runs every shard in this process, the bit-identity reference;
    ``None``, 0 or any value above 1 runs one worker process per shard,
    however many that is.  A one-shard plan always runs in-process.
    ``sync_window_ns`` defaults to
    200 µs for independent shards, and to the topology's tightest
    *machine-to-machine* link latency when the plan carries cross-shard
    traffic — LB links are excluded because the LB only originates
    barrier-clocked control messages, never mid-window traffic
    (:meth:`~repro.sim.xshard.ShardTopology.min_fabric_latency_ns`);
    an explicit window wider than that latency is rejected — it would
    silently break the one-window delivery guarantee.

    ``controller`` is an optional cluster scheduler
    (:class:`repro.cluster.ClusterScheduler`): at every closed barrier
    it sees all shard heartbeats and may inject ``ctl`` directives onto
    the fabric.  Its decisions are a pure function of the heartbeat
    sequence, so ``jobs=N`` stays bit-identical to ``jobs=1`` with a
    live controller.  ``serve_kwargs`` are forwarded to every shard's
    :class:`~repro.sched.serve.ServeSession` (``engine="hybrid"``
    composes with sharding; exporting tenants stay at event level).
    ``trace=True`` is rejected: tracers do not serialize across
    process boundaries.

    ``supervisor`` configures shard supervision, checkpointing, chaos
    kills and incident reporting
    (:class:`~repro.sim.supervise.SupervisorConfig`); both transports
    are supervised, with the defaults when it is omitted.  The
    plan's ``cluster_faults`` arm the
    :class:`~repro.faults.cluster.ClusterInjector`; its ``cluster.*``
    counters join the merged report, and the conservation watchdog
    audits every window either way.
    """
    topology = plan.resolved_topology()
    injector = None
    if plan.chaotic:
        injector = ClusterInjector(plan.cluster_faults,
                                   [s.name for s in plan.shards], topology)
    if controller is not None and topology is None:
        raise ValueError(
            "a cluster controller needs a fabric: give the plan a "
            "topology (or exports/cluster faults that default one)")
    if sync_window_ns is None:
        sync_window_ns = (topology.min_fabric_latency_ns()
                          if topology is not None else 200_000.0)
    if sync_window_ns <= 0:
        raise ValueError(f"sync window must be positive: {sync_window_ns}")
    if (topology is not None
            and sync_window_ns > topology.min_fabric_latency_ns()):
        raise ValueError(
            f"sync_window_ns={sync_window_ns} exceeds the shortest "
            f"machine-to-machine link latency "
            f"({topology.min_fabric_latency_ns()} ns): the one-window "
            "delivery guarantee would not hold")
    if serve_kwargs.get("trace"):
        raise ValueError("trace=True is not supported for sharded runs")
    for key in ("faults", "fault_seed", "channel", "nic"):
        if key in serve_kwargs:
            raise ValueError(f"pass {key!r} per shard via ShardSpec")
    shards = plan.shards
    fault_timeout_ns = None
    if injector is not None:
        shards = tuple(_lowered(shard, injector) for shard in shards)
        fault_timeout_ns = injector.fault_timeout_ns()
    if (supervisor is not None and supervisor.kill_shard is not None
            and supervisor.kill_shard not in {s.name for s in shards}):
        raise ValueError(
            f"kill_shard {supervisor.kill_shard!r} is not in the plan; "
            f"shards: {[s.name for s in shards]}")
    incidents = IncidentLog()
    # The controller's policy joins the run identity: resuming a
    # checkpoint under a different scheduler config must be refused.
    fp_kwargs = dict(serve_kwargs)
    if controller is not None:
        fp_kwargs["__controller__"] = controller.fingerprint()
    fingerprint = plan_fingerprint(plan, sync_window_ns, fp_kwargs)
    resumed = False
    if supervisor is not None and supervisor.resume:
        log = WindowLog.load(supervisor.checkpoint_dir,
                             expect_fingerprint=fingerprint)
        resumed = len(log) > 0
    else:
        log = WindowLog(fingerprint, sync_window_ns)
    cfg = supervisor if supervisor is not None else SupervisorConfig()
    if jobs is None or jobs == 0:
        jobs = len(shards)
    in_process = jobs <= 1 or len(shards) == 1
    endpoints: List = []
    try:
        for shard in shards:
            spec = (shard, serve_kwargs, topology, injector, fault_timeout_ns)
            endpoints.append(_LocalShard(*spec) if in_process
                             else _WorkerShard(cfg, *spec))
        reports, trackers = _run_lockstep(
            endpoints, [shard.name for shard in shards], sync_window_ns,
            ShardRouter(topology) if topology is not None else None,
            injector, cfg, log, incidents, resumed, controller)
    finally:
        for endpoint in endpoints:
            endpoint.close()
    if supervisor is not None and supervisor.checkpoint_dir:
        log.complete = True
        log.save(supervisor.checkpoint_dir)
    if supervisor is not None and supervisor.incident_report:
        incidents.save(supervisor.incident_report)
    report = merge_reports(reports, trackers)
    if injector is not None:
        report.counters.update(injector.counters())
    if controller is not None:
        report.counters.update(controller.counters())
    if incidents.incidents:
        report.counters["supervisor.incidents"] = len(incidents.incidents)
        report.counters["supervisor.respawns"] = incidents.respawns
    return report
