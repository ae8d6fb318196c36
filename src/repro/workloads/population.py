"""Stochastic user populations: open-loop traffic from user counts.

Rack-scale scenarios (:mod:`repro.cluster`) describe traffic the way a
capacity planner does — *how many users* and *how often each one asks*
— instead of hand-writing hundreds of tenant specs.  A
:class:`PopulationSpec` is one cohort: ``tenants`` tenant streams, each
with an **active-user count** and a **requests/min/user rate** drawn
from configured random variables (:class:`RandomVar`, fixed / normal /
Poisson).  :func:`sample_population` expands cohorts into concrete
:class:`~repro.sched.tenant.TenantSpec` streams whose open-loop
interval is ``60e9 / (users × req_per_min)`` ns.

Sampling is **seeded and pure**: every draw comes from a
``random.Random`` keyed by a SHA-256 of ``(seed, cohort, index)`` —
never Python's salted string hashing, never a shared stateful RNG — so
the same ``(populations, seed, duration)`` triple expands to the same
tenants in every process.  That purity is what lets cluster runs stay
bit-identical across ``jobs={1,N}``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.units import GB
from repro.workloads.mix import OpMix

_DISTS = ("fixed", "normal", "poisson")

#: One simulated minute, in the simulator's nanosecond clock.
_MINUTE_NS = 60e9


def _rng(seed: int, *key) -> random.Random:
    """A ``random.Random`` keyed by a pure hash of its identity.

    ``random.Random(str)`` would go through Python's per-process salted
    string hash; SHA-256 keeps cohort draws identical across worker
    processes (the same discipline as
    :func:`repro.faults.cluster._unit`).
    """
    data = "|".join(str(part) for part in (seed,) + key).encode()
    digest = hashlib.sha256(data).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw: Knuth's product method, normal approximation for
    large means (stdlib only)."""
    if lam <= 0:
        return 0
    if lam > 30.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


@dataclass(frozen=True)
class RandomVar:
    """One configured random variable (``fixed``/``normal``/``poisson``).

    ``std`` applies to ``normal`` only; ``lo``/``hi`` clamp every draw
    (so a normal user count cannot go negative).
    """

    dist: str
    mean: float
    std: float = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.dist not in _DISTS:
            raise ValueError(f"unknown distribution {self.dist!r}; "
                             f"expected one of {_DISTS}")
        if self.mean < 0:
            raise ValueError(f"mean must be >= 0: {self.mean}")
        if self.std < 0:
            raise ValueError(f"std must be >= 0: {self.std}")
        if (self.lo is not None and self.hi is not None
                and self.lo > self.hi):
            raise ValueError(f"empty clamp range [{self.lo}, {self.hi}]")

    @classmethod
    def fixed(cls, value: float) -> "RandomVar":
        return cls(dist="fixed", mean=value)

    def sample(self, rng: random.Random) -> float:
        if self.dist == "fixed":
            value = self.mean
        elif self.dist == "normal":
            value = rng.gauss(self.mean, self.std)
        else:
            value = float(_poisson(rng, self.mean))
        if self.lo is not None:
            value = max(self.lo, value)
        if self.hi is not None:
            value = min(self.hi, value)
        return value

    def to_dict(self) -> dict:
        out = {"dist": self.dist, "mean": self.mean}
        if self.std:
            out["std"] = self.std
        if self.lo is not None:
            out["lo"] = self.lo
        if self.hi is not None:
            out["hi"] = self.hi
        return out

    @classmethod
    def from_dict(cls, raw) -> "RandomVar":
        if isinstance(raw, (int, float)):
            return cls.fixed(float(raw))
        return cls(dist=raw.get("dist", "fixed"),
                   mean=float(raw["mean"]),
                   std=float(raw.get("std", 0.0)),
                   lo=raw.get("lo"), hi=raw.get("hi"))


@dataclass(frozen=True)
class PopulationSpec:
    """One traffic cohort: N tenants of users × requests/min/user.

    Each of the ``tenants`` streams draws its own user count and
    per-user rate, so a cohort produces *heterogeneous* tenants — some
    over-, some under-provisioned relative to the mean — which is
    exactly what makes cluster placement interesting.
    """

    name: str
    tenants: int
    active_users: RandomVar
    req_per_min: RandomVar
    payload: int = 512
    read_fraction: float = 1.0
    bulk: bool = False
    slo_p99_ns: float = 50_000.0
    working_set_bytes: float = 1 * GB
    hot_range_bytes: Optional[float] = None
    workers: int = 4
    queue_limit: int = 32

    def __post_init__(self):
        if not self.name:
            raise ValueError("cohort needs a name")
        if self.tenants < 1:
            raise ValueError(f"cohort {self.name!r} needs >= 1 tenant: "
                             f"{self.tenants}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read fraction must be in [0, 1]: "
                             f"{self.read_fraction}")
        if self.slo_p99_ns <= 0:
            raise ValueError(f"SLO p99 must be positive: {self.slo_p99_ns}")

    def mix(self) -> OpMix:
        return OpMix(read=self.read_fraction,
                     write=1.0 - self.read_fraction, send=0.0)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "tenants": self.tenants,
            "active_users": self.active_users.to_dict(),
            "req_per_min": self.req_per_min.to_dict(),
            "payload": self.payload,
            "read_fraction": self.read_fraction,
            "bulk": self.bulk,
            "slo_p99_ns": self.slo_p99_ns,
            "working_set_bytes": self.working_set_bytes,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
        }
        if self.hot_range_bytes is not None:
            out["hot_range_bytes"] = self.hot_range_bytes
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "PopulationSpec":
        return cls(
            name=raw["name"],
            tenants=int(raw["tenants"]),
            active_users=RandomVar.from_dict(raw["active_users"]),
            req_per_min=RandomVar.from_dict(raw["req_per_min"]),
            payload=int(raw.get("payload", 512)),
            read_fraction=float(raw.get("read_fraction", 1.0)),
            bulk=bool(raw.get("bulk", False)),
            slo_p99_ns=float(raw.get("slo_p99_ns", 50_000.0)),
            working_set_bytes=float(raw.get("working_set_bytes", 1 * GB)),
            hot_range_bytes=raw.get("hot_range_bytes"),
            workers=int(raw.get("workers", 4)),
            queue_limit=int(raw.get("queue_limit", 32)),
        )


@dataclass(frozen=True)
class PopulationSample:
    """The expanded population: concrete tenants plus who they stand for."""

    tenants: Tuple[TenantSpec, ...]
    users: Dict[str, int] = field(default_factory=dict)

    @property
    def total_users(self) -> int:
        return sum(self.users.values())

    @property
    def offered_rps(self) -> float:
        """Aggregate open-loop request rate, requests per second."""
        return sum(1e9 / t.interval_ns for t in self.tenants)


def sample_population(populations: Sequence[PopulationSpec], seed: int,
                      duration_ns: float,
                      ingress_ns: float = 0.0) -> PopulationSample:
    """Expand cohorts into seeded, concrete tenant streams.

    Each tenant's open-loop interval is ``60e9 / (users × req/min)``;
    its request count spans ``duration_ns``.  ``ingress_ns`` is the
    round-trip load-balancer overhead folded into every non-bulk
    request's recorded latency (bulk tenants originate inside the
    machine and never cross the LB tier).
    """
    # Lazy: repro.sched.tenant imports OpMix back from this package, so
    # a module-level import here would close an import cycle.
    from repro.sched.tenant import SloSpec, TenantSpec

    if duration_ns <= 0:
        raise ValueError(f"duration must be positive: {duration_ns}")
    names = [p.name for p in populations]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate cohort names: {names}")
    tenants = []
    users: Dict[str, int] = {}
    for spec in populations:
        for i in range(spec.tenants):
            rng = _rng(seed, spec.name, i)
            n_users = max(1, int(round(spec.active_users.sample(rng))))
            req_per_min = max(1e-9, spec.req_per_min.sample(rng))
            interval_ns = max(1.0, _MINUTE_NS / (n_users * req_per_min))
            name = f"{spec.name}{i:03d}"
            tenants.append(TenantSpec(
                name=name,
                payload=spec.payload,
                interval_ns=interval_ns,
                requests=max(1, int(duration_ns / interval_ns)),
                mix=spec.mix(),
                slo=SloSpec(p99_ns=spec.slo_p99_ns),
                bulk=spec.bulk,
                hot_range_bytes=spec.hot_range_bytes,
                working_set_bytes=spec.working_set_bytes,
                workers=spec.workers,
                queue_limit=spec.queue_limit,
                seed=rng.randrange(2 ** 31),
                ingress_ns=0.0 if spec.bulk else ingress_ns,
            ))
            users[name] = n_users
    return PopulationSample(tenants=tuple(tenants), users=users)
