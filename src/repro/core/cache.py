"""Content-keyed result caching for the solver and latency models.

Every figure sweep re-solves the operational-law model over a dense
(payload x path x verb x requesters) grid, and many points repeat across
benchmarks, CLI invocations and pytest-benchmark rounds.  This module
keys results by *content* — a recursive fingerprint of the testbed's
frozen spec dataclasses plus the flow tuple — so a repeated point is a
dictionary lookup regardless of which objects carry it.

Layers:

* :func:`fingerprint` — a hashable tuple describing any spec object
  (frozen dataclasses, enums, NIC wrappers) by value;
* :class:`ScenarioKey` — (testbed fingerprint, flow fingerprints), the
  solver cache key;
* :class:`LRUCache` — bounded in-memory memo with hit/miss counters.

Counters from every registered cache are aggregated by
:func:`counter_snapshot`, which :mod:`repro.telemetry` surfaces next to
the simulated hardware counters.
"""

from __future__ import annotations

import dataclasses
import enum
import weakref
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

#: Every cache created with ``register=True`` reports into
#: :func:`counter_snapshot` under its ``name``.
_REGISTRY: "List[LRUCache]" = []


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """Dataclass field names, resolved once per type (hot path)."""
    return tuple(f.name for f in dataclasses.fields(cls))


def fingerprint(obj: Any) -> Any:
    """A hashable, content-based description of a spec object.

    Frozen dataclasses are walked field by field, enums collapse to
    their value, and NIC wrapper objects (``SmartNIC``/``RNIC``) are
    described by their ``spec`` plus ``host_memory`` — the only state
    the analytic models read.  Unknown object types raise ``TypeError``
    rather than silently keying on identity.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return (cls.__name__,) + tuple(
            fingerprint(getattr(obj, name)) for name in _field_names(cls))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(item) for item in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in obj.items()))
    # NIC wrappers: analytic behaviour is fully determined by the spec
    # sheet and the host memory subsystem they were built with.
    spec = getattr(obj, "spec", None)
    if spec is not None:
        return (type(obj).__name__, fingerprint(spec),
                fingerprint(getattr(obj, "host_memory", None)))
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


class _Interned:
    """A fingerprint wrapper whose hash is computed once.

    Testbed fingerprints are deep tuples with hundreds of atoms;
    hashing one costs microseconds and every cache get re-hashes the
    key.  Wrapping the tuple caches the hash while keeping equality
    and ``repr`` identical to the raw value.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Any):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if isinstance(other, _Interned):
            return self.value == other.value
        return self.value == other

    def __repr__(self) -> str:
        return repr(self.value)

    def __getstate__(self):
        # Never ship the cached hash across processes: string hashes
        # are salted per interpreter (PYTHONHASHSEED).
        return self.value

    def __setstate__(self, value) -> None:
        self.value = value
        self._hash = hash(value)


_TESTBED_FPS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def testbed_fingerprint(testbed: Any) -> Any:
    """Fingerprint of a testbed, memoized (with its hash) per object."""
    try:
        return _TESTBED_FPS[testbed]
    except KeyError:
        fp = _Interned(fingerprint(testbed))
        _TESTBED_FPS[testbed] = fp
        return fp
    except TypeError:  # unhashable / non-weakref-able: compute directly
        return _Interned(fingerprint(testbed))


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


#: Flow objects are frozen dataclasses (hashable by content), so their
#: fingerprints memoize directly — wide sweeps reuse a handful of flow
#: shapes thousands of times.  Bounded by periodic reset, not LRU: the
#: working set per sweep is tiny and eviction bookkeeping would cost
#: more than it saves.
_FLOW_FPS: Dict[Any, Any] = {}
_FLOW_FPS_LIMIT = 1 << 16


def _flow_fingerprint(flow: Any) -> Any:
    try:
        fp = _FLOW_FPS.get(flow)
    except TypeError:  # unhashable flow-like object
        return fingerprint(flow)
    if fp is None:
        fp = fingerprint(flow)
        if len(_FLOW_FPS) >= _FLOW_FPS_LIMIT:
            _FLOW_FPS.clear()
        _FLOW_FPS[flow] = fp
    return fp


@dataclasses.dataclass(frozen=True, eq=True)
class ScenarioKey:
    """Cache key for one solver invocation: testbed content + flows."""

    testbed: Any
    flows: Tuple[Any, ...]

    def __hash__(self) -> int:
        # Cache the deep-tuple hash: every cache get/put rehashes the
        # key, and CPython does not memoize tuple hashes.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.testbed, self.flows))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def of(cls, testbed: Any, flows) -> "ScenarioKey":
        return cls(testbed=testbed_fingerprint(testbed),
                   flows=tuple(_flow_fingerprint(flow) for flow in flows))


# ---------------------------------------------------------------------------
# In-memory LRU
# ---------------------------------------------------------------------------


class LRUCache:
    """A bounded memo dict with hit/miss accounting."""

    def __init__(self, maxsize: int = 4096, name: str = "cache",
                 register: bool = True):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()
        if register:
            _REGISTRY.append(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value, or ``None`` (which is never a valid value)."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if value is None:
            raise ValueError("cannot cache None")
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, float]:
        return {f"{self.name}.hits": self.hits,
                f"{self.name}.misses": self.misses,
                f"{self.name}.entries": len(self._data)}


def memoized(cache: LRUCache, key, compute: Callable[[], Any]):
    """``cache[key]`` or ``compute()`` stored under ``key``."""
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


# ---------------------------------------------------------------------------
# Telemetry surface
# ---------------------------------------------------------------------------


def counter_snapshot() -> Dict[str, float]:
    """Hit/miss/entry counters of every registered cache."""
    counters: Dict[str, float] = {}
    for cache in _REGISTRY:
        counters.update(cache.counters())
    return counters


def registered_caches() -> Tuple[LRUCache, ...]:
    return tuple(_REGISTRY)


def clear_all() -> None:
    """Empty every registered cache (used by tests and benchmarks)."""
    for cache in _REGISTRY:
        cache.clear()
