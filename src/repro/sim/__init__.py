"""Discrete-event simulation kernel.

A small, dependency-free SimPy-style engine: an event queue ordered by
simulated time (nanoseconds), coroutine *processes* that ``yield`` events,
and a library of resources (FIFO resources, stores, bandwidth channels)
plus measurement monitors.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(10)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a"))
>>> _ = sim.process(worker(sim, "b"))
>>> sim.run()
>>> log
[(10.0, 'a'), (10.0, 'b')]
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".engine": "Simulator",
    ".errors": "SimulationError Interrupt",
    ".events": "Event Timeout AllOf AnyOf URGENT NORMAL LOW",
    ".process": "Process",
    ".resources": "Resource Store",
    ".links": "SimplexChannel DuplexChannel LOST",
    ".monitor": "Counter RateMeter Histogram TimeWeighted",
    ".rng": "RandomStreams",
})

__all__ = [
    "Simulator",
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
    "LOW",
    "Process",
    "Resource",
    "Store",
    "SimplexChannel",
    "DuplexChannel",
    "LOST",
    "Counter",
    "RateMeter",
    "Histogram",
    "TimeWeighted",
    "RandomStreams",
]
