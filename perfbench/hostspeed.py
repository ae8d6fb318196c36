"""Host speed, measured by a fixed calibration loop.

A shared host changes speed by tens of percent within a minute, so
seconds measured at different times do not compare.  ``run.py`` scales
every time metric of ``--trace 0`` by the host speed measured over the
same repetition: the number of calibration steps a thread completes per
second, over the reference rate ``REF_STEPS_PER_S``.  A time so scaled
is the time the repetition would have taken on a host that runs the
loop at the reference rate.

The loop does what the simulator does most (heap pushes and pops,
small-object method calls, dict updates) and uses nothing of ``repro``,
so a change to the program cannot change it.
"""

from __future__ import annotations

import heapq
import threading
import time

#: Calibration steps per second at the reference host speed, about the
#: rate of the 2-core host the bounds were set on while a repetition
#: runs beside the loop.
REF_STEPS_PER_S = 1_200_000.0
#: Steps between two looks at the stop flag.
SLICE_STEPS = 2_000
#: How long a sample taken between repetitions spins.
BETWEEN_S = 0.5


class _Event:
    __slots__ = ("when", "key", "value")

    def __init__(self, when: int, key: int, value: int):
        self.when = when
        self.key = key
        self.value = value

    def fire(self, totals: dict) -> int:
        totals[self.key] = totals.get(self.key, 0) + self.value
        return self.when + (self.value & 7) + 1


def spin(steps: int) -> None:
    """Run ``steps`` steps of the calibration loop."""
    queue = [(i, i, _Event(i, i & 255, 7 * i)) for i in range(64)]
    heapq.heapify(queue)
    totals = {}
    for seq in range(64, 64 + steps):
        _when, _seq, event = heapq.heappop(queue)
        when = event.fire(totals)
        heapq.heappush(queue, (when, seq, _Event(
            when, (31 * event.key + seq) & 255, event.value + 1)))


class HostSpeed:
    """Spins the calibration loop in a thread while the block runs.

    ``speed`` is the rate it reached over the reference rate: above 1
    on a faster host than the reference, below 1 on a slower one.
    """

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            spin(SLICE_STEPS)
            self.steps += SLICE_STEPS

    def __enter__(self) -> "HostSpeed":
        self._started = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.seconds = time.perf_counter() - self._started

    @property
    def speed(self) -> float:
        return self.steps / self.seconds / REF_STEPS_PER_S


def sample() -> float:
    """Host speed over ``BETWEEN_S`` seconds with nothing else running."""
    with HostSpeed() as host:
        time.sleep(BETWEEN_S)
    return host.speed
