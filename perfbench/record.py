"""Write ``record.json``: reference digests and exact counts per seed.

    python3 perfbench/record.py

For every workload, and for each of ``run.SEEDS`` and the held-out
``run.HELD_OUT``, this runs one ``--trace 1`` round (an untraced jobs=1
repetition, the cProfile and event-ledger repetitions, and for ``rack``
a jobs=2 repetition), requires all of them to yield one digest, and
stores it with the counts that every later traced run must reproduce
exactly.  Held-out seeds are marked as such: they were not used while
the benchmark's bounds were set, so a later change can be checked on a
seed its author did not tune against.  Each entry carries the host it
was recorded on.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import HELD_OUT, RECORD, SEEDS, Checker, traced  # noqa: E402
from workloads import SPAN_NS, WORKLOADS  # noqa: E402


def host() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"cores": os.cpu_count(),
            "ram_gib": round(pages / 2 ** 30, 1),
            "python": platform.python_version(),
            "numpy": importlib.util.find_spec("numpy") is not None}


def main() -> int:
    doc = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    doc.setdefault("workloads", {})
    machine = host()
    for workload in WORKLOADS:
        entry = doc["workloads"].setdefault(workload, {"seeds": {}})
        if entry.get("span_ns") != SPAN_NS[workload]:
            entry["seeds"] = {}          # a new span voids every record
        entry["span_ns"] = SPAN_NS[workload]
        for seed in SEEDS + HELD_OUT:
            checker = Checker({})
            rounds = traced(workload, seed, 0.0, checker)
            digests = {rep.get("digest") for rep in rounds[0]} if rounds \
                else set()
            if checker.failures or len(digests) != 1:
                print(f"{workload} seed {seed}: {checker.failures}, "
                      f"digests {sorted(map(str, digests))}",
                      file=sys.stderr)
                return 1
            digest = digests.pop()
            entry["seeds"][str(seed)] = {
                "digest": digest,
                "counts": rounds[0].ledger["exact"],
                "held_out": seed in HELD_OUT,
                "host": machine,
            }
            print(f"{workload} seed {seed}: {digest[:12]} "
                  f"{rounds[0].ledger['exact']}", flush=True)
            RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
