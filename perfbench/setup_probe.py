"""One set-up measurement in a fresh interpreter, printed as a JSON line.

``run.py`` runs this several times per benchmark run and reports the
median, because an import can be timed only once per process::

    python3 perfbench/setup_probe.py <exec backend> <jobs> <scratch dir>

It times importing ``repro.api``, scenario discovery, the source
fingerprint, executor construction and, on the ``subprocess`` backend,
the first batch of two trivial points, which spawns the workers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main(backend: str, jobs: int, scratch: Path) -> None:
    t0 = perf_counter()
    import repro.api as api
    t1 = perf_counter()
    api.list_scenarios()
    t2 = perf_counter()
    api.ResultCache(scratch)  # hashes the source tree
    t3 = perf_counter()
    from workloads import WARM_UP_POINTS

    t4 = perf_counter()
    executor = api.SweepExecutor(jobs=jobs, backend=backend)
    t5 = perf_counter()
    if backend == "subprocess":
        executor.run_points([api.SimPoint.make(*p) for p in WARM_UP_POINTS])
    t6 = perf_counter()
    executor.close()
    print(json.dumps({
        "import_s": t1 - t0,
        "discovery_s": t2 - t1,
        "fingerprint_s": t3 - t2,
        "executor_s": t5 - t4,
        "fleet_spawn_s": t6 - t5,
        "total_s": (t3 - t0) + (t6 - t4),
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
