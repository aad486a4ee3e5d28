"""Per-layer numbers from a ``cProfile`` pass, and the tail-percentile rule.

Self time is folded by source file under ``src/repro/<pkg>/<module>.py``
into the layers the benchmark reports; call counts come from named
functions of the engine's collaborators.  Everything else (executor,
scenarios, machine models, the standard library) is ``other``.
"""

from __future__ import annotations

import math
import pstats
from pathlib import Path

#: Layer of each module or package (a trailing "/" matches a package).
LAYERS = {
    "core/engine.py": "engine",
    "core/sched.py": "sched",
    "mpi/pt2pt.py": "pt2pt",
    "mpi/comm.py": "comm",
    "mpi/collectives.py": "collectives",
    "network/resources.py": "resources",
    "network/netmodel.py": "netmodel",
    "hpcc/": "hpcc",
    "imb/": "imb",
    "obs/": "obs",
}

SELF_TIME_LAYERS = tuple(dict.fromkeys(LAYERS.values())) + ("other",)

#: (module, function name) -> call-count metric.  ``reserve`` counts every
#: resource reserved, including each leg of ``reserve_joint``.
CALL_COUNTS = {
    ("core/sched.py", "push"): "sched.pushes",
    ("core/sched.py", "pop_batch"): "sched.batches",
    ("network/resources.py", "reserve"): "resources.reservations",
    ("network/netmodel.py", "message_timing"): "netmodel.timings",
}

#: Percentiles considered for a tail, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def _layer(rel: str) -> str:
    for prefix, layer in LAYERS.items():
        if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
            return layer
    return "other"


def fold_profile(profile, package_root: Path) -> dict[str, float]:
    """``<layer>.self_s`` and call-count metrics from a finished profile."""
    root = str(package_root.resolve()) + "/"
    out = {f"{layer}.self_s": 0.0 for layer in SELF_TIME_LAYERS}
    out.update({metric: 0 for metric in CALL_COUNTS.values()})
    for (filename, _line, func), (_cc, ncalls, self_s, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        rel = filename[len(root):] if filename.startswith(root) else ""
        out[f"{_layer(rel)}.self_s"] += self_s
        metric = CALL_COUNTS.get((rel, func))
        if metric is not None:
            out[metric] += ncalls
    return out


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(q * len(sorted_values) / 100.0, 9)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile of ``TAIL_LADDER``
    with at least ten samples beyond it; the median when none has."""
    ordered = sorted(values)
    best = (TAIL_LADDER[0], percentile(ordered, TAIL_LADDER[0])[0])
    for q in TAIL_LADDER[1:]:
        value, beyond = percentile(ordered, q)
        if beyond >= 10:
            best = (q, value)
    return best
