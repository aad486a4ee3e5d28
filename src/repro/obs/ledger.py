"""Append-only JSONL run ledger: performance history across commits.

Every harness run and every finished service job appends one JSON line,
built by :func:`ledger_row`, describing what ran (item names, CPU cap),
where the code stood (git SHA, source fingerprint from the exec cache),
and how fast it went (wall seconds, engine events/s, cache hits).  The
file is append-only and schema-versioned, so the bench trajectory of
the repository accumulates run over run and trend queries stay cheap —
read, filter by ``run_key``, plot.

Regression flagging compares a fresh entry against the **trailing
median** of earlier entries with the same ``run_key`` (same work, same
cap, same mode); the median makes a single noisy CI runner harmless,
and nothing is flagged until :data:`MIN_HISTORY` comparable runs exist.  Host wall
time is inherently noisy, so the default tolerance is generous and the
validation gate treats a flag as a warning unless strict mode is on.

Malformed lines (truncated writes, merge scars) are skipped and
counted, never fatal — history files outlive bugs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from collections.abc import Iterable
from pathlib import Path

#: Bump when the entry layout changes incompatibly.
#: v2: entries carried the scheduler backend's name and it joined
#: ``run_key`` — runs in different modes are different work, so their
#: events/s never compete in the same trailing-median window.
#: v4: energy-accounted runs carry ``energy_total_j`` /
#: ``energy_avg_power_w`` / ``energy_edp_js``; energy-off rows omit the
#: fields entirely rather than null-padding them.  (v3 was never used
#: for the ledger — the number jumps to stay aligned with
#: ``BENCH_SCHEMA_VERSION``.)  Readers stay version-lenient: any
#: well-formed row with a ``schema_version`` parses, whatever its
#: vintage, and trend/regression queries simply skip fields a row does
#: not have.
#: v5: traced runs carry ``trace_id`` (and, for harness rows,
#: ``trace_spans``) linking the row to its distributed job trace;
#: telemetry-off rows omit the fields entirely.
#: Still v5 since the scheduler backends went: rows carry ``macro_above``
#: (``null`` when exact) instead of the backend name, a field swap the
#: lenient readers absorb, so no reader needs to tell the layouts apart.
#: Rows also carry ``dirty`` (tracked files differ from ``git_sha``;
#: ``null`` outside git), an added field older rows simply lack.
#: Likewise ``recorders``, the recorders a run had on; with the exec
#: backend and ``jobs`` they joined ``run_key``, so older keys go unmatched.
LEDGER_SCHEMA_VERSION = 5

#: Comparable runs required before regression flagging switches on.
MIN_HISTORY = 3

#: Default drift tolerance vs the trailing median (0.5 = 50% slower).
DEFAULT_TOLERANCE = 0.5


def _git(args: list[str], repo_dir: str | Path | None) -> str | None:
    """Stdout of ``git <args>`` in ``repo_dir`` (or cwd); None on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(repo_dir) if repo_dir is not None else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(repo_dir: str | Path | None = None) -> str:
    """Short git SHA of ``repo_dir`` (or cwd); ``"unknown"`` outside git."""
    sha = (_git(["rev-parse", "--short", "HEAD"], repo_dir) or "").strip()
    return sha or "unknown"


def git_dirty(repo_dir: str | Path | None = None) -> bool | None:
    """Do tracked files of ``repo_dir`` (or cwd) differ from ``HEAD``?

    A row measured on uncommitted edits carries its parent's SHA; this
    flag tells it apart.  Untracked files do not count.  ``None``
    outside git.
    """
    out = _git(["status", "--porcelain", "--untracked-files=no"], repo_dir)
    return None if out is None else bool(out.strip())


def run_key(items: list[str], max_cpus: int | None, *,
            exec_backend: str | None = None, jobs: int | None = None,
            recorders: Iterable[str] = ()) -> str:
    """Stable key for "the same work, run the same way".

    The work is the items, the CPU cap and the installed macro
    fast-path mode (:func:`repro.imb.fastpath.result_tag`); the mode is
    the exec backend, ``jobs`` and the names of the recorders that were
    on.  Walls of a serial run, a parallel one and an observed one never
    share a trailing-median window.
    """
    from ..imb.fastpath import result_tag  # deferred: imb imports obs
    blob = json.dumps({"items": sorted(items), "max_cpus": max_cpus,
                       "fastpath": result_tag(),
                       "exec_backend": exec_backend, "jobs": jobs,
                       "recorders": sorted(recorders)},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def ledger_row(items: list[str], max_cpus: int | None, *,
               exec_backend: str, jobs: int, recorders: Iterable[str],
               wall_s: float, totals: dict, energy: dict | None,
               **extras) -> dict:
    """One run-ledger row: the work, the mode, the code and the speed.

    ``run_key`` is derived from the fields the row records (and
    ``macro_above`` is the installed fast-path mode it is salted with),
    so key and row cannot disagree.  ``totals`` is the executor's
    ``stats()``, ``energy`` the energy totals and ``extras`` the
    caller's own fields; energy off (None) and None extras are left
    out, not null-padded.
    """
    from ..exec.cache import source_fingerprint  # deferred: exec imports obs
    from ..imb.fastpath import macro_above

    recorders = sorted(recorders)
    wall_s = round(wall_s, 6)
    row = {
        "when": round(time.time(), 3),
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "fingerprint": source_fingerprint(),
        "run_key": run_key(items, max_cpus, exec_backend=exec_backend,
                           jobs=jobs, recorders=recorders),
        "items": list(items),
        "max_cpus": max_cpus,
        "jobs": jobs,
        "macro_above": macro_above(),
        "exec_backend": exec_backend,
        "recorders": recorders,
        "wall_s": wall_s,
        "points": totals["points"],
        "cache_hits": totals["cache_hits"],
        "cache_misses": totals["cache_misses"],
        "events": totals["events"],
        "events_per_s": (round(totals["events"] / wall_s)
                         if wall_s > 0 else None),
    }
    if energy is not None:
        row["energy_total_j"] = energy["total_j"]
        row["energy_avg_power_w"] = energy["avg_power_w"]
        row["energy_edp_js"] = energy["edp_js"]
    row.update((k, v) for k, v in extras.items() if v is not None)
    return row


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


class RunLedger:
    """One append-only JSONL history file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.skipped = 0  # malformed lines seen by the last entries() call

    def append(self, entry: dict) -> dict:
        """Stamp ``schema_version`` and append one line; returns the line."""
        stamped = {"schema_version": LEDGER_SCHEMA_VERSION, **entry}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(stamped, sort_keys=True) + "\n")
        return stamped

    def entries(self) -> list[dict]:
        """All well-formed entries, oldest first; malformed lines skipped."""
        self.skipped = 0
        out: list[dict] = []
        if not self.path.exists():
            return out
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self.skipped += 1
                continue
            if not isinstance(entry, dict) or "schema_version" not in entry:
                self.skipped += 1
                continue
            out.append(entry)
        return out

    # -- trend queries --------------------------------------------------------

    def trend(self, key: str, field: str = "wall_s",
              limit: int | None = None) -> list[tuple[str, float]]:
        """``(git_sha, value)`` pairs for one run_key, oldest first."""
        rows = [
            (e.get("git_sha", "unknown"), float(e[field]))
            for e in self.entries()
            if e.get("run_key") == key and isinstance(e.get(field), (int, float))
        ]
        return rows[-limit:] if limit else rows

    def check_regression(self, entry: dict, *,
                         tolerance: float = DEFAULT_TOLERANCE) -> dict:
        """Compare ``entry`` against the trailing median of its run_key.

        Flags ``wall_s`` drifting *slower* and ``events_per_s`` drifting
        *lower* beyond ``tolerance``; improvements never flag.  Returns
        ``{"checked", "history", "regressions", "ok"}`` — ``checked`` is
        False (and ``ok`` True) until :data:`MIN_HISTORY` prior entries
        with the same key exist.
        """
        key = entry.get("run_key")
        prior = [e for e in self.entries()
                 if e.get("run_key") == key and e is not entry]
        # The entry under test may already be appended; drop one identical
        # trailing line so a run never competes with itself.
        if prior and prior[-1] == {"schema_version": LEDGER_SCHEMA_VERSION,
                                   **entry}:
            prior = prior[:-1]
        verdict: dict = {"checked": False, "history": len(prior),
                         "regressions": [], "ok": True}
        if len(prior) < MIN_HISTORY:
            return verdict
        verdict["checked"] = True
        for field, worse_is_bigger in (("wall_s", True),
                                       ("events_per_s", False)):
            value = entry.get(field)
            hist = [float(e[field]) for e in prior
                    if isinstance(e.get(field), (int, float))]
            if not isinstance(value, (int, float)) or len(hist) < MIN_HISTORY:
                continue
            med = _median(hist)
            if med <= 0:
                continue
            ratio = float(value) / med
            bad = ratio > 1 + tolerance if worse_is_bigger \
                else ratio < 1 / (1 + tolerance)
            if bad:
                verdict["regressions"].append({
                    "field": field, "value": float(value),
                    "median": med, "ratio": round(ratio, 4),
                })
        verdict["ok"] = not verdict["regressions"]
        return verdict
