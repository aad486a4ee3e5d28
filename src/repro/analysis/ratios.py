"""The paper's ratio-based analysis (§4.1.2).

Absolute HPL numbers cannot compare the *balance* of systems of different
sizes, so the paper normalises every HPCC result twice:

1. divide by the system's G-HPL (flops-relative balance), then
2. divide each column by the column maximum (best system = 1.0).

:func:`kiviat_normalise` implements exactly that for Fig 5;
:func:`table3_maxima` extracts the per-column absolute maxima that the
paper prints as Table 3.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..hpcc.suite import HPCCResult

#: Fig 5 column order, as in the paper.
KIVIAT_COLUMNS = (
    "G-HPL",
    "G-EP DGEMM/G-HPL",
    "G-FFTE/G-HPL",
    "G-Ptrans/G-HPL",
    "G-StreamCopy/G-HPL",
    "RandRingBW/PP-HPL",
    "1/RandRingLatency",
    "G-RandomAccess/G-HPL",
)

#: Units for Table 3, matching the paper's rendering.
TABLE3_UNITS = {
    "G-HPL": "TF/s",
    "G-EP DGEMM/G-HPL": "",
    "G-FFTE/G-HPL": "",
    "G-Ptrans/G-HPL": "B/F",
    "G-StreamCopy/G-HPL": "B/F",
    "RandRingBW/PP-HPL": "B/F",
    "1/RandRingLatency": "1/us",
    "G-RandomAccess/G-HPL": "Update/F",
}

#: Columns built on *global* benchmarks; the paper only reports them for
#: systems whose HPL exceeds 1 TFlop/s ("the small systems have an undue
#: advantage ... because of better scaling").
GLOBAL_COLUMNS = frozenset(
    {"G-FFTE/G-HPL", "G-Ptrans/G-HPL", "G-RandomAccess/G-HPL"}
)

ONE_TFLOPS = 1.0  # threshold on g_hpl_tflops


def ratio_row(result: HPCCResult) -> dict[str, float | None]:
    """One machine's raw ratio values (before column normalisation)."""
    big = result.g_hpl_tflops > ONE_TFLOPS
    return {
        "G-HPL": result.g_hpl_tflops,
        "G-EP DGEMM/G-HPL": result.dgemm_over_hpl,
        "G-FFTE/G-HPL": result.ffte_over_hpl if big else None,
        "G-Ptrans/G-HPL": result.ptrans_over_hpl if big else None,
        "G-StreamCopy/G-HPL": result.stream_over_hpl,
        "RandRingBW/PP-HPL": result.ring_bw_over_hpl,
        "1/RandRingLatency": result.inv_ring_latency,
        "G-RandomAccess/G-HPL": result.randomaccess_over_hpl if big else None,
    }


@dataclass(frozen=True)
class KiviatData:
    """Fig 5 data: normalised values per machine plus column maxima."""

    machines: tuple[str, ...]
    columns: tuple[str, ...]
    raw: dict[str, dict[str, float | None]]        # machine -> column -> value
    normalised: dict[str, dict[str, float | None]]  # best system = 1.0
    maxima: dict[str, float]                        # Table 3


def kiviat_normalise(results: Sequence[HPCCResult]) -> KiviatData:
    """Build the Fig 5 / Table 3 data from one suite result per machine."""
    raw = {r.machine: ratio_row(r) for r in results}
    maxima: dict[str, float] = {}
    for col in KIVIAT_COLUMNS:
        vals = [row[col] for row in raw.values() if row[col] is not None]
        maxima[col] = max(vals) if vals else float("nan")
    normalised = {
        m: {
            col: (row[col] / maxima[col] if row[col] is not None else None)
            for col in KIVIAT_COLUMNS
        }
        for m, row in raw.items()
    }
    return KiviatData(
        machines=tuple(raw),
        columns=KIVIAT_COLUMNS,
        raw=raw,
        normalised=normalised,
        maxima=maxima,
    )


def table3_maxima(results: Sequence[HPCCResult]) -> dict[str, float]:
    """The paper's Table 3: the absolute value behind each Fig 5 '1.0'."""
    return kiviat_normalise(results).maxima


def kiviat_violations(columns: Sequence[str],
                      normalised: dict[str, dict[str, float | None]],
                      tol: float = 1e-12) -> list[str]:
    """Normalisation defects in Fig 5 data (empty list = well-formed).

    ``normalised`` maps machine -> column -> value (missing or ``None``:
    not reported).  Ratio-normalised columns must satisfy, by
    construction: every value lies in (0, 1 + tol], and exactly one
    machine sits at the column maximum 1.0 (the system that defines it).
    Any violation means the normalisation pipeline — not the
    calibration — is broken.
    """
    bad: list[str] = []
    for col in columns:
        ones = values = 0
        for m, row in normalised.items():
            v = row.get(col)
            if v is None:
                continue
            values += 1
            if not math.isfinite(v) or v <= 0 or v > 1 + tol:
                bad.append(f"{col}[{m}]: normalised value {v!r} outside (0, 1]")
            elif abs(v - 1.0) <= tol:
                ones += 1
        # Global-benchmark columns are empty below the paper's 1 TFlop/s
        # reporting cutoff; an absent column is not a defect.
        if values and ones != 1:
            bad.append(f"{col}: {ones} machines at the column maximum "
                       f"(expected exactly 1)")
    return bad


def best_machine(data: KiviatData, column: str) -> str:
    """Which machine attains the column maximum (Fig 5 winner)."""
    for m, row in data.raw.items():
        v = row[column]
        if v is not None and v == data.maxima[column]:
            return m
    raise KeyError(column)
