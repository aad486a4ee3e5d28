"""Communication matrices: rank×rank traffic, tagged by benchmark phase.

The transport (:mod:`repro.mpi.pt2pt`) records every delivered message
into the active :class:`CommRecorder` — who sent to whom, how many
bytes, and whether the pair shared a node.  Matrices are grouped by
*phase*, a free-form string the harness sets per sweep point or observed
figure (``"fig12:xeon"``, ``"imb:altix_nl4:Alltoall"``), so each paper
figure can be explained as a traffic pattern.

The recorder is the ``"comm"`` recorder of the observation protocol
(:mod:`repro.obs.recorder`).  Cost model mirrors :mod:`repro.obs.metrics`:
instrumented code fetches the recorder **once** at transport construction
and keeps ``None`` when it is disabled — the metrics-off hot path pays
nothing.  Snapshots are plain JSON-able dicts with deterministically
sorted keys; merges add integer cells and are commutative, so serial,
``--jobs N``, and cache-warm sweeps produce byte-identical matrices.
"""

from __future__ import annotations

from .recorder import DEFAULT_PHASE, Recorder


class PhaseMatrix:
    """Traffic totals for one phase: sparse rank×rank cells + splits.

    Cells are ``(src, dst) -> [messages, bytes]`` with integer counts;
    intra/inter-node splits are kept alongside so the node boundary
    survives into snapshots without needing the placement map.
    """

    __slots__ = ("cells", "nprocs", "intra_msgs", "intra_bytes",
                 "inter_msgs", "inter_bytes")

    def __init__(self) -> None:
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.nprocs = 0
        self.intra_msgs = 0
        self.intra_bytes = 0
        self.inter_msgs = 0
        self.inter_bytes = 0

    def record(self, src: int, dst: int, nbytes: int, inter: bool) -> None:
        cell = self.cells.get((src, dst))
        if cell is None:
            cell = self.cells[(src, dst)] = [0, 0]
        cell[0] += 1
        cell[1] += nbytes
        hi = src if src > dst else dst
        if hi >= self.nprocs:
            self.nprocs = hi + 1
        if inter:
            self.inter_msgs += 1
            self.inter_bytes += nbytes
        else:
            self.intra_msgs += 1
            self.intra_bytes += nbytes

    # -- views ---------------------------------------------------------------

    @property
    def total_msgs(self) -> int:
        return self.intra_msgs + self.inter_msgs

    @property
    def total_bytes(self) -> int:
        return self.intra_bytes + self.inter_bytes

    def dense_bytes(self) -> list[list[int]]:
        """Bytes as a dense ``nprocs × nprocs`` row-major matrix."""
        n = self.nprocs
        m = [[0] * n for _ in range(n)]
        for (src, dst), (_, nbytes) in self.cells.items():
            m[src][dst] = nbytes
        return m

    def row_bytes(self) -> list[int]:
        """Bytes sent per source rank (matrix row sums)."""
        out = [0] * self.nprocs
        for (src, _), (_, nbytes) in self.cells.items():
            out[src] += nbytes
        return out

    def to_dict(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "intra": {"msgs": self.intra_msgs, "bytes": self.intra_bytes},
            "inter": {"msgs": self.inter_msgs, "bytes": self.inter_bytes},
            "cells": {f"{src},{dst}": list(v)
                      for (src, dst), v in sorted(self.cells.items())},
        }

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`to_dict` snapshot into this matrix (additive)."""
        if snap["nprocs"] > self.nprocs:
            self.nprocs = snap["nprocs"]
        self.intra_msgs += snap["intra"]["msgs"]
        self.intra_bytes += snap["intra"]["bytes"]
        self.inter_msgs += snap["inter"]["msgs"]
        self.inter_bytes += snap["inter"]["bytes"]
        cells = self.cells
        for key, (msgs, nbytes) in snap["cells"].items():
            s, d = key.split(",")
            pair = (int(s), int(d))
            cell = cells.get(pair)
            if cell is None:
                cells[pair] = [msgs, nbytes]  # == [0 + msgs, 0 + nbytes]
            else:
                cell[0] += msgs
                cell[1] += nbytes


class CommRecorder(Recorder):
    """Per-phase communication matrices with a current-phase cursor.

    Virtual-time facts, replayed for cached points.
    """

    name = "comm"
    replay_cached = True

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._phases: dict[str, PhaseMatrix] = {}
        self._phase_matrix: PhaseMatrix | None = None

    def set_phase(self, name: str) -> str:
        self._phase_matrix = None  # cached for the old phase
        return super().set_phase(name)

    # -- recording -----------------------------------------------------------

    def record(self, src: int, dst: int, nbytes: int, inter: bool) -> None:
        if not self.enabled:
            return
        pm = self._phase_matrix
        if pm is None:
            pm = self._phases.get(self._phase_name)
            if pm is None:
                pm = self._phases[self._phase_name] = PhaseMatrix()
            self._phase_matrix = pm
        pm.record(src, dst, nbytes, inter)

    # -- views ---------------------------------------------------------------

    def phases(self) -> list[str]:
        return sorted(self._phases)

    def matrix(self, phase: str = DEFAULT_PHASE) -> PhaseMatrix | None:
        return self._phases.get(phase)

    def total_bytes(self) -> int:
        return sum(p.total_bytes for p in self._phases.values())

    def snapshot(self) -> dict:
        """JSON-able state: ``{"phases": {name: matrix_dict}}``."""
        return {"phases": {name: pm.to_dict()
                           for name, pm in sorted(self._phases.items())}}

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` in.  Commutative: cells add, so the
        fan-in order of worker snapshots cannot change the result."""
        if not self.enabled:
            return
        for name, pdict in snap.get("phases", {}).items():
            pm = self._phases.get(name)
            if pm is None:
                pm = self._phases[name] = PhaseMatrix()
            pm.merge(pdict)
