"""Communication matrices: rank×rank traffic, tagged by benchmark phase.

Each cluster run's transport (:mod:`repro.mpi.pt2pt`) tallies every
message it sends in one :class:`PhaseMatrix` — who sent to whom, how
many bytes, and whether the pair shared a node — while the metrics or
comm recorder is on.  When the run ends the tally merges into the
active :class:`CommRecorder`'s current *phase*, a free-form string the
harness sets per sweep point or observed figure (``"fig12:xeon"``,
``"imb:altix_nl4:Alltoall"``), so each paper figure can be explained as
a traffic pattern.

The recorder is the ``"comm"`` recorder of the observation protocol
(:mod:`repro.obs.recorder`).  Snapshots are plain JSON-able dicts with
deterministically sorted keys; merges add integer cells and are
commutative, so serial, ``--jobs N``, and cache-warm sweeps produce
byte-identical matrices.
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

    def to_dict(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "intra": {"msgs": self.intra_msgs, "bytes": self.intra_bytes},
            "inter": {"msgs": self.inter_msgs, "bytes": self.inter_bytes},
            "cells": {f"{src},{dst}": list(v)
                      for (src, dst), v in sorted(self.cells.items())},
        }

    def add(self, other: "PhaseMatrix") -> None:
        """Fold another matrix into this one (additive)."""
        if other.nprocs > self.nprocs:
            self.nprocs = other.nprocs
        self.intra_msgs += other.intra_msgs
        self.intra_bytes += other.intra_bytes
        self.inter_msgs += other.inter_msgs
        self.inter_bytes += other.inter_bytes
        cells = self.cells
        for pair, (msgs, nbytes) in other.cells.items():
            cell = cells.get(pair)
            if cell is None:
                cells[pair] = [msgs, nbytes]  # == [0 + msgs, 0 + nbytes]
            else:
                cell[0] += msgs
                cell[1] += nbytes

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`to_dict` snapshot into this matrix (additive)."""
        other = PhaseMatrix()
        other.nprocs = snap["nprocs"]
        other.intra_msgs = snap["intra"]["msgs"]
        other.intra_bytes = snap["intra"]["bytes"]
        other.inter_msgs = snap["inter"]["msgs"]
        other.inter_bytes = snap["inter"]["bytes"]
        cells = other.cells
        for key, cell in snap["cells"].items():
            s, d = key.split(",")
            cells[(int(s), int(d))] = cell
        self.add(other)


class CommRecorder(Recorder):
    """Per-phase communication matrices with a current-phase cursor.

    Virtual-time facts, replayed for cached points.
    """

    name = "comm"
    replay_cached = True

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._phases: dict[str, PhaseMatrix] = {}

    def _matrix_for(self, name: str) -> PhaseMatrix:
        pm = self._phases.get(name)
        if pm is None:
            pm = self._phases[name] = PhaseMatrix()
        return pm

    def add(self, traffic: PhaseMatrix) -> None:
        """Fold one run's traffic tally into the current phase."""
        self._matrix_for(self._phase_name).add(traffic)

    # -- views ---------------------------------------------------------------

    def phases(self) -> list[str]:
        return sorted(self._phases)

    def matrix(self, phase: str = DEFAULT_PHASE) -> PhaseMatrix | None:
        return self._phases.get(phase)

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
            self._matrix_for(name).merge(pdict)
