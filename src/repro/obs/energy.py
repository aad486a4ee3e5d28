"""Energy-to-solution accounting over traced busy intervals.

The machine models describe *when* components are busy (the per-rank CPU
clocks in :mod:`repro.mpi.pt2pt`, the per-resource busy time in
:mod:`repro.network.resources`); a :class:`PowerModel` prices those
states in watts, and an :class:`EnergyRecorder` integrates the product
over a run's virtual time:

* **CPU**: every rank pays its idle floor for the whole run, plus the
  busy-idle delta over the seconds its CPU clock actually advanced
  (compute kernels, send/recv software overheads, staging copies).
* **NIC**: every node pays the NIC idle floor for the whole run, plus
  the active delta over the egress/ingress/nic-bus busy seconds the
  fabric's bandwidth servers recorded.
* **Links**: the switch-core levels draw power only while transferring
  (per busy second of core occupancy); idle link power is folded into
  the NIC/node floors.
* **Memory**: a constant per-node draw (DRAM background + refresh);
  shared-memory traffic energy is considered part of the CPU busy
  delta, as the same cores drive the copies.

The recorder is the ``"energy"`` recorder of the observation protocol
(:mod:`repro.obs.recorder`): a shared *disabled* recorder is ambient by
default, and the harness swaps in an enabled instance under
``--energy``.  The transport accumulates CPU-busy seconds on or off;
only the pricing at the end of a run depends on the recorder.  Accounting is
merged exactly like comm matrices and timelines — per-point child
recorders snapshot, snapshots ride back on the
:class:`~repro.exec.worker.PointRecord`, and the executor folds them in
input order — so serial, ``--jobs N``, every exec backend, and
cache-warm sweeps produce byte-identical joule totals.

Like every module in :mod:`repro.obs`, nothing here imports the model
layers; :mod:`repro.mpi.cluster` calls :meth:`EnergyRecorder.record_run`
at the end of each simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .recorder import Recorder

#: Per-component joule keys, in the fixed order they are summed and
#: serialised (fixed order = byte-identical float totals).
COMPONENT_KEYS = ("cpu_j", "mem_j", "nic_j", "link_j")

#: Every per-phase numeric field, in merge order.
_SUM_KEYS = ("runs", "ranks_s", "nodes_s", "elapsed_s", "cpu_busy_s",
             "nic_busy_s", "link_busy_s", "shm_busy_s",
             "cpu_j", "mem_j", "nic_j", "link_j", "total_j")


@dataclass(frozen=True)
class PowerModel:
    """Per-component power states of one machine, in watts.

    All CPU figures are per *core* (per rank at full packing), NIC and
    memory figures per *node*, and ``link_active_w`` per busy second of
    switch-core occupancy.  ``provenance`` documents where the estimate
    comes from (vendor TDP sheets, installation power reports, ...);
    none of these numbers are measured by the 2006 paper.
    """

    cpu_busy_w: float            # one core, pinned at 100% busy
    cpu_idle_w: float            # one core, idling in the OS/run-time
    nic_active_w: float          # one NIC while moving bytes
    nic_idle_w: float            # one NIC, link up but quiet
    link_active_w: float         # switch-core draw per busy second
    mem_w: float                 # per-node memory subsystem, constant
    provenance: str = ""

    def __post_init__(self) -> None:
        for name in ("cpu_busy_w", "cpu_idle_w", "nic_active_w",
                     "nic_idle_w", "link_active_w", "mem_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cpu_busy_w < self.cpu_idle_w:
            raise ValueError("cpu_busy_w must be >= cpu_idle_w")
        if self.nic_active_w < self.nic_idle_w:
            raise ValueError("nic_active_w must be >= nic_idle_w")

    def to_dict(self) -> dict:
        return {
            "cpu_busy_w": self.cpu_busy_w,
            "cpu_idle_w": self.cpu_idle_w,
            "nic_active_w": self.nic_active_w,
            "nic_idle_w": self.nic_idle_w,
            "link_active_w": self.link_active_w,
            "mem_w": self.mem_w,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PowerModel":
        return cls(cpu_busy_w=doc["cpu_busy_w"],
                   cpu_idle_w=doc["cpu_idle_w"],
                   nic_active_w=doc["nic_active_w"],
                   nic_idle_w=doc["nic_idle_w"],
                   link_active_w=doc["link_active_w"],
                   mem_w=doc["mem_w"],
                   provenance=doc.get("provenance", ""))

    # -- steady-state views (used by the analytic ranking) -------------------

    def node_busy_w(self, cpus_per_node: int) -> float:
        """One fully-busy node: all cores busy + memory + quiet NIC."""
        return (self.cpu_busy_w * cpus_per_node + self.mem_w
                + self.nic_idle_w)

    def node_idle_w(self, cpus_per_node: int) -> float:
        """One idle node: idle cores + memory + quiet NIC."""
        return (self.cpu_idle_w * cpus_per_node + self.mem_w
                + self.nic_idle_w)


def integrate_energy(power: PowerModel, *, nprocs: int, n_nodes: int,
                     elapsed_s: float, cpu_busy_s: float,
                     busy: dict) -> dict:
    """Price one run's busy intervals; returns the per-component joules.

    ``busy`` is :meth:`repro.network.netmodel.Fabric.busy_by_kind`
    output: ``{kind: {"busy_s": float, "bytes": float}}``.  Additions
    follow a fixed order so two identical runs produce bit-identical
    floats.
    """
    def busy_s(kind: str) -> float:
        entry = busy.get(kind)
        return entry["busy_s"] if entry else 0.0

    nic_busy = busy_s("egress") + busy_s("ingress") + busy_s("nicbus")
    link_busy = busy_s("core")
    shm_busy = busy_s("shm")
    cpu_j = (power.cpu_idle_w * nprocs * elapsed_s
             + (power.cpu_busy_w - power.cpu_idle_w) * cpu_busy_s)
    mem_j = power.mem_w * n_nodes * elapsed_s
    nic_j = (power.nic_idle_w * n_nodes * elapsed_s
             + (power.nic_active_w - power.nic_idle_w) * nic_busy)
    link_j = power.link_active_w * link_busy
    total_j = cpu_j + mem_j + nic_j + link_j
    return {
        "runs": 1,
        "ranks_s": nprocs * elapsed_s,
        "nodes_s": n_nodes * elapsed_s,
        "elapsed_s": elapsed_s,
        "cpu_busy_s": cpu_busy_s,
        "nic_busy_s": nic_busy,
        "link_busy_s": link_busy,
        "shm_busy_s": shm_busy,
        "cpu_j": cpu_j,
        "mem_j": mem_j,
        "nic_j": nic_j,
        "link_j": link_j,
        "total_j": total_j,
    }


def _empty_phase() -> dict:
    doc = {k: 0 if k == "runs" else 0.0 for k in _SUM_KEYS}
    doc["machine"] = None
    doc["power"] = None
    return doc


class EnergyRecorder(Recorder):
    """Per-phase joule accounting with deterministic merge.

    Mirrors :class:`~repro.obs.timeline.TimelineRecorder`: phases are
    created on first touch, snapshots are plain JSON-able dicts, and
    merging adds the numeric fields of each phase in a fixed key order.
    Virtual-time facts, replayed for cached points.
    """

    name = "energy"
    replay_cached = True

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._phases: dict[str, dict] = {}

    # -- recording -----------------------------------------------------------

    def record_run(self, power: PowerModel, *, machine: str, nprocs: int,
                   n_nodes: int, elapsed_s: float, cpu_busy_s: float,
                   busy: dict) -> None:
        """Integrate one finished simulated run into the current phase."""
        if not self.enabled:
            return
        run = integrate_energy(power, nprocs=nprocs, n_nodes=n_nodes,
                               elapsed_s=elapsed_s, cpu_busy_s=cpu_busy_s,
                               busy=busy)
        doc = self._phases.get(self._phase_name)
        if doc is None:
            doc = self._phases[self._phase_name] = _empty_phase()
        if doc["machine"] is None:
            doc["machine"] = machine
            doc["power"] = power.to_dict()
        for k in _SUM_KEYS:
            doc[k] += run[k]

    # -- views ---------------------------------------------------------------

    def phases(self) -> list[str]:
        return sorted(self._phases)

    def get(self, phase: str) -> dict | None:
        return self._phases.get(phase)

    def snapshot(self) -> dict:
        """JSON-able state: ``{"phases": {name: phase_doc}}``."""
        return {
            "phases": {
                name: dict(doc)
                for name, doc in sorted(self._phases.items())
            }
        }

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` in (fixed fan-in order -> identical)."""
        if not self.enabled:
            return
        for name, incoming in sorted(snap.get("phases", {}).items()):
            doc = self._phases.get(name)
            if doc is None:
                doc = self._phases[name] = _empty_phase()
            if doc["machine"] is None:
                doc["machine"] = incoming.get("machine")
                doc["power"] = incoming.get("power")
            for k in _SUM_KEYS:
                doc[k] += incoming.get(k, 0)

    def totals(self) -> dict:
        """Whole-recorder energy summary: joules, average power, EDP.

        Phases fold in sorted-name order (the same order
        :meth:`snapshot` serialises them), so the summary is as
        deterministic as the per-phase accounting.  ``elapsed_s`` is
        summed virtual run time across phases; average power and the
        energy-delay product are derived from the summed totals.
        """
        out = {k: 0 if k == "runs" else 0.0 for k in _SUM_KEYS}
        for name in sorted(self._phases):
            doc = self._phases[name]
            for k in _SUM_KEYS:
                out[k] += doc[k]
        elapsed = out["elapsed_s"]
        out["avg_power_w"] = out["total_j"] / elapsed if elapsed > 0 else 0.0
        out["edp_js"] = out["total_j"] * elapsed
        return out
